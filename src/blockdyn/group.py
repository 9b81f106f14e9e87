"""Point and shape algebra over the group Z^d.

Shapes are finite point sets, and a box is kept as its corners.
Translates, products, invariance ratios, boundary parts, temperedness of
box families and Banach densities of periodic subsets are all computed
with exact integer/rational arithmetic; no floats enter this module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as cartesian
from math import prod
from operator import add, le
from typing import Iterable, Iterator, Sequence

Point = tuple[int, ...]


def point_add(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def point_neg(a: Point) -> Point:
    return tuple(-x for x in a)


class Shape:
    """A finite subset of Z^d.  Immutable; operations never mutate inputs.

    A box is kept as its corners: its length, bounds, membership and subset
    tests are arithmetic, and ``points``, ``sorted_points`` and ``index``
    are built on first read.  Other shapes keep their point set.  Shapes
    with the same cells are equal and hash equal, however they were built.
    """

    def __init__(self, dim: int, points: Iterable[Point]) -> None:
        pts = frozenset(points)
        for p in pts:
            if len(p) != dim:
                raise ValueError(f"point {p} does not have dimension {dim}")
        axes = list(zip(*pts))
        self._set(dim, (tuple(map(min, axes)), tuple(map(max, axes))) if pts else None, len(pts))
        self.__dict__["points"] = pts

    def _set(self, dim: int, bounds: tuple[Point, Point] | None, size: int) -> None:
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        box = bounds is not None and size == prod(b - a + 1 for a, b in zip(*bounds))
        key = (dim, bounds, size)
        self.__dict__.update(dim=dim, _bounds=bounds, _size=size, _box=box, _key=key)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("a Shape is immutable")

    __delattr__ = __setattr__

    @classmethod
    def of(cls, points: Iterable[Sequence[int]], dim: int | None = None) -> Shape:
        pts = frozenset(tuple(map(operator.index, p)) for p in points)
        if dim is None:
            if not pts:
                raise ValueError("dimension required for an empty shape")
            dim = len(next(iter(pts)))
        return cls(dim, pts)

    @classmethod
    def box(cls, lo: Sequence[int], hi: Sequence[int]) -> Shape:
        """Integer box [lo_1,hi_1] x ... x [lo_d,hi_d] (empty if some lo > hi)."""
        lo, hi = tuple(map(operator.index, lo)), tuple(map(operator.index, hi))
        if len(lo) != len(hi):
            raise ValueError("box corners must share a dimension")
        if any(a > b for a, b in zip(lo, hi)):
            return cls(len(lo), frozenset())
        shape = object.__new__(cls)
        shape._set(len(lo), (lo, hi), prod(b - a + 1 for a, b in zip(lo, hi)))
        return shape

    @classmethod
    def interval(cls, lo: int, hi: int) -> Shape:
        return cls.box((lo,), (hi,))

    def __repr__(self) -> str:
        if self._box:
            return f"Shape.box{self._bounds}"
        return f"Shape.of({list(self.sorted_points)}, dim={self.dim})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Shape):
            return NotImplemented
        # No other set of a box's size fits in the box's bounds.
        return self._key == other._key and (self._box or self.points == other.points)

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    def __hash__(self) -> int:
        # Shapes key the kernel's run cache, which hashes both shapes on every
        # lookup; the hash is computed once.
        return self._hash

    @cached_property
    def points(self) -> frozenset[Point]:
        # Only a box gets here: other shapes store their points.
        return frozenset(self.sorted_points)

    @cached_property
    def sorted_points(self) -> tuple[Point, ...]:
        if self._box:
            return tuple(cartesian(*(range(a, b + 1) for a, b in zip(*self._bounds))))
        return tuple(sorted(self.points))

    @cached_property
    def index(self) -> dict[Point, int]:
        """Position of each point in lexicographic order."""
        return {p: i for i, p in enumerate(self.sorted_points)}

    def __len__(self) -> int:
        return self._size

    def __contains__(self, p: object) -> bool:
        if not self._box:
            return p in self.points
        hash(p)  # an unhashable probe raises TypeError, as in a point set
        # equality with an integer of each axis range, as in a point set
        inside = isinstance(p, tuple) and len(p) == self.dim
        return inside and all(x in range(a, b + 1) for a, b, x in zip(*self._bounds, p))

    def __iter__(self) -> Iterator[Point]:
        return iter(self.sorted_points)

    def issubset(self, other: Shape) -> bool:
        if self and other._box and self.dim == other.dim:
            (lo, hi), (olo, ohi) = self._bounds, other._bounds
            return all(map(le, olo, lo)) and all(map(le, hi, ohi))
        return not self or self.points <= other.points

    def bounds(self) -> tuple[Point, Point]:
        """Lower and upper corners of the bounding box."""
        if self._bounds is None:
            raise ValueError("empty shape has no bounds")
        return self._bounds

    def is_box(self) -> bool:
        return self._box


def _require_same_dim(a: Shape, b: Shape) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def translate(shape: Shape, g: Sequence[int]) -> Shape:
    """{s + g : s in shape}.  Cardinality is preserved."""
    gp = tuple(map(operator.index, g))
    if len(gp) != shape.dim:
        raise ValueError(f"dimension mismatch: point {gp} vs shape dim {shape.dim}")
    return shape_product(shape, Shape.box(gp, gp))


def _anchor_box(outer: Shape, inner: Shape) -> Iterator[Point]:
    """Anchors g, in lexicographic order, with inner + g inside the bounding
    box of outer.  Both shapes must be non-empty.

    Every anchor g with inner + g within outer lies in this box, so scans
    over embeddings start here and test containment themselves.
    """
    (lo, hi), (ilo, ihi) = outer.bounds(), inner.bounds()
    return cartesian(
        *(range(a - b, c - d + 1) for a, b, c, d in zip(lo, ilo, hi, ihi))
    )


def _overlap(a: Shape, b: Shape) -> int:
    """Cell count of the intersection of two boxes of one dimension."""
    (alo, ahi), (blo, bhi) = a.bounds(), b.bounds()
    return prod(max(0, min(c, d) - max(x, y) + 1) for x, c, y, d in zip(alo, ahi, blo, bhi))


def shape_product(a: Shape, f: Shape) -> Shape:
    """{x + y : x in a, y in f}, duplicates collapsed."""
    _require_same_dim(a, f)
    if a.is_box() and f.is_box():
        (alo, ahi), (flo, fhi) = a.bounds(), f.bounds()
        return Shape.box(tuple(map(add, alo, flo)), tuple(map(add, ahi, fhi)))
    return Shape(a.dim, frozenset(point_add(x, y) for x in a.points for y in f.points))


def shape_invert(shape: Shape) -> Shape:
    """{-s : s in shape}."""
    return Shape(shape.dim, frozenset(point_neg(p) for p in shape.points))


def invariance_ratio(f: Shape, a: Shape) -> Fraction:
    """|F symm-diff AF| / |F| as an exact rational.

    The caller compares the result against a threshold delta; F counts as
    (A, delta)-invariant when the ratio is strictly below delta.
    """
    _require_same_dim(f, a)
    if not f:
        raise ValueError("invariance ratio undefined for an empty shape")
    af = shape_product(a, f)
    common = _overlap(f, af) if f.is_box() and af.is_box() else len(f.points & af.points)
    return Fraction(len(f) + len(af) - 2 * common, len(f))


def is_invariant(f: Shape, a: Shape, delta: Fraction) -> bool:
    """Exact (A, delta)-invariance test: the invariance ratio is below delta."""
    return invariance_ratio(f, a) < Fraction(delta)


def boundary_part(f: Shape, a: Shape) -> Shape:
    """Points of F whose A-translate leaves F: {f in F : (A + f) not within F}."""
    _require_same_dim(f, a)
    pts = f.points
    out = frozenset(
        p for p in pts if any(point_add(q, p) not in pts for q in a.points)
    )
    return Shape(f.dim, out)


@dataclass(frozen=True)
class FolnerBox:
    """The box [-n, n]^d, the n-th member of the standard Folner family.

    The family is nested in n, contains the identity, exhausts Z^d and is
    symmetric under negation.
    """

    index: int
    dim: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("index must be non-negative")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    @cached_property
    def shape(self) -> Shape:
        return Shape.box((-self.index,) * self.dim, (self.index,) * self.dim)

    def __len__(self) -> int:
        return (2 * self.index + 1) ** self.dim


def folner_box(n: int, dim: int) -> Shape:
    return FolnerBox(n, dim).shape


def is_tempered_prefix(boxes: Sequence[FolnerBox], c: Fraction) -> bool:
    """Check |union_{k<=n} F_k^{-1} F_{n+1}| <= C |F_{n+1}| for every prefix.

    A single box passes vacuously (there is no n+1 to test against).
    """
    if not boxes:
        raise ValueError("empty box list")
    dims = {b.dim for b in boxes}
    if len(dims) != 1:
        raise ValueError("boxes must share a dimension")
    indices = [b.index for b in boxes]
    if any(i >= j for i, j in zip(indices, indices[1:])):
        raise ValueError("boxes must be strictly nested by index")
    bound = Fraction(c)
    for n in range(len(boxes) - 1):
        nxt = boxes[n + 1].shape
        union: set[Point] = set()
        for k in range(n + 1):
            union |= shape_product(shape_invert(boxes[k].shape), nxt).points
        if Fraction(len(union)) > bound * len(nxt):
            return False
    return True


@dataclass(frozen=True)
class PeriodicSubset:
    """A periodic subset of Z^d given by a period vector and residue set.

    Membership of any point is decided coordinate-wise mod the period, so
    densities over translates are exactly computable.
    """

    periods: tuple[int, ...]
    residues: frozenset[Point]

    def __post_init__(self) -> None:
        if not self.periods or any(p < 1 for p in self.periods):
            raise ValueError("periods must be positive")
        for r in self.residues:
            if len(r) != len(self.periods):
                raise ValueError("residue dimension mismatch")
            if any(not 0 <= x < p for x, p in zip(r, self.periods)):
                raise ValueError(f"residue {r} outside the fundamental cell")

    @property
    def dim(self) -> int:
        return len(self.periods)

    @classmethod
    def full(cls, dim: int) -> PeriodicSubset:
        return cls((1,) * dim, frozenset({(0,) * dim}))

    @classmethod
    def empty(cls, dim: int) -> PeriodicSubset:
        return cls((1,) * dim, frozenset())

    def __contains__(self, p: Point) -> bool:
        return tuple(x % q for x, q in zip(p, self.periods)) in self.residues

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.residues), prod(self.periods))


@dataclass(frozen=True)
class BanachDensity:
    """Min/max of |S intersect (F + g)| / |F| over probed translates g.

    ``certified`` is true when the probe hit every residue class of the
    period, in which case lower/upper equal the true inf/sup over all of
    Z^d (periodicity makes the count a function of g mod period).
    """

    lower: Fraction
    upper: Fraction
    certified: bool


def banach_density(s: PeriodicSubset, f: Shape, probe: Shape) -> BanachDensity:
    if s.dim != f.dim or f.dim != probe.dim:
        raise ValueError("dimension mismatch")
    if not f:
        raise ValueError("density undefined for an empty averaging shape")
    if not probe:
        raise ValueError("empty probe window")
    seen: set[Point] = set()
    counts: list[int] = []
    for g in probe.sorted_points:
        r = tuple(x % q for x, q in zip(g, s.periods))
        if r in seen:
            continue
        seen.add(r)
        counts.append(sum(1 for p in f.points if point_add(p, r) in s))
    certified = len(seen) == prod(s.periods)
    size = len(f.points)
    return BanachDensity(
        lower=Fraction(min(counts), size),
        upper=Fraction(max(counts), size),
        certified=certified,
    )
