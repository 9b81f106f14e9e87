"""Point and shape algebra over the group Z^d.

Shapes are finite point sets, and a box is kept as its corners.
Translates, products, invariance ratios and the Folner boxes [-n, n]^d
are computed with exact integer/rational arithmetic; no floats enter
this module.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from itertools import product as cartesian
from math import prod
from operator import add, attrgetter, le
from typing import Any, Callable, Iterable, Iterator, Sequence

Point = tuple[int, ...]

_setattr = object.__setattr__


class _Record:
    """A read-only value whose fields are the public names in ``__slots__``,
    read in slot order by equality, hash, a dataclass-style repr and copy;
    other slots are caches (see ``_cached``).  ``_set`` takes the fields as
    a dataclass's ``__init__`` does and stores them: it is the constructor,
    or the last step of a class's own checking one.  Any assignment is an
    AttributeError.  A plain class: a dataclass costs an import of
    ``dataclasses`` and ``inspect`` and about a millisecond per class at
    every import."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # Straight-line code, as a dataclass writes it, through each slot's
        # own store: Python binds the arguments and words the errors, and a
        # record made per solve pays no loop.
        scope = {f"_{f}": getattr(cls, f).__set__ for f in fields}
        body = "".join(f"\n _{f}(self, {f})" for f in fields) or "\n pass"
        exec(f"def __init__(self, {', '.join(fields)}):{body}", scope)
        init = cls._set = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        if "__init__" not in cls.__dict__:
            cls.__init__ = init
        # The fields as a tuple in one C call: a Block is hashed at every
        # frequency-table lookup.
        if len(fields) > 1:
            cls._values = staticmethod(attrgetter(*fields))
        else:
            cls._values = staticmethod(lambda self: tuple(getattr(self, n) for n in fields))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        items = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__name__}({items})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__: they cannot set slots
        return type(self), self._values(self)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError(f"a {type(self).__name__} is read-only")

    __delattr__ = __setattr__


def _cached(compute: Callable[[Any], Any]) -> property:
    """A read-only property of a ``_Record``, computed on first read and kept
    in the cache slot named ``_`` + its name."""
    slot = "_" + compute.__name__

    def read(self: Any) -> Any:
        if not hasattr(self, slot):
            _setattr(self, slot, compute(self))
        return getattr(self, slot)

    return property(read, doc=compute.__doc__)


def point_add(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


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


def folner_box(n: int, dim: int) -> Shape:
    """The box [-n, n]^d, the n-th member of the standard Folner family.

    The family is nested in n, contains the identity, exhausts Z^d and is
    symmetric under negation.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return Shape.box((-n,) * dim, (n,) * dim)
