"""Cylinder measures, the empirical block measure, weak-star distances with
certified tails, and distance to the convex hull of a finite vertex list.

All masses and distances are exact rationals.  The infinite-series metric
is truncated at the data's depth J and shipped as an interval: the lower
part is the exact truncated sum and the tail bound 2^-J is certified by
the fact that every per-level average of absolute mass differences is at
most 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .frequency import freq_table
from .group import Shape, folner_box
from .symbolic import Block, BlockFamily


class CylinderMeasure:
    """A probability distribution over full patterns on base x rows[1..depth].

    Stored sparsely; queries at shallower levels are marginal sums and are
    additive by construction.  Immutable after construction.
    """

    __slots__ = ("depth", "base", "sizes", "_masses", "_marginals")

    def __init__(
        self,
        depth: int,
        base: Shape,
        masses: Mapping[Block, Fraction],
        sizes: Sequence[int] | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be at least 1")
        items = {b: Fraction(m) for b, m in masses.items() if m != 0}
        if not items:
            raise ValueError("a measure needs positive mass somewhere")
        inferred = next(iter(items)).sizes if sizes is None else tuple(sizes)
        for b, m in items.items():
            if b.shape != base or b.depth != depth or b.sizes != inferred:
                raise ValueError("mass assigned outside base x rows[1..depth]")
            if m < 0:
                raise ValueError("negative mass")
        if sum(items.values()) != 1:
            raise ValueError("masses must sum to exactly 1")
        self.depth = depth
        self.base = base
        self.sizes = inferred
        self._masses = dict(sorted(items.items(), key=lambda kv: kv[0].symbols))
        self._marginals: dict[tuple[Shape, int], Mapping[tuple[int, ...], Fraction]] = {}

    def items(self) -> tuple[tuple[Block, Fraction], ...]:
        return tuple(self._masses.items())

    def support(self) -> tuple[Block, ...]:
        return tuple(self._masses.keys())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CylinderMeasure):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.base == other.base
            and self.sizes == other.sizes
            and self._masses == other._masses
        )

    def __repr__(self) -> str:
        return (
            f"CylinderMeasure(depth={self.depth}, base={len(self.base)} cells, "
            f"support={len(self._masses)})"
        )

    def marginal(self, e: Shape, level: int) -> Mapping[tuple[int, ...], Fraction]:
        """Marginal over e x rows[1..level], keyed by row-major symbol tuples.

        The result is cached and shared, so it is read-only.
        """
        key = (e, level)
        cached = self._marginals.get(key)
        if cached is not None:
            return cached
        if not e.issubset(self.base):
            raise ValueError("marginal shape is not a subset of the base")
        if not 1 <= level <= self.depth:
            raise ValueError(f"level {level} outside depth {self.depth}")
        pts = e.sorted_points
        out: dict[tuple[int, ...], Fraction] = {}
        for block, mass in self._masses.items():
            sub = tuple(block.get(p, r) for r in range(1, level + 1) for p in pts)
            out[sub] = out.get(sub, Fraction(0)) + mass
        view = self._marginals[key] = MappingProxyType(out)
        return view

    def value(self, pattern: Block) -> Fraction:
        """Mass of the cylinder given by a pattern at level <= depth."""
        if pattern.sizes != self.sizes[: pattern.depth]:
            raise ValueError("alphabet stack mismatch")
        if pattern.shape == self.base and pattern.depth == self.depth:
            return self._masses.get(pattern, Fraction(0))
        marg = self.marginal(pattern.shape, pattern.depth)
        return marg.get(pattern.symbols, Fraction(0))


def block_measure(block: Block, depth: int) -> CylinderMeasure:
    """The empirical measure of a block: each full pattern on F_depth x
    rows[1..depth] gets its frequency inside the block.

    Requires at least one embedding of F_depth.  At level ``depth`` the
    measure reproduces the block's frequencies exactly; the shallower
    levels deviate only by boundary terms.
    """
    base = folner_box(depth, block.dim)
    table = freq_table(block, base, depth)
    if not table:
        raise ValueError("the block admits no embedding of the base box")
    sizes = block.sizes[:depth]
    masses = {Block(base, depth, sizes, key): m for key, m in table.items()}
    return CylinderMeasure(depth, base, masses, sizes)


def mix(weights: Sequence[Fraction], measures: Sequence[CylinderMeasure]) -> CylinderMeasure:
    """Pointwise convex combination of measures on a common base."""
    if len(weights) != len(measures) or not measures:
        raise ValueError("need one weight per measure")
    ws = [Fraction(w) for w in weights]
    if any(w < 0 for w in ws) or sum(ws) != 1:
        raise ValueError("weights must be non-negative and sum to exactly 1")
    first = measures[0]
    for m in measures[1:]:
        if m.depth != first.depth or m.base != first.base or m.sizes != first.sizes:
            raise ValueError("measures live on different bases")
    out: dict[Block, Fraction] = {}
    for w, m in zip(ws, measures):
        if w == 0:
            continue
        for b, mass in m.items():
            out[b] = out.get(b, Fraction(0)) + w * mass
    return CylinderMeasure(first.depth, first.base, out, first.sizes)


def _x_values(x: Block | CylinderMeasure, family: BlockFamily) -> list[Fraction]:
    """Per-pattern values of x on a family: frequencies for a block, masses
    for a measure."""
    if isinstance(x, Block):
        table = freq_table(x, family.base, family.level)
        return [table.get(b.symbols, Fraction(0)) for b in family.blocks]
    return [x.value(b) for b in family.blocks]


def _level_term(
    x: Block | CylinderMeasure, nu: CylinderMeasure, family: BlockFamily
) -> Fraction:
    """d_k: the average of |x - nu| over one family."""
    total = Fraction(0)
    for xv, b in zip(_x_values(x, family), family.blocks):
        total += abs(xv - nu.value(b))
    return total / len(family.blocks)


def dist_k(mu: CylinderMeasure, nu: CylinderMeasure, family: BlockFamily) -> Fraction:
    """Average absolute mass difference over a family of same-level blocks."""
    if not family.blocks:
        raise ValueError("empty family")
    if family.level > mu.depth or family.level > nu.depth:
        raise ValueError("family level exceeds a measure depth")
    return _level_term(mu, nu, family)


@dataclass(frozen=True)
class DistanceInterval:
    """Certified enclosure of the weak-star series distance.

    The true value lies in [lower, lower + tail]; tail is 2^-J for a
    truncation at depth J.  ``levels`` holds d_1, ..., d_J, so that
    lower = sum_k 2^-k d_k.
    """

    lower: Fraction
    tail: Fraction
    levels: tuple[Fraction, ...]

    @property
    def upper(self) -> Fraction:
        return self.lower + self.tail


def _check_families(families: Sequence[BlockFamily]) -> None:
    if not families:
        raise ValueError("at least one family level is required")
    for i, fam in enumerate(families, start=1):
        if fam.level != i:
            raise ValueError(f"family at position {i} has level {fam.level}")
        if not fam.blocks:
            raise ValueError(f"family at level {i} is empty")


def _series(levels: Sequence[Fraction]) -> DistanceInterval:
    """The truncated series over per-level terms d_1, ..., d_J."""
    lower = sum(
        (Fraction(1, 2**k) * d for k, d in enumerate(levels, start=1)), Fraction(0)
    )
    return DistanceInterval(
        lower=lower, tail=Fraction(1, 2 ** len(levels)), levels=tuple(levels)
    )


def dist(
    mu: CylinderMeasure, nu: CylinderMeasure, families: Sequence[BlockFamily]
) -> DistanceInterval:
    """Truncated series sum_k 2^-k d_k with a certified tail of 2^-J.

    Each d_k averages |mu - nu| over the level-k family, hence d_k <= 1 and
    the discarded levels contribute at most sum_{k>J} 2^-k = 2^-J.
    """
    _check_families(families)
    return _series([dist_k(mu, nu, fam) for fam in families])


def dist_block(
    block: Block, nu: CylinderMeasure, families: Sequence[BlockFamily]
) -> DistanceInterval:
    """Block-to-measure distance: frequencies play the role of masses."""
    _check_families(families)
    if block.depth < len(families):
        raise ValueError("block shallower than the deepest family level")
    return _series([_level_term(block, nu, fam) for fam in families])


def tail_depth(eps: Fraction) -> int:
    """Smallest j with 2^-j strictly below eps/2."""
    eps = Fraction(eps)
    if not 0 < eps <= 2:
        raise ValueError("eps must lie in (0, 2]")
    j = 1
    while Fraction(1, 2**j) >= eps / 2:
        j += 1
    return j


@dataclass(frozen=True)
class ConvexTarget:
    """A finite vertex list; distances are taken to its convex hull."""

    vertices: tuple[CylinderMeasure, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a convex target needs at least one vertex")
        first = self.vertices[0]
        for v in self.vertices[1:]:
            if v.depth != first.depth or v.base != first.base or v.sizes != first.sizes:
                raise ValueError("vertices live on different bases")
        for i, v in enumerate(self.vertices):
            for w in self.vertices[i + 1 :]:
                if v == w:
                    raise ValueError("vertices must be distinct")

    @property
    def depth(self) -> int:
        return self.vertices[0].depth

    @property
    def base(self) -> Shape:
        return self.vertices[0].base

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class HullDistance:
    """Result of minimizing the truncated distance over the weight simplex.

    ``value`` is the lower part at the returned weights; the true hull
    distance lies in [value, value + tail].  ``gap`` is the refinement gap
    of the final sweep (0 means the last full sweep made no progress).
    """

    value: Fraction
    weights: tuple[Fraction, ...]
    gap: Fraction
    tail: Fraction


def _objective_terms(
    x: Block | CylinderMeasure,
    target: ConvexTarget,
    families: Sequence[BlockFamily],
) -> list[tuple[Fraction, Fraction, tuple[Fraction, ...]]]:
    """Per-pattern terms (coeff, x value, vertex values)."""
    _check_families(families)
    if len(families) > target.depth:
        raise ValueError("more family levels than target depth")
    terms: list[tuple[Fraction, Fraction, tuple[Fraction, ...]]] = []
    for fam in families:
        coeff = Fraction(1, (2**fam.level) * len(fam.blocks))
        for b, xv in zip(fam.blocks, _x_values(x, fam)):
            vv = tuple(v.value(b) for v in target.vertices)
            terms.append((coeff, xv, vv))
    return terms


def _objective(
    terms: Sequence[tuple[Fraction, Fraction, tuple[Fraction, ...]]],
    weights: Sequence[Fraction],
) -> Fraction:
    total = Fraction(0)
    for coeff, xv, vv in terms:
        acc = xv
        for w, v in zip(weights, vv):
            acc -= w * v
        total += coeff * abs(acc)
    return total


def _weighted_median(points: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Minimizer of sum w |t - t_i| (first point where cumulative weight
    reaches half the total)."""
    points.sort(key=lambda tw: tw[0])
    total = sum(w for _, w in points)
    half = total / 2
    acc = Fraction(0)
    for t, w in points:
        acc += w
        if acc >= half:
            return t
    return points[-1][0]


def dist_to_hull(
    x: Block | CylinderMeasure,
    target: ConvexTarget,
    families: Sequence[BlockFamily],
    tol: Fraction = Fraction(1, 1000),
    max_sweeps: int = 60,
) -> HullDistance:
    """Minimize the truncated distance from x to conv(vertices) over weights.

    The objective is convex and piecewise linear in the weights.  Pairwise
    coordinate descent transfers mass between two vertices at a time; each
    transfer is minimized exactly (weighted median over the breakpoints of
    the segment), and full sweeps repeat until the improvement of a sweep
    drops below tol/10.  Deterministic: fixed sweep order and a fixed set
    of starting points (uniform plus every vertex).
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    terms = _objective_terms(x, target, families)
    m = len(target)
    tail = Fraction(1, 2 ** len(families))
    if m == 1:
        w = (Fraction(1),)
        return HullDistance(_objective(terms, w), w, Fraction(0), tail)

    pair_diffs: dict[tuple[int, int], list[Fraction]] = {}
    for i in range(m):
        for j in range(i + 1, m):
            pair_diffs[(i, j)] = [vv[i] - vv[j] for _, _, vv in terms]

    starts: list[list[Fraction]] = [[Fraction(1, m)] * m]
    for i in range(m):
        starts.append([Fraction(1) if k == i else Fraction(0) for k in range(m)])

    best_w: list[Fraction] | None = None
    best_val: Fraction | None = None
    best_gap = Fraction(0)
    for start in starts:
        w = list(start)
        residual = [xv - sum(wi * vi for wi, vi in zip(w, vv)) for _, xv, vv in terms]
        val = sum(c * abs(r) for (c, _, _), r in zip(terms, residual))
        gap = val
        for _ in range(max_sweeps):
            sweep_start = val
            for (i, j), diffs in pair_diffs.items():
                lo, hi = -w[i], w[j]
                if lo == hi:
                    continue
                pts = [
                    (r / b, c * abs(b))
                    for (c, _, _), r, b in zip(terms, residual, diffs)
                    if b != 0
                ]
                if not pts:
                    continue
                t = _weighted_median(pts)
                t = min(max(t, lo), hi)
                if t == 0:
                    continue
                new_residual = [r - t * b for r, b in zip(residual, diffs)]
                new_val = sum(
                    c * abs(r) for (c, _, _), r in zip(terms, new_residual)
                )
                if new_val < val:
                    residual = new_residual
                    val = new_val
                    w[i] += t
                    w[j] -= t
            gap = sweep_start - val
            if gap < tol / 10 or val == 0:
                break
        if best_val is None or val < best_val or (val == best_val and w < best_w):
            best_val = val
            best_w = w
            best_gap = gap
    assert best_w is not None and best_val is not None
    return HullDistance(best_val, tuple(best_w), best_gap, tail)
