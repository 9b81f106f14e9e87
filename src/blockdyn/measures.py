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
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Mapping, Sequence

from .frequency import CountTable, freq_table
from .group import Shape, folner_box
from .symbolic import Block, BlockFamily, _runs_at


def _numerators(masses: Mapping) -> tuple[dict, int]:
    """The non-zero masses as integer numerators over their least common
    denominator; a ValueError unless some mass is positive, none is
    negative and they sum to exactly 1."""
    items = {key: Fraction(m) for key, m in masses.items() if m != 0}
    if not items:
        raise ValueError("a measure needs positive mass somewhere")
    if any(m < 0 for m in items.values()):
        raise ValueError("negative mass")
    den = lcm(*(m.denominator for m in items.values()))
    nums = {key: m.numerator * (den // m.denominator) for key, m in items.items()}
    if sum(nums.values()) != den:
        raise ValueError("masses must sum to exactly 1")
    return nums, den


class CylinderMeasure:
    """A probability distribution over full patterns on base x rows[1..depth].

    Stored sparsely as integer numerators over one denominator, reduced so
    that equal measures store equal numbers; queries at shallower levels
    are marginal sums and are additive by construction.  Immutable after
    construction.
    """

    __slots__ = ("depth", "base", "sizes", "_nums", "_den", "_marginals")

    def __init__(
        self,
        depth: int,
        base: Shape,
        masses: Mapping[Block, Fraction],
        sizes: Sequence[int] | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be at least 1")
        nums, den = _numerators(masses)
        inferred = next(iter(nums)).sizes if sizes is None else tuple(sizes)
        if any(b.shape != base or b.depth != depth or b.sizes != inferred for b in nums):
            raise ValueError("mass assigned outside base x rows[1..depth]")
        self._set(depth, base, inferred, {b.symbols: n for b, n in nums.items()}, den)

    @classmethod
    def _from_counts(
        cls,
        depth: int,
        base: Shape,
        sizes: tuple[int, ...],
        nums: Mapping[tuple[int, ...], int],
        den: int,
    ) -> CylinderMeasure:
        """The measure with mass nums[s] / den on the full pattern with
        symbols s, unchecked: callers pass valid patterns and positive
        numerators that sum to ``den``."""
        self = cls.__new__(cls)
        self._set(depth, base, sizes, nums, den)
        return self

    def _set(
        self,
        depth: int,
        base: Shape,
        sizes: tuple[int, ...],
        nums: Mapping[tuple[int, ...], int],
        den: int,
    ) -> None:
        g = gcd(den, *nums.values())
        self.depth = depth
        self.base = base
        self.sizes = sizes
        self._nums = {key: n // g for key, n in sorted(nums.items())}
        self._den = den // g
        self._marginals: dict[tuple[Shape, int], CountTable] = {}

    def items(self) -> tuple[tuple[Block, Fraction], ...]:
        return tuple(
            (Block(self.base, self.depth, self.sizes, key), Fraction(n, self._den))
            for key, n in self._nums.items()
        )

    def atoms(self) -> CountTable:
        """The masses of the full patterns as a read-only table: integer
        numerators keyed by row-major symbol tuples, in key order, over
        one denominator."""
        return CountTable(self._nums, self._den)

    def support(self) -> tuple[Block, ...]:
        return tuple(Block(self.base, self.depth, self.sizes, key) for key in self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CylinderMeasure):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.base == other.base
            and self.sizes == other.sizes
            and self._den == other._den
            and self._nums == other._nums
        )

    def __repr__(self) -> str:
        return (
            f"CylinderMeasure(depth={self.depth}, base={len(self.base)} cells, "
            f"support={len(self._nums)})"
        )

    def marginal(self, e: Shape, level: int) -> CountTable:
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
        # One gather of the positions of e x rows[1..level] serves every atom.
        runs = _runs_at(self.base, e, level, (0,) * e.dim)
        cells = [i for a, b in runs for i in range(a, b)]
        get = itemgetter(*cells) if len(cells) > 1 else lambda s: tuple(s[i] for i in cells)
        out: dict[tuple[int, ...], int] = {}
        for symbols, n in self._nums.items():
            sub = get(symbols)
            out[sub] = out.get(sub, 0) + n
        view = self._marginals[key] = CountTable(out, self._den)
        return view

    def value(self, pattern: Block) -> Fraction:
        """Mass of the cylinder given by a pattern at level <= depth."""
        if pattern.sizes != self.sizes[: pattern.depth]:
            raise ValueError("alphabet stack mismatch")
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
    # The patterns are reads of a valid block, so they need no new check.
    return CylinderMeasure._from_counts(
        depth, base, block.sizes[:depth], table.counts, table.total
    )


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
    # sum_j w_j n_ij / d_j over den = lcm_j(denominator(w_j) d_j)
    parts = [(w, m) for w, m in zip(ws, measures) if w != 0]
    den = lcm(*(w.denominator * m._den for w, m in parts))
    out: dict[tuple[int, ...], int] = {}
    for w, m in parts:
        scale = w.numerator * (den // (w.denominator * m._den))
        for key, n in m._nums.items():
            out[key] = out.get(key, 0) + scale * n
    return CylinderMeasure._from_counts(first.depth, first.base, first.sizes, out, den)


def _x_table(x: Block | CylinderMeasure, family: BlockFamily) -> CountTable:
    """The one table that holds x on a family: the frequency table of a
    block, the family-level marginal of a measure."""
    if isinstance(x, Block):
        return freq_table(x, family.base, family.level)
    if family.sizes != x.sizes[: family.level]:
        raise ValueError("alphabet stack mismatch")
    return x.marginal(family.base, family.level)


def _level_term(
    x: Block | CylinderMeasure, nu: CylinderMeasure, family: BlockFamily
) -> Fraction:
    """d_k: the average of |x - nu| over one family."""
    xt, nt = _x_table(x, family), _x_table(nu, family)
    xc, t, nc, d = xt.counts, xt.total, nt.counts, nt.total
    total = sum(abs(xc.get(key, 0) * d - nc.get(key, 0) * t) for key in family.keys)
    return Fraction(total, t * d * len(family))


def dist_k(mu: CylinderMeasure, nu: CylinderMeasure, family: BlockFamily) -> Fraction:
    """Average absolute mass difference over a family of same-level blocks."""
    if not family.keys:
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
        if not fam.keys:
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
    """Exact minimum ``value`` of the truncated distance over the weight
    simplex, attained at ``weights`` and certified by an equal dual value;
    the true hull distance lies in [value, value + tail]."""

    value: Fraction
    weights: tuple[Fraction, ...]
    tail: Fraction


# One objective term per family pattern: (coeff, x value, vertex values),
# the values as integer numerators over one shared denominator.
Term = tuple[Fraction, int, tuple[int, ...]]


def _objective_terms(
    x: Block | CylinderMeasure,
    target: ConvexTarget,
    families: Sequence[BlockFamily],
) -> tuple[list[Term], int]:
    """The terms and their denominator, the lcm of the totals of the tables."""
    _check_families(families)
    if len(families) > target.depth:
        raise ValueError("more family levels than target depth")
    tables = [[_x_table(v, fam) for v in (x, *target.vertices)] for fam in families]
    den = lcm(*(t.total for ts in tables for t in ts))
    terms: list[Term] = []
    for fam, ts in zip(families, tables):
        coeff = Fraction(1, (2**fam.level) * len(fam))
        xs, *columns = [[t.counts.get(key, 0) * (den // t.total) for key in fam.keys] for t in ts]
        terms += [(coeff, xv, vv) for xv, vv in zip(xs, zip(*columns))]
    return terms, den


def _objective(terms: Sequence[Term], weights: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for coeff, xv, vv in terms:
        acc = xv
        for w, v in zip(weights, vv):
            acc -= w * v
        total += coeff * abs(acc)
    return total


def _hull_lp(terms: Sequence[Term], m: int, den: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Optimal weights (the row multipliers) and optimal value of the dual LP

        max  y.x - t   s.t.  (V^T y)_j <= t for each vertex j,  -c_i <= y_i <= c_i

    on the numerators x and V over ``den`` (so the value is ``den`` times
    that of the LP on the fractions, at the same weights), by a
    bounded-variable primal simplex in exact arithmetic on an m-row basis,
    which the free variable t never leaves.  Reduced costs are priced
    once per basis change; the largest |reduced cost| enters, except right
    after a degenerate pivot, where Bland's rule picks.  A cycle would be
    degenerate pivots only, all by Bland's rule, so the method terminates.
    """
    n = len(terms)
    t_var = n + m  # variables: y_0..y_{n-1}, the row slacks, then t
    cols = [vv for _, _, vv in terms]
    cols += [[int(i == j) for i in range(m)] for j in range(m)] + [[-1] * m]
    cost = [xv for _, xv, _ in terms] + [0] * m + [-1]
    upper: list[Fraction | None] = [c for c, _, _ in terms] + [None] * (m + 1)
    lower = [-c for c, _, _ in terms] + [Fraction(0)] * m + [None]
    # Start at y_i = c_i sign(x_i - mean vertex value) and t = max_j (V^T y)_j,
    # with t basic in the row of that maximum and the other slacks basic.
    at_upper = [m * xv >= sum(vv) for _, xv, vv in terms] + [False] * (m + 1)
    value = [upper[k] if at_upper[k] else lower[k] for k in range(n)]
    g = [sum(y * vv[j] for y, vv in zip(value, cols)) for j in range(m)]
    top = max(range(m), key=g.__getitem__)
    value += [g[top] - gj for gj in g] + [g[top]]
    basis = [t_var if j == top else n + j for j in range(m)]
    binv = [[Fraction(-1 if i == top else int(i == j != top)) for i in range(m)]
            for j in range(m)]
    reduced: list[int] = []
    bland = False
    while True:
        if not reduced:
            pi = [sum(cost[k] * row[j] for k, row in zip(basis, binv)) for j in range(m)]
            q = lcm(*(p.denominator for p in pi))
            ps = [int(p * q) for p in pi]
            # q * (cost_k - pi . column_k): the reduced costs, scaled; a slack's
            # is scaled by den too, to rank it as in the LP on the fractions
            reduced = [xv * q - sum(map(mul, ps, vv)) for _, xv, vv in terms]
            reduced += [-p * den for p in ps]
            basic = set(basis)
        eligible = [k for k, d in enumerate(reduced)
                    if k not in basic and (d < 0 if at_upper[k] else d > 0)]
        if not eligible:
            break
        k = eligible[0] if bland else max(eligible, key=lambda e: abs(reduced[e]))
        sigma = -1 if at_upper[k] else 1
        alpha = [sum(map(mul, row, cols[k])) for row in binv]
        # Ratio test: the step that first brings the entering variable (a
        # bound flip, ranked -1) or a basic variable to a bound; ties go to
        # the flip, then to the lowest variable index.
        best = None if upper[k] is None else (upper[k] - lower[k], -1)
        for r, a in enumerate(alpha):
            limit = lower[basis[r]] if sigma * a > 0 else upper[basis[r]]
            if a and limit is not None:
                step = ((value[basis[r]] - limit) / (sigma * a), basis[r])
                best = step if best is None else min(best, step)
        if best is None:
            raise RuntimeError("hull LP is unbounded")
        theta, out = best
        for r, a in enumerate(alpha):
            value[basis[r]] -= sigma * theta * a
        value[k] += sigma * theta
        if out < 0:
            at_upper[k] = not at_upper[k]
            bland = False
            continue
        at_upper[out] = value[out] == upper[out]
        leave = basis.index(out)
        basis[leave] = k
        prow = [b / alpha[leave] for b in binv[leave]]
        binv = [
            prow if r == leave else [b - a * p for b, p in zip(row, prow)]
            for r, (row, a) in enumerate(zip(binv, alpha))
        ]
        bland = theta == 0
        reduced = []
    return tuple(pi), sum(map(mul, cost, value))


def dist_to_hull(
    x: Block | CylinderMeasure,
    target: ConvexTarget,
    families: Sequence[BlockFamily],
) -> HullDistance:
    """Exact minimum over the weight simplex of the truncated distance
    sum_i c_i |x_i - (V w)_i| from x to conv(vertices), from one exact solve
    of its dual LP; the value at the optimal weights must equal the dual
    optimum, which certifies it.
    """
    terms, den = _objective_terms(x, target, families)
    weights, dual = _hull_lp(terms, len(target), den)
    value = _objective(terms, weights)
    if value != dual:
        raise RuntimeError(f"hull LP: primal value {value} differs from dual {dual}")
    return HullDistance(value / den, weights, Fraction(1, 2 ** len(families)))
