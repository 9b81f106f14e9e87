"""Cylinder measures, the empirical block measure, weak-star distances with
certified tails, and distance to the convex hull of a finite vertex list.

All masses and distances are exact rationals.  The infinite-series metric
is truncated at the data's depth J and shipped as an interval: the lower
part is the exact truncated sum and the tail bound 2^-J is certified by
the fact that every per-level average of absolute mass differences is at
most 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, groupby
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Mapping, Sequence

from .frequency import CountTable, freq_table
from .group import Shape, _Record, folner_box
from .symbolic import Block, BlockFamily, _runs_at, decode_pattern, encode_pattern


def _numerators(masses: Mapping) -> tuple[dict, int]:
    """The non-zero masses, each an integer pair (p, q) for p / q with q > 0,
    as integer numerators over the least common multiple of their q's; a
    ValueError unless some mass is positive, none is negative and they sum
    to exactly 1."""
    items = {key: pq for key, pq in masses.items() if pq[0]}
    if not items:
        raise ValueError("a measure needs positive mass somewhere")
    if any(p < 0 for p, _ in items.values()):
        raise ValueError("negative mass")
    den = lcm(*(q for _, q in items.values()))
    nums = {key: p * (den // q) for key, (p, q) in items.items()}
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
        nums, den = _numerators({b: m.as_integer_ratio() for b, m in masses.items()})
        inferred = next(iter(nums)).sizes if sizes is None else tuple(sizes)
        if any(b.shape != base or b.depth != depth or b.sizes != inferred for b in nums):
            raise ValueError("mass assigned outside base x rows[1..depth]")
        cells = len(base)
        codes = {encode_pattern(b.symbols, inferred, cells): n for b, n in nums.items()}
        self._set(depth, base, inferred, codes, den)

    @classmethod
    def _from_counts(
        cls,
        depth: int,
        base: Shape,
        sizes: tuple[int, ...],
        nums: Mapping[int, int],
        den: int,
    ) -> CylinderMeasure:
        """The measure with mass nums[c] / den on the full pattern with code
        c, unchecked: callers pass valid codes and positive numerators that
        sum to ``den``."""
        self = cls.__new__(cls)
        self._set(depth, base, sizes, nums, den)
        return self

    def _set(
        self,
        depth: int,
        base: Shape,
        sizes: tuple[int, ...],
        nums: Mapping[int, int],
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
        cells = len(self.base)
        return tuple(
            (
                Block(self.base, self.depth, self.sizes, decode_pattern(key, self.sizes, cells)),
                Fraction(n, self._den),
            )
            for key, n in self._nums.items()
        )

    def atoms(self) -> CountTable:
        """The masses of the full patterns as a read-only table: integer
        numerators keyed by pattern codes (``symbolic.encode_pattern``), in
        key order, over one denominator."""
        return CountTable(self._nums, self._den)

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
        """Marginal over e x rows[1..level], keyed by pattern codes.

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
        # places[p]: the number of values of an atom's digits p, p + 1, ...
        cells = len(self.base)
        radices = [size for size in reversed(self.sizes) for _ in range(cells)]
        places = list(accumulate(radices, mul, initial=1))[::-1]
        # The digits a..b-1 of an atom read as one mixed-radix number,
        # code // places[b] % (places[a] // places[b]), and the marginal's
        # code lists those numbers of the runs of e x rows[1..level] in order;
        # adjacent runs read as one.
        spans: list[list[int]] = []
        for a, b in _runs_at(self.base, e, level, (0,) * e.dim):
            if spans and spans[-1][1] == a:
                spans[-1][1] = b
            else:
                spans.append([a, b])
        parts = [(places[b], places[a] // places[b]) for a, b in spans]
        out: dict[int, int] = {}
        for code, n in self._nums.items():
            sub = 0
            for div, top in parts:
                sub = sub * top + code // div % top
            out[sub] = out.get(sub, 0) + n
        view = self._marginals[key] = CountTable(out, self._den)
        return view


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
    out: dict[int, int] = {}
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


class DistanceInterval(_Record):
    """Certified enclosure of the weak-star series distance.

    The true value lies in [lower, lower + tail]; tail is 2^-J for a
    truncation at depth J.  ``levels`` holds d_1, ..., d_J, so that
    lower = sum_k 2^-k d_k.
    """

    __slots__ = ("lower", "tail", "levels")
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
    return DistanceInterval(lower, Fraction(1, 2 ** len(levels)), tuple(levels))


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


class ConvexTarget(_Record):
    """A finite vertex list; distances are taken to its convex hull."""

    __slots__ = ("vertices",)
    vertices: tuple[CylinderMeasure, ...]

    def __init__(self, vertices: tuple[CylinderMeasure, ...]) -> None:
        if not vertices:
            raise ValueError("a convex target needs at least one vertex")
        first = vertices[0]
        for v in vertices[1:]:
            if v.depth != first.depth or v.base != first.base or v.sizes != first.sizes:
                raise ValueError("vertices live on different bases")
        for i, v in enumerate(vertices):
            for w in vertices[i + 1 :]:
                if v == w:
                    raise ValueError("vertices must be distinct")
        self._set(vertices)

    @property
    def depth(self) -> int:
        return self.vertices[0].depth

    @property
    def base(self) -> Shape:
        return self.vertices[0].base

    def __len__(self) -> int:
        return len(self.vertices)


class HullDistance(_Record):
    """Exact minimum ``value`` of the truncated distance over the weight
    simplex, attained at ``weights`` and certified by an equal dual value;
    the true hull distance lies in [value, value + tail]."""

    __slots__ = ("value", "weights", "tail")
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
    """sum_i c_i |x_i - (V w)_i| over the terms, in integers: with the weights
    over their common denominator, one integer sum of |acc| per run of terms
    sharing a coefficient (one per family level), and one Fraction at the end."""
    d = lcm(*(w.denominator for w in weights))
    ws = [w.numerator * (d // w.denominator) for w in weights]
    sums = [
        (coeff, sum(abs(xv * d - sum(map(mul, ws, vv))) for _, xv, vv in run))
        for coeff, run in groupby(terms, key=itemgetter(0))
    ]
    scale = lcm(*(coeff.denominator for coeff, _ in sums))
    top = sum(coeff.numerator * (scale // coeff.denominator) * s for coeff, s in sums)
    return Fraction(top, scale * d)


def _hull_lp(terms: Sequence[Term], m: int, den: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Optimal weights (the row multipliers) and optimal value of the dual LP

        max  y.x - t   s.t.  (V^T y)_j <= t for each vertex j,  -c_i <= y_i <= c_i

    on the numerators x and V over ``den`` (so the value is ``den`` times
    that of the LP on the fractions, at the same weights), by a
    bounded-variable primal simplex on an m-row basis, which the free
    variable t never leaves.  Reduced costs are priced once per basis
    change; the largest |reduced cost| enters, ties to the lowest index,
    except right after a degenerate pivot, where Bland's rule picks.  A
    cycle would be degenerate pivots only, all by Bland's rule, so the
    method terminates.  In integers: the variables are scaled by the lcm
    of the coefficients' denominators, so every bound is an integer; the
    basis inverse (an adjugate up to sign) and the basic values are kept
    as integers over D = |det B|, updated by the Bareiss step; a nonbasic
    variable sits at the bound its ``at_upper`` flag names.
    """
    n = len(terms)
    t_var = n + m  # variables: y_0..y_{n-1}, the row slacks, then t
    cols = [vv for _, _, vv in terms] + [[int(i == j) for i in range(m)] for j in range(m)]
    cost = [xv for _, xv, _ in terms] + [0] * m + [-1]
    scale = lcm(*(c.denominator for c, _, _ in terms))
    bound = [c.numerator * (scale // c.denominator) for c, _, _ in terms]
    upper: list[int | None] = bound + [None] * (m + 1)
    lower: list[int | None] = [-b for b in bound] + [0] * m + [None]
    # Start at y_i = c_i sign(x_i - mean vertex value) and t = max_j (V^T y)_j,
    # with t basic in the row of that maximum and the other slacks basic.
    at_upper = [m * xv >= sum(vv) for _, xv, vv in terms] + [False] * m
    g = [sum((b if up else -b) * vv[j] for b, up, vv in zip(bound, at_upper, cols))
         for j in range(m)]
    top = max(range(m), key=g.__getitem__)
    basis = [t_var if j == top else n + j for j in range(m)]
    inv = [[-1 if i == top else int(i == j) for i in range(m)] for j in range(m)]
    vals = [g[top] - gj if j != top else g[top] for j, gj in enumerate(g)]
    det = 1
    eligible = None
    bland = False
    while True:
        if eligible is None:
            pi = [sum(cost[k] * row[j] for k, row in zip(basis, inv)) for j in range(m)]
            # det * (cost_k - pi . column_k): the reduced costs, scaled; a
            # slack's is scaled by den too, to rank it as in the LP on the
            # fractions
            reduced = [xv * det - sum(map(mul, pi, vv)) for _, xv, vv in terms]
            reduced += [-p * den for p in pi]
            basic = set(basis)
            # Sorted once per pricing, so that pop() takes the largest
            # |reduced cost| at the lowest index; a bound flip changes no
            # reduced cost and only drops the flipped variable.
            eligible = sorted(
                (k for k, d in enumerate(reduced)
                 if k not in basic and (d < 0 if at_upper[k] else d > 0)),
                key=lambda e: (abs(reduced[e]), -e),
            )
        if not eligible:
            break
        if bland:
            k = min(eligible)
            eligible.remove(k)
        else:
            k = eligible.pop()
        sigma = -1 if at_upper[k] else 1
        alpha = [sum(map(mul, row, cols[k])) for row in inv]  # det * B^-1 a_k
        # Ratio test: the step that first brings the entering variable (a
        # bound flip, ranked -1) or a basic variable to a bound, as num / dnm
        # compared by cross-multiplying; ties go to the flip, then to the
        # lowest variable index.
        best = None if upper[k] is None else (upper[k] - lower[k], 1, -1)
        for b, a, v in zip(basis, alpha, vals):
            limit = lower[b] if sigma * a > 0 else upper[b]
            if a and limit is not None:
                num, dnm = abs(v - limit * det), abs(a)
                if best is None or (num * best[1], b) < (best[0] * dnm, best[2]):
                    best = (num, dnm, b)
        if best is None:
            raise RuntimeError("hull LP is unbounded")
        num, _, out = best
        if out < 0:
            vals = [v - sigma * num * a for v, a in zip(vals, alpha)]
            at_upper[k] = not at_upper[k]
            bland = False
            continue
        leave = basis.index(out)
        piv = alpha[leave]
        at_upper[out] = sigma * piv < 0
        # The leaving variable moves by -excess / det, the entering one by
        # excess / piv from its bound; Bareiss: the new det is |piv|.
        excess = vals[leave] - (upper[out] if at_upper[out] else lower[out]) * det
        s = 1 if piv > 0 else -1
        prow = inv[leave]
        inv = [[s * (x * piv - a * p) // det for x, p in zip(row, prow)]
               for row, a in zip(inv, alpha)]
        vals = [s * (v * piv - a * excess) // det for v, a in zip(vals, alpha)]
        inv[leave] = [s * p for p in prow]
        entering = 0 if k >= n else bound[k] if at_upper[k] else -bound[k]
        vals[leave] = s * (piv * entering + excess)
        basis[leave] = k
        det = abs(piv)
        bland = excess == 0
        eligible = None
    total = sum(cost[b] * v for b, v in zip(basis, vals))
    total += det * sum(cost[k] * (b if up else -b) for k, (b, up) in enumerate(zip(bound, at_upper))
                     if k not in basic)
    return tuple(Fraction(p, det) for p in pi), Fraction(total, det * scale)


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
