"""Seeded verification suites: every bound the library promises is replayed
on exhaustive or randomized instances and reported with its worst slack.

All suites are deterministic for a fixed seed, so their reports can be
byte-compared across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .construction import _concatenation_check, _tile_counts
from .frequency import block_measure_gap_bound, marginal_deviation
from .group import Shape, _Record, folner_box, invariance_ratio
from .measures import CylinderMeasure, block_measure, dist
from .quasitiling import Quasitiling, verify
from .symbolic import AlphabetStack, Block, BlockFamily, Corpus, sample_bernoulli

# Suite sizes: planar windows of the gap suite, tiled instances of the
# tiling suite, measure triples of the metric suite and the atoms of each
# of their measures.
PLANAR_INSTANCES = 200
INSTANCES = 100
TRIPLES = 50
SUPPORT = 8


class SuiteCase(_Record):
    __slots__ = ("name", "deviation", "bound", "violation")
    name: str
    deviation: Fraction
    bound: Fraction | None
    violation: bool

    @property
    def slack(self) -> Fraction | None:
        if self.bound is None:
            return None
        return self.bound - self.deviation


class SuiteResult(_Record):
    __slots__ = ("name", "cases")
    name: str
    cases: tuple[SuiteCase, ...]

    @property
    def violations(self) -> int:
        return sum(1 for c in self.cases if c.violation)

    @property
    def worst_slack(self) -> Fraction | None:
        slacks = [c.slack for c in self.cases if c.slack is not None]
        return min(slacks) if slacks else None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def summary(self) -> str:
        worst = self.worst_slack
        worst_s = "n/a" if worst is None else str(worst)
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name}: {status} ({len(self.cases)} cases, "
            f"{self.violations} violations, worst slack {worst_s})"
        )


def _measure_gap(block: Block, depth: int) -> Fraction:
    """Max |frequency - block-measure marginal| over all levels <= depth."""
    return marginal_deviation(block, block_measure(block, depth), depth)


def block_measure_gap_suite(seed: int, corpus: Corpus | None = None) -> SuiteResult:
    """Frequency-vs-block-measure gap against its bound.

    Exhaustive sweep of all binary one-row blocks on [-3, 3] at level 1,
    seeded random two-dimensional windows [-8, 8]^2 at level 1, and (when a
    depth >= 2 corpus is supplied) corpus blocks at level 2.  When the
    window is so small that delta * |F| >= 1 the bound degenerates to no
    constraint and only the exact-zero level check applies.
    """
    cases = []
    window = Shape.interval(-3, 3)
    f1 = folner_box(1, 1)
    delta = invariance_ratio(window, f1)
    bound = block_measure_gap_bound(delta, len(f1))
    for value in range(2 ** len(window)):
        bits = tuple((value >> i) & 1 for i in range(len(window)))
        block = Block(window, 1, (2,), bits)
        gap = _measure_gap(block, 1)
        cases.append(SuiteCase(f"exhaustive-1d-{value}", gap, bound, gap > bound))

    window2 = Shape.box((-8, -8), (8, 8))
    f1_2 = folner_box(1, 2)
    delta2 = invariance_ratio(window2, f1_2)
    u = delta2 * len(f1_2)
    bound2 = block_measure_gap_bound(delta2, len(f1_2)) if u < 1 else None
    stack = AlphabetStack((2,))
    rng = random.Random(seed)
    for i in range(PLANAR_INSTANCES):
        block = sample_bernoulli(
            window2, stack, [[Fraction(1, 2), Fraction(1, 2)]], seed=rng.randrange(2**30)
        )
        gap = _measure_gap(block, 1)
        violation = gap > bound2 if bound2 is not None else gap > 0
        cases.append(SuiteCase(f"planar-{i}", gap, bound2, violation))

    if corpus is not None and corpus.stack.depth >= 2:
        f2 = folner_box(2, corpus.dim)
        for i, block in enumerate(corpus.blocks):
            delta_c = invariance_ratio(block.shape, f2) + Fraction(1, 1000)
            if delta_c * len(f2) >= 1:
                continue
            bound_c = block_measure_gap_bound(delta_c, len(f2))
            gap = _measure_gap(block, 2)
            cases.append(SuiteCase(f"corpus-{i}", gap, bound_c, gap > bound_c))
    return SuiteResult("block-measure gap bound", tuple(cases))


def _tiled_instance(
    rng: random.Random, side: int, tiles: int
) -> tuple[Block, Quasitiling]:
    """A seeded binary block on a box window, partially tiled by box tiles of
    one side with occasional unit gaps."""
    gaps = [rng.choice([0, 0, 0, 1, 2]) for _ in range(tiles + 1)]
    length = side * tiles + sum(gaps)
    window = Shape.interval(0, length - 1)
    tile_shape = Shape.interval(0, side - 1)
    centers = []
    pos = gaps[0]
    for t in range(tiles):
        centers.append((pos,))
        pos += side + gaps[t + 1]
    tiling = Quasitiling(
        window=window, shapes=(tile_shape,), centers=(frozenset(centers),)
    )
    stack = AlphabetStack((2,))
    block = sample_bernoulli(
        window, stack, [[Fraction(1, 2), Fraction(1, 2)]], seed=rng.randrange(2**30)
    )
    return block, tiling


def tiling_average_gap_suite(seed: int) -> SuiteResult:
    """Host-vs-tile-average frequency gap against its bound.

    Each instance is scored by the concatenation check of the staged run,
    which derives the deficiency from the tiling itself.  A gapped tiling
    has no stage memo, so its tile counts are read from the block.
    """
    cases = []
    rng = random.Random(seed)
    base = folner_box(1, 1)
    for i in range(INSTANCES):
        side = rng.choice([30, 36, 44, 50, 60])
        tiles = rng.randint(2, 6)
        block, tiling = _tiled_instance(rng, side, tiles)
        dev, bound = _concatenation_check(
            block, tiling, verify(tiling), _tile_counts(block, tiling, base, 1)
        )
        assert dev is not None
        violation = bound is None or dev > bound
        cases.append(SuiteCase(f"tiled-{i}", dev, bound, violation))
    return SuiteResult("tiling average gap bound", tuple(cases))


def _random_measure(rng: random.Random, support: int) -> CylinderMeasure:
    """A random depth-2 measure on F_2 x rows[1..2] with exact rational
    masses on ``support`` patterns."""
    base = folner_box(2, 1)
    sizes = (2, 2)
    cells = len(base)
    patterns: set[tuple[int, ...]] = set()
    while len(patterns) < support:
        patterns.add(tuple(rng.randrange(2) for _ in range(cells * 2)))
    weights = [rng.randint(1, 20) for _ in patterns]
    total = sum(weights)
    masses = {
        Block(base, 2, sizes, key): Fraction(w, total)
        for key, w in zip(sorted(patterns), weights)
    }
    return CylinderMeasure(2, base, masses, sizes)


def _families_for(measures: Sequence[CylinderMeasure]) -> list[BlockFamily]:
    """Observed families: the union of the measures' atoms, marginalized."""
    base1 = folner_box(1, 1)
    level1: set[int] = set()
    level2: set[int] = set()
    for m in measures:
        level2.update(m.atoms())
        level1.update(m.marginal(base1, 1).keys())
    return [
        BlockFamily(1, base1, (2,), tuple(sorted(level1))),
        BlockFamily(2, folner_box(2, 1), (2, 2), tuple(sorted(level2))),
    ]


def metric_axioms_suite(seed: int) -> SuiteResult:
    """Exact symmetry, triangle inequality and self-distance of the metric.

    The deviation recorded per case is the largest amount by which an axiom
    fails (0 when all hold).  Every case has bound 0, so its slack is minus
    its deviation: 0 on each passing case, and the summary's worst slack is
    0 when the suite passes.  It does not measure how much room the
    triangle inequality had.
    """
    cases = []
    rng = random.Random(seed)
    for i in range(TRIPLES):
        mu, nu, lam = (_random_measure(rng, SUPPORT) for _ in range(3))
        families = _families_for([mu, nu, lam])
        ab, ba, al, bl, aa = (
            dist(p, q, families)
            for p, q in ((mu, nu), (nu, mu), (mu, lam), (nu, lam), (mu, mu))
        )
        # Symmetry and the triangle inequality per level and for the sums.
        worst = max(
            aa.lower,
            abs(ab.lower - ba.lower),
            al.lower - (ab.lower + bl.lower),
            *(abs(a - b) for a, b in zip(ab.levels, ba.levels)),
            *(c - (a + b) for a, b, c in zip(ab.levels, bl.levels, al.levels)),
        )
        cases.append(SuiteCase(f"triple-{i}", worst, Fraction(0), worst > 0))
    return SuiteResult("metric axioms", tuple(cases))
