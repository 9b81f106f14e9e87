"""Seeded verification suites: every bound the library promises is replayed
on exhaustive or randomized instances and reported with its worst slack.

All suites are deterministic for a fixed seed, so their reports can be
byte-compared across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .construction import _concatenation_check
from .frequency import block_measure_gap_bound, marginal_deviation
from .group import Shape, folner_box, invariance_ratio
from .measures import CylinderMeasure, block_measure, dist, dist_k
from .quasitiling import Quasitiling
from .symbolic import AlphabetStack, Block, BlockFamily, Corpus, sample_bernoulli


@dataclass(frozen=True)
class SuiteCase:
    name: str
    deviation: Fraction
    bound: Fraction | None
    violation: bool

    @property
    def slack(self) -> Fraction | None:
        if self.bound is None:
            return None
        return self.bound - self.deviation


@dataclass
class SuiteResult:
    name: str
    cases: list[SuiteCase] = field(default_factory=list)

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


def block_measure_gap_suite(
    seed: int, corpus: Corpus | None = None, planar_instances: int = 200
) -> SuiteResult:
    """Frequency-vs-block-measure gap against its bound.

    Exhaustive sweep of all binary one-row blocks on [-3, 3] at level 1,
    seeded random two-dimensional windows [-8, 8]^2 at level 1, and (when a
    depth >= 2 corpus is supplied) corpus blocks at level 2.  When the
    window is so small that delta * |F| >= 1 the bound degenerates to no
    constraint and only the exact-zero level check applies.
    """
    result = SuiteResult("block-measure gap bound")
    window = Shape.interval(-3, 3)
    f1 = folner_box(1, 1)
    delta = invariance_ratio(window, f1)
    bound = block_measure_gap_bound(delta, len(f1))
    for value in range(2 ** len(window)):
        bits = tuple((value >> i) & 1 for i in range(len(window)))
        block = Block(window, 1, (2,), bits)
        gap = _measure_gap(block, 1)
        result.cases.append(
            SuiteCase(f"exhaustive-1d-{value}", gap, bound, gap > bound)
        )

    window2 = Shape.box((-8, -8), (8, 8))
    f1_2 = folner_box(1, 2)
    delta2 = invariance_ratio(window2, f1_2)
    u = delta2 * len(f1_2)
    bound2 = block_measure_gap_bound(delta2, len(f1_2)) if u < 1 else None
    stack = AlphabetStack((2,))
    rng = random.Random(seed)
    for i in range(planar_instances):
        block = sample_bernoulli(
            window2, stack, [[0.5, 0.5]], seed=rng.randrange(2**30)
        )
        gap = _measure_gap(block, 1)
        violation = gap > bound2 if bound2 is not None else gap > 0
        result.cases.append(SuiteCase(f"planar-{i}", gap, bound2, violation))

    if corpus is not None and corpus.stack.depth >= 2:
        f2 = folner_box(2, corpus.dim)
        for i, block in enumerate(corpus.blocks):
            delta_c = invariance_ratio(block.shape, f2) + Fraction(1, 1000)
            if delta_c * len(f2) >= 1:
                continue
            bound_c = block_measure_gap_bound(delta_c, len(f2))
            gap = _measure_gap(block, 2)
            result.cases.append(
                SuiteCase(f"corpus-{i}", gap, bound_c, gap > bound_c)
            )
    return result


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
    block = sample_bernoulli(window, stack, [[0.5, 0.5]], seed=rng.randrange(2**30))
    return block, tiling


def tiling_average_gap_suite(seed: int, instances: int = 100) -> SuiteResult:
    """Host-vs-tile-average frequency gap against its bound.

    Each instance is scored by the concatenation check of the staged run,
    which derives the deficiency from the tiling itself.
    """
    result = SuiteResult("tiling average gap bound")
    rng = random.Random(seed)
    for i in range(instances):
        side = rng.choice([30, 36, 44, 50, 60])
        tiles = rng.randint(2, 6)
        block, tiling = _tiled_instance(rng, side, tiles)
        dev, bound = _concatenation_check(block, tiling)
        assert dev is not None
        violation = bound is None or dev > bound
        result.cases.append(SuiteCase(f"tiled-{i}", dev, bound, violation))
    return result


def _random_measure(rng: random.Random, support: int = 8) -> CylinderMeasure:
    """A random depth-2 measure on F_2 x rows[1..2] with exact rational masses."""
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
    level1: set[tuple[int, ...]] = set()
    level2: set[tuple[int, ...]] = set()
    for m in measures:
        level2.update(m.atoms())
        level1.update(m.marginal(base1, 1).keys())
    return [
        BlockFamily(1, base1, (2,), tuple(sorted(level1))),
        BlockFamily(2, folner_box(2, 1), (2, 2), tuple(sorted(level2))),
    ]


def metric_axioms_suite(seed: int, triples: int = 50) -> SuiteResult:
    """Exact symmetry, triangle inequality and self-distance of the metric.

    The deviation recorded per case is the largest amount by which an axiom
    fails (0 when all hold); the bound is 0, so slack reports how much
    triangle-inequality room the instances actually had is not meaningful
    and is omitted.
    """
    result = SuiteResult("metric axioms")
    rng = random.Random(seed)
    for i in range(triples):
        mu, nu, lam = (_random_measure(rng) for _ in range(3))
        families = _families_for([mu, nu, lam])
        worst = Fraction(0)
        for fam in families:
            ab = dist_k(mu, nu, fam)
            ba = dist_k(nu, mu, fam)
            worst = max(worst, abs(ab - ba))
            tri = dist_k(mu, lam, fam) - (ab + dist_k(nu, lam, fam))
            worst = max(worst, tri)
        self_d = dist(mu, mu, families).lower
        worst = max(worst, self_d)
        d_ab = dist(mu, nu, families).lower
        d_ba = dist(nu, mu, families).lower
        worst = max(worst, abs(d_ab - d_ba))
        tri_full = dist(mu, lam, families).lower - (
            d_ab + dist(nu, lam, families).lower
        )
        worst = max(worst, tri_full)
        result.cases.append(
            SuiteCase(f"triple-{i}", worst, Fraction(0), worst > 0)
        )
    return result
