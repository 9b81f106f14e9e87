"""Independent brute-force oracles.

Everything here is written directly from the defining formulas, with no
code shared with the optimized counting/marginal paths, so that exact
agreement between the two is a meaningful check.  The two gap-bound
calculators live in ``blockdyn.frequency`` and are re-exported here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .frequency import block_measure_gap_bound, tiling_average_gap_bound  # noqa: F401
from .group import Shape, point_add
from .measures import ConvexTarget, CylinderMeasure
from .symbolic import Block, BlockFamily


def oracle_count_embeddings(outer: Shape, inner: Shape) -> int:
    """Naive loop over g in outer testing inner + g within outer."""
    count = 0
    for g in outer.sorted_points:
        if all(point_add(p, g) in outer.points for p in inner.points):
            count += 1
    return count


def oracle_count_occurrences(block: Block, pattern: Block) -> int:
    """Naive double loop: anchors times cell-by-cell comparison."""
    count = 0
    for g in block.shape.sorted_points:
        moved = [(p, point_add(p, g)) for p in pattern.shape.points]
        if any(q not in block.shape.points for _, q in moved):
            continue
        if all(
            block.get(q, r) == pattern.get(p, r)
            for r in range(1, pattern.depth + 1)
            for p, q in moved
        ):
            count += 1
    return count


def oracle_freq(block: Block, pattern: Block) -> Fraction:
    """Occurrences over embeddings, 0 when nothing embeds; naive loops only."""
    total = oracle_count_embeddings(block.shape, pattern.shape)
    if total == 0:
        return Fraction(0)
    return Fraction(oracle_count_occurrences(block, pattern), total)


def oracle_measure_value(measure: CylinderMeasure, pattern: Block) -> Fraction:
    """Mass of a cylinder summed by direct restriction of every support block."""
    total = Fraction(0)
    pts = pattern.shape.sorted_points
    for full, mass in measure.items():
        sub = tuple(
            full.get(p, r) for r in range(1, pattern.depth + 1) for p in pts
        )
        if sub == pattern.symbols:
            total += mass
    return total


def _simplex_grid(m: int, step: Fraction) -> Iterator[tuple[Fraction, ...]]:
    """Rational grid on the m-simplex with the given step."""
    n = int(1 / step)
    if n < 1:
        raise ValueError("step must be at most 1")
    if m == 1:
        yield (Fraction(1),)
        return
    if m == 2:
        for i in range(n + 1):
            w = Fraction(i, n)
            yield (w, 1 - w)
        return
    for i in range(n + 1):
        for j in range(n + 1 - i):
            a, b = Fraction(i, n), Fraction(j, n)
            yield (a, b, 1 - a - b)


def grid_hull_distance(
    x: Block | CylinderMeasure,
    target: ConvexTarget,
    families: Sequence[BlockFamily],
    step: Fraction,
) -> Fraction:
    """Exhaustive-grid oracle for the hull distance, m <= 3 vertices only.

    Evaluates the exact truncated objective at every grid point of the
    weight simplex; the result is >= the true minimum and exceeds it by at
    most the Lipschitz constant (<= 2) times the step.
    """
    m = len(target)
    if m > 3:
        raise ValueError("grid oracle supports at most 3 vertices")
    step = Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    best: Fraction | None = None
    for weights in _simplex_grid(m, step):
        total = Fraction(0)
        for fam in families:
            coeff = Fraction(1, (2**fam.level) * len(fam))
            for b in fam.blocks:
                if isinstance(x, Block):
                    xv = oracle_freq(x, b)
                else:
                    xv = oracle_measure_value(x, b)
                acc = xv
                for w, v in zip(weights, target.vertices):
                    acc -= w * oracle_measure_value(v, b)
                total += coeff * abs(acc)
        if best is None or total < best:
            best = total
    assert best is not None
    return best


def small_instance_suite(seed: int) -> Iterator[tuple[Block, Block]]:
    """Deterministic (block, pattern) pairs, all windows of at most 10^4 cells.

    Mixes hand-picked one-dimensional words, seeded random windows in one
    and two dimensions, and multi-row stacks.
    """
    import random

    from .group import folner_box
    from .symbolic import AlphabetStack, sample_bernoulli

    rng = random.Random(seed)

    def random_pattern(dim: int, level: int, sizes: tuple[int, ...]) -> Block:
        base = folner_box(level, dim)
        symbols = tuple(
            rng.randrange(sizes[r]) for r in range(level) for _ in base.sorted_points
        )
        return Block(base, level, sizes[:level], symbols)

    word = Block(Shape.interval(-3, 3), 1, (2,), (0, 0, 1, 0, 1, 0, 1))
    for pat_syms in [(0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 1)]:
        yield word, Block(Shape.interval(-1, 1), 1, (2,), pat_syms)

    for length, level in [(15, 1), (51, 1), (101, 2), (401, 2)]:
        stack = AlphabetStack((2, 2))
        window = Shape.interval(-(length // 2), length // 2)
        host = sample_bernoulli(
            window, stack, [[0.5, 0.5], [0.5, 0.5]], seed=rng.randrange(2**30)
        )
        for _ in range(3):
            yield host, random_pattern(1, level, (2, 2))

    for half, level in [(5, 1), (8, 1), (15, 1), (8, 2)]:
        stack = AlphabetStack((2, 2))
        window = Shape.box((-half, -half), (half, half))
        host = sample_bernoulli(
            window, stack, [[0.5, 0.5], [0.5, 0.5]], seed=rng.randrange(2**30)
        )
        for _ in range(3):
            yield host, random_pattern(2, level, (2, 2))
