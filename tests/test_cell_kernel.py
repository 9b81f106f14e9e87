"""The cell-addressing kernel against point-by-point references.

Every sub-pattern read (``subblock_at``, ``marginal``) and
write (``apply_changes``) goes through ``symbolic._runs_at``.  The
references below look each cell up by its point in the sorted point list
and share no code with the kernel.  Shapes are boxes and non-boxes in 1-D
to 3-D with negative corners, inner shapes may be empty, depths include 0,
and some translates do not fit.
"""

import random
from fractions import Fraction as F

import pytest

from blockdyn.construction import ChangeRecord, apply_changes
from blockdyn.group import Shape
from blockdyn.measures import CylinderMeasure
from blockdyn.quasitiling import greedy_tile
from blockdyn.symbolic import Block, subblock_at

from helpers import decoded

SIZES = (2, 3, 2)


def moved(p, g):
    return tuple(a + b for a, b in zip(p, g))


def ref_read(block, inner, g, depth):
    """Entries of (inner + g) x rows[1..depth], or None when it does not fit."""
    pts = sorted(block.shape.points)
    cells = [moved(p, g) for p in sorted(inner.points)]
    if any(q not in block.shape.points for q in cells):
        return None
    n = len(pts)
    return tuple(block.symbols[r * n + pts.index(q)] for r in range(depth) for q in cells)


def ref_write(block, changes):
    pts = sorted(block.shape.points)
    n = len(pts)
    symbols = list(block.symbols)
    for ch in changes:
        src = ch.after
        for r in range(src.depth):
            for k, p in enumerate(sorted(src.shape.points)):
                q = moved(p, ch.center)
                symbols[r * n + pts.index(q)] = src.symbols[r * len(src.shape) + k]
    return tuple(symbols)


def random_shape(rng, dim, box):
    lo = [rng.randint(-4, 2) for _ in range(dim)]
    hi = [a + rng.randint(0, 3) for a in lo]
    shape = Shape.box(lo, hi)
    if box:
        return shape
    pts = [p for p in shape.sorted_points if rng.random() < 0.7]
    if not pts:
        pts = [shape.sorted_points[0]]
    return Shape(dim, frozenset(pts))


def random_block(rng, shape, sizes=SIZES):
    symbols = tuple(rng.randrange(s) for s in sizes for _ in range(len(shape)))
    return Block(shape, len(sizes), sizes, symbols)


def cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 3)
        outer = random_shape(rng, dim, box=rng.random() < 0.5)
        if rng.random() < 0.1:
            inner = Shape(dim, frozenset())
        else:
            inner = random_shape(rng, dim, box=rng.random() < 0.5)
        yield rng, random_block(rng, outer), inner


def test_reads_match_the_point_reference():
    fits = misses = 0
    for rng, block, inner in cases(1, 300):
        for _ in range(6):
            g = tuple(rng.randint(-5, 5) for _ in range(block.dim))
            for depth in range(block.depth + 1):
                want = ref_read(block, inner, g, depth)
                got = subblock_at(block, inner, g, depth)
                if want is None:
                    assert got is None
                    misses += 1
                else:
                    assert got == Block(inner, depth, SIZES[:depth], want)
                    fits += 1
    assert fits > 500 and misses > 500


def test_marginal_matches_the_point_reference():
    rng = random.Random(3)
    for _ in range(60):
        dim = rng.randint(1, 3)
        base = random_shape(rng, dim, box=rng.random() < 0.7)
        depth = rng.randint(1, 3)
        sizes = SIZES[:depth]
        support = {random_block(rng, base, sizes) for _ in range(rng.randint(1, 6))}
        weights = [rng.randint(1, 9) for _ in support]
        mu = CylinderMeasure(
            depth, base, {b: F(w, sum(weights)) for b, w in zip(support, weights)}, sizes
        )
        single = Shape(dim, frozenset([base.sorted_points[0]]))
        for e in (base, Shape(dim, frozenset()), single, random_shape(rng, dim, box=False)):
            e = Shape(dim, e.points & base.points)
            for level in range(1, depth + 1):
                want: dict = {}
                for b, m in mu.items():
                    key = ref_read(b, e, (0,) * dim, level)
                    want[key] = want.get(key, 0) + m
                assert decoded(mu.marginal(e, level), sizes[:level], len(e)) == want


def test_apply_changes_round_trip_matches_the_point_reference():
    for rng, config, _ in cases(4, 150):
        changes = []
        taken: set = set()
        for _ in range(4):
            shape = random_shape(rng, config.dim, box=rng.random() < 0.5)
            c = tuple(rng.randint(-3, 3) for _ in range(config.dim))
            cells = {moved(p, c) for p in shape.points}
            depth = rng.randint(0, config.depth)
            before = ref_read(config, shape, c, depth)
            if before is None or cells & taken:
                continue
            taken |= cells
            after = random_block(rng, shape, SIZES[:depth])
            changes.append(
                ChangeRecord(c, 0, Block(shape, depth, SIZES[:depth], before), after)
            )
        out = apply_changes(config, changes)
        assert out.symbols == ref_write(config, changes)
        assert apply_changes(out, changes, undo=True) == config


def test_apply_changes_rejects_a_change_outside_the_configuration():
    config = random_block(random.Random(5), Shape.box((0,), (4,)))
    patch = random_block(random.Random(6), Shape.box((0,), (2,)))
    with pytest.raises(ValueError):
        apply_changes(config, [ChangeRecord((3,), 0, patch, patch)])


def ref_greedy(window, shapes):
    order = sorted(range(len(shapes)), key=lambda i: (-len(shapes[i]), shapes[i].sorted_points))
    occupied: set = set()
    centers = [set() for _ in shapes]
    for i in order:
        for c in sorted(window.points):
            cells = {moved(p, c) for p in shapes[i].points}
            if cells <= window.points and not cells & occupied:
                occupied |= cells
                centers[i].add(c)
    return [frozenset(c) for c in centers], F(len(occupied), len(window))


@pytest.mark.parametrize("seed", range(20))
def test_greedy_tile_on_a_non_box_window_matches_a_point_set_reference(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 2)
    window = Shape(
        dim, frozenset(p for p in Shape.box((-4,) * dim, (5,) * dim) if rng.random() < 0.85)
    )
    shapes = [random_shape(rng, dim, box=rng.random() < 0.5) for _ in range(rng.randint(1, 3))]
    shapes = list({s: None for s in shapes})  # distinct shapes
    result = greedy_tile(window, shapes, F(1, 10))
    centers, covered = ref_greedy(window, shapes)
    assert list(result.tiling.centers) == centers
    assert result.covered_fraction == covered
