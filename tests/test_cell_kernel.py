"""The cell-addressing kernel against point-by-point references.

Every sub-pattern read (``subblock_at``, ``marginal``,
``stage_transform``) and write (``stage_transform``, ``apply_changes``)
goes through the layout that ``symbolic._layout`` gives its pair of
shapes, then one ``at`` per anchor.  The references below look each cell
up by its point in the sorted point list and share no code with the
kernel.  Shapes are boxes and non-boxes in 1-D to 3-D with negative
corners, inner shapes may be empty, depths include 0, and some
translates do not fit.
"""

import random
from fractions import Fraction as F
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn import construction
from blockdyn.construction import ChangeRecord, apply_changes, stage_transform
from blockdyn.group import Shape
from blockdyn.measures import CylinderMeasure
from blockdyn.quasitiling import Quasitiling, greedy_tile
from blockdyn.symbolic import Block, subblock_at

from helpers import decoded, no_layout, switch_layouts

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


def test_a_change_log_of_one_box_at_several_depths_matches_the_point_reference():
    rng = random.Random(7)
    config = random_block(rng, Shape.box((-3, -2), (4, 5)))
    shape = Shape.box((0, 0), (1, 2))
    changes = []
    for c, depth in (((-3, -2), 1), ((0, 0), 3), ((2, 3), 2), ((-1, 3), 1)):
        before = Block(shape, depth, SIZES[:depth], ref_read(config, shape, c, depth))
        changes.append(ChangeRecord(c, 0, before, random_block(rng, shape, SIZES[:depth])))
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


def fake_distance(block):
    """A distance that many contents share, as a new Fraction each call."""
    return SimpleNamespace(value=F(sum(block.symbols) % 4, 3))


@st.composite
def stage_cases(draw):
    """A box window with negative corners, a depth-2 configuration on it or
    on a box one cell shorter on some axis (so that tiles may escape it), and
    a disjoint tiling by boxes: a greedy grid, two greedy boxes, or a
    hand-built grid with gaps and missing tiles."""
    dim = draw(st.integers(1, 3))
    side = {1: 16, 2: 7, 3: 4}[dim]
    lo = [draw(st.integers(-4, 2)) for _ in range(dim)]
    window = Shape.box(lo, [a + draw(st.integers(1, side)) for a in lo])

    def box(most):
        corner = [draw(st.integers(-2, 1)) for _ in range(dim)]
        return Shape.box(corner, [a + draw(st.integers(0, most - 1)) for a in corner])

    kind = draw(st.sampled_from(["greedy", "two", "gapped"]))
    if kind == "greedy":
        tiling = greedy_tile(window, [box(3)], F(1)).tiling
    elif kind == "two":
        tiling = greedy_tile(window, [box(3), box(2)], F(1)).tiling
    else:
        shape = box(3)
        (wlo, whi), (slo, shi) = window.bounds(), shape.bounds()
        axes = [
            range(a - c + draw(st.integers(0, 2)), b - d + 1, d - c + 1 + draw(st.integers(0, 2)))
            for a, b, c, d in zip(wlo, whi, slo, shi)
        ]
        cents = frozenset(g for g in product(*axes) if draw(st.integers(0, 3)))
        tiling = Quasitiling(window, (shape,), (cents,))
    hi = list(window.bounds()[1])
    if draw(st.integers(0, 4)) == 0:
        axis = draw(st.integers(0, dim - 1))
        hi[axis] -= 1
    rng = random.Random(draw(st.integers(0, 2**20)))
    config = random_block(rng, Shape.box(lo, hi), SIZES[:2])
    depth = draw(st.integers(1, 2))
    return config, tiling, {s: random_block(rng, s, SIZES[:depth]) for s in tiling.shapes}


@settings(max_examples=300, deadline=None)
@given(stage_cases(), st.sampled_from([F(1, 100), F(1, 3), F(2, 3)]))
def test_hoisted_stage_reads_and_writes_match_the_point_references(case, delta):
    config, tiling, reps = case
    k = next(iter(reps.values())).depth
    target = SimpleNamespace(depth=1)
    tiles = sorted((c, i) for i, cents in enumerate(tiling.centers) for c in cents)
    contents = [ref_read(config, tiling.shapes[i], c, k) for c, i in tiles]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construction, "dist_to_hull", lambda block, *_: fake_distance(block))
        if None in contents:
            c, i = tiles[contents.index(None)]
            with pytest.raises(ValueError) as err:
                stage_transform(config, tiling, target, delta, reps, [])
            assert str(err.value) == f"tile at {c} escapes the configuration"
            return
        out, report = stage_transform(config, tiling, target, delta, reps, [])
    want_far = [fake_distance(SimpleNamespace(symbols=x)).value > delta for x in contents]
    assert [(t.center, t.shape_index) for t in report.tiles] == tiles
    assert [t.replaced for t in report.tiles] == want_far
    far = [(tile, x) for tile, x, f in zip(tiles, contents, want_far) if f]
    assert [(ch.center, ch.shape_index) for ch in report.changes] == [t for t, _ in far]
    assert [ch.before.symbols for ch in report.changes] == [x for _, x in far]
    assert all(ch.after is reps[tiling.shapes[ch.shape_index]] for ch in report.changes)
    assert out.symbols == ref_write(config, report.changes)
    assert apply_changes(out, report.changes, undo=True) == config
    # A change log that escapes the configuration raises the same message.
    if report.changes:
        ch = report.changes[-1]
        hi, slo = config.shape.bounds()[1], ch.before.shape.bounds()[0]
        past = tuple(h - a + 1 for h, a in zip(hi, slo))
        moved_out = ChangeRecord(past, ch.shape_index, ch.before, ch.after)
        with pytest.raises(ValueError) as err:
            apply_changes(out, [*report.changes, moved_out], undo=True)
        assert str(err.value) == f"change at {moved_out.center} escapes the configuration"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_stages_and_change_logs_make_no_kernel_call(monkeypatch, dim):
    rng = random.Random(dim)
    window = Shape.box((-2,) * dim, (6,) * dim)
    config = random_block(rng, window, SIZES[:2])
    shapes = [Shape.box((0,) * dim, (2,) * dim), Shape.box((-1,) * dim, (0,) * dim)]
    tiling = greedy_tile(window, shapes, F(1)).tiling
    reps = {s: random_block(rng, s, SIZES[:1]) for s in shapes}
    monkeypatch.setattr(construction, "dist_to_hull", lambda block, *_: fake_distance(block))
    target = SimpleNamespace(depth=1)
    with switch_layouts(cells=no_layout):
        out, report = stage_transform(config, tiling, target, F(1, 3), reps, [])
        assert report.changes and len(report.changes) < len(report.tiles)
        assert apply_changes(config, report.changes) == out
        assert apply_changes(out, report.changes, undo=True) == config
        # A tile or a change on a non-box shape still reads through the cell
        # layout.
        notched = Shape(dim, shapes[0].points - {(1,) * dim})
        other = Quasitiling(window, (notched,), (frozenset({(0,) * dim}),))
        patch = random_block(rng, notched, SIZES[:1])
        with pytest.raises(AssertionError, match="layout built"):
            stage_transform(config, other, target, F(1, 3), {notched: patch}, [])
        with pytest.raises(AssertionError, match="layout built"):
            apply_changes(config, [ChangeRecord((0,) * dim, 0, patch, patch)])
