"""A stage is written as records and read as contents.

A stage's change log is written from one template, its tiles are read as
symbol tuples with one ``Block`` per distinct content, and its concatenation
check sums the pattern counts of those contents, where a bare tiling's check
counts each tile's patterns in the window's own symbols.  Each must give
what the plain definitions give.
"""

import copy
import json
import pickle
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn import cli, construction, files, frequency
from blockdyn.construction import (
    ChangeRecord,
    RunResult,
    StageReport,
    TileRecord,
    _concatenation_check,
    _tile_counts,
    apply_changes,
    stage_transform,
    vertex_rep_source,
)
from blockdyn.frequency import embedding_anchors, freq_table
from blockdyn.group import Shape, folner_box, point_add
from blockdyn.measures import (
    ConvexTarget, CylinderMeasure, DistanceInterval, HullDistance, block_measure, dist_to_hull
)
from blockdyn.quasitiling import GreedyTiling, Quasitiling, TilingReport, greedy_tile, verify
from blockdyn.symbolic import (
    AlphabetStack, Block, BlockFamily, Corpus, enumerate_family, sample_bernoulli, subblock_at
)
from blockdyn.verification import SuiteCase, SuiteResult
from helpers import block_from_word, constant_block, decoded, tile_copy_counts
from test_cell_kernel import fake_distance
from test_integer_tables import random_block
from test_stage_passes import FAMILIES, bernoulli_target


@st.composite
def boxes(draw, dim: int, side: int, lo=st.integers(-2, 2)) -> Shape:
    corner = [draw(lo) for _ in range(dim)]
    return Shape.box(corner, [a + draw(st.integers(0, side - 1)) for a in corner])


def block_dict(block: Block) -> dict:
    lo, hi = block.shape.bounds()
    n = len(block)
    rows = [list(block.symbols[r * n : (r + 1) * n]) for r in range(block.depth)]
    return {"min": list(lo), "max": list(hi), "depth": block.depth, "rows": rows}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_templated_change_log_equals_json_dumps(tmp_path_factory, data):
    dim = data.draw(st.integers(1, 3))
    shape = data.draw(boxes(dim, 3))
    sizes = tuple(data.draw(st.integers(2, 3)) for _ in range(data.draw(st.integers(1, 2))))
    index = data.draw(st.integers(0, 3))
    centers = data.draw(
        st.lists(st.tuples(*[st.integers(-50, 50)] * dim), max_size=4)  # an empty stage too
    )
    changes = [
        ChangeRecord(
            center=c,
            shape_index=index,
            before=random_block(data.draw, shape, sizes),
            after=random_block(data.draw, shape, sizes),
        )
        for c in centers
    ]
    path = tmp_path_factory.mktemp("log") / "changes_t1.json"
    files.write_changes(path, changes)
    expected = [
        {
            "center": list(ch.center),
            "shape_index": ch.shape_index,
            "before": block_dict(ch.before),
            "after": block_dict(ch.after),
        }
        for ch in changes
    ]
    assert path.read_text() == json.dumps(expected, sort_keys=True, indent=1) + "\n"


def test_a_change_log_holds_one_tile_shape(tmp_path):
    one, two = Shape.interval(0, 1), Shape.interval(0, 2)
    changes = [
        ChangeRecord((0,), 0, constant_block(one, 1, (2,)), constant_block(one, 1, (2,), 1)),
        ChangeRecord((4,), 1, constant_block(two, 1, (2,)), constant_block(two, 1, (2,), 1)),
    ]
    with pytest.raises(ValueError, match="one tile shape"):
        files.write_changes(tmp_path / "changes.json", changes)
    assert not (tmp_path / "changes.json").exists()


@st.composite
def tilings(draw, window: Shape) -> Quasitiling:
    """A greedy grid, a hand-built grid with gaps and missing tiles, or a
    point-set shape at random anchors; tiles may overlap."""
    dim = window.dim
    kind = draw(st.sampled_from(["greedy", "gapped", "points"]))
    if kind == "greedy":
        return greedy_tile(window, [draw(boxes(dim, 4))], Fraction(1)).tiling
    (lo, hi) = window.bounds()
    if kind == "gapped":
        shape = draw(boxes(dim, 3))
        (slo, shi) = shape.bounds()
        axes = []
        for a, b, c, d in zip(lo, hi, slo, shi):
            step = d - c + 1 + draw(st.integers(0, 2))
            first = a - c + draw(st.integers(0, 2))
            axes.append(range(first, b - d + 1, step))
        cents = [g for g in product(*axes) if draw(st.integers(0, 3))]
        return Quasitiling(window, (shape,), (frozenset(cents),))
    box = Shape.box([0] * dim, [2] * dim)
    pts = draw(st.lists(st.sampled_from(box.sorted_points), min_size=1, max_size=6, unique=True))
    shape = Shape.of(pts)
    fits = [
        g for g in window.sorted_points
        if all(tuple(x + y for x, y in zip(p, g)) in window.points for p in shape.points)
    ]
    cents = draw(st.lists(st.sampled_from(fits), max_size=5, unique=True)) if fits else []
    return Quasitiling(window, (shape,), (frozenset(cents),))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_read_tile_counts_equal_tile_copies(data):
    dim = data.draw(st.integers(1, 3))
    window = data.draw(boxes(dim, {1: 14, 2: 7, 3: 4}[dim], lo=st.integers(-3, 3)))
    sizes = tuple(data.draw(st.integers(2, 3)) for _ in range(data.draw(st.integers(1, 2))))
    config = random_block(data.draw, window, sizes)
    level = data.draw(st.integers(1, len(sizes)))
    tiling = data.draw(tilings(window))
    base = folner_box(1, dim)
    got = _tile_counts(config, tiling, base, level)
    assert [(n, decoded(c, sizes[:level], len(base))) for n, c in got] == tile_copy_counts(
        config, tiling, base, level
    )


def test_window_read_tile_counts_mix_box_and_point_set_shapes():
    window = Shape.box((0, 0), (7, 7))
    rng = random.Random(3)
    config = Block(window, 1, (3,), tuple(rng.randrange(3) for _ in range(len(window))))
    notched = Shape.of([p for p in product(range(4), repeat=2) if p != (3, 3)])
    tiling = Quasitiling(
        window,
        (Shape.box((0, 0), (3, 3)), notched, Shape.box((0, 0), (2, 2))),
        (frozenset({(0, 0), (4, 4)}), frozenset({(4, 0), (0, 4)}), frozenset()),
    )
    base = folner_box(1, 2)
    got = _tile_counts(config, tiling, base, 1)
    assert [(n, decoded(c, (3,), 9)) for n, c in got] == tile_copy_counts(config, tiling, base, 1)
    assert [n for n, _ in got] == [4, 3, 0]
    assert [sum(c.values()) for _, c in got] == [8, 6, 0]


@pytest.mark.parametrize(
    "window, shape, centers",
    [
        (Shape.interval(0, 19), Shape.of([(x,) for x in (0, 1, 2, 3, 5)]), {(8,), (14,)}),
        (
            Shape.box((0, 0), (7, 7)),
            Shape.of([p for p in product(range(4), repeat=2) if p != (3, 3)]),
            {(4, 0), (0, 4)},
        ),
    ],
    ids=["gapped-1d", "notched-2d"],
)
def test_tile_counts_enumerate_a_non_box_shapes_anchors_once(monkeypatch, window, shape, centers):
    calls = []

    def counted(outer, inner):
        calls.append(outer)
        return embedding_anchors(outer, inner)

    monkeypatch.setattr(frequency, "embedding_anchors", counted)
    rng = random.Random(7)
    config = Block(window, 1, (3,), tuple(rng.randrange(3) for _ in range(len(window))))
    box = Shape.box((0,) * window.dim, (3,) * window.dim)
    tiling = Quasitiling(window, (box, shape), (frozenset({(0,) * window.dim}), frozenset(centers)))
    base = folner_box(1, window.dim)
    got = _tile_counts(config, tiling, base, 1)
    assert calls == [shape]
    assert [(n, decoded(c, (3,), len(base))) for n, c in got] == tile_copy_counts(
        config, tiling, base, 1
    )


@st.composite
def stage_tilings(draw, window: Shape) -> Quasitiling:
    """A disjoint tiling: one of ``tilings``, keeping tiles in center order
    while they miss the kept ones, or a greedy tiling by a box and a
    point-set shape."""
    if draw(st.booleans()):
        tiling = draw(tilings(window))
        (shape,) = tiling.shapes
        kept, cells = [], set()
        for c in sorted(tiling.centers[0]):
            tile = {point_add(p, c) for p in shape.points}
            if not tile & cells:
                kept.append(c)
                cells |= tile
        return Quasitiling(window, (shape,), (frozenset(kept),))
    dim = window.dim
    box = Shape.box([0] * dim, [2] * dim)
    pts = draw(st.lists(st.sampled_from(box.sorted_points), min_size=1, max_size=6, unique=True))
    return greedy_tile(window, [draw(boxes(dim, 3)), Shape.of(pts)], Fraction(1)).tiling


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_stage_sums_its_memo_to_the_counts_of_the_window_scan(data):
    dim = data.draw(st.integers(1, 3))
    window = data.draw(boxes(dim, {1: 14, 2: 7, 3: 4}[dim], lo=st.integers(-3, 3)))
    sizes = tuple(data.draw(st.integers(2, 3)) for _ in range(data.draw(st.integers(1, 2))))
    tiling = data.draw(stage_tilings(window))
    # Now and then the configuration lies on a box one cell wider.
    wider = data.draw(st.integers(0, 4)) == 0
    lo, hi = window.bounds()
    config = random_block(data.draw, Shape.box(lo, [h + wider for h in hi]), sizes)
    k = data.draw(st.integers(1, len(sizes)))
    reps = {s: random_block(data.draw, s, sizes[:k]) for s in tiling.shapes}
    tiles = tiling.tiles()
    if tiles and data.draw(st.booleans()):
        # A representative with the content of one of its shape's tiles.
        c, i = data.draw(st.sampled_from(tiles))
        reps[tiling.shapes[i]] = subblock_at(config, tiling.shapes[i], c, k)
    # The distances lie in [0, 1], so -1 replaces every tile and 1 none.
    delta = data.draw(st.sampled_from([Fraction(-1), Fraction(1, 3), Fraction(2, 3), Fraction(1)]))
    sums = []

    def check(config, tiling, report, tile_counts):
        sums.append(tile_counts)
        return _concatenation_check(config, tiling, report, tile_counts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construction, "dist_to_hull", lambda block, *_: fake_distance(block))
        mp.setattr(construction, "_concatenation_check", check)
        out, report = stage_transform(config, tiling, SimpleNamespace(depth=1), delta, reps, [])
    if delta < 0:
        assert len(report.changes) == len(tiles)
    if delta == 1:
        assert not report.changes
    if wider:
        assert report.concat_deviation is None and report.concat_bound is None and not sums
        return
    base = folner_box(1, dim)
    assert (report.concat_deviation, report.concat_bound) == _concatenation_check(
        out, tiling, verify(tiling), _tile_counts(out, tiling, base, 1)
    )
    assert [(n, decoded(c, sizes[:1], len(base))) for n, c in sums[0]] == tile_copy_counts(
        out, tiling, base, 1
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_a_stage_of_run_is_one_pass(dim):
    window = Shape.box((0,) * dim, ((26, 8)[dim - 1],) * dim)
    config = sample_bernoulli(window, STACK, [[Fraction(1, 2)] * 2], seed=5)
    f1 = folner_box(1, dim)
    target = ConvexTarget(tuple(
        CylinderMeasure(1, f1, {constant_block(f1, 1, (2,), s): Fraction(1)}) for s in (0, 1)
    ))
    families = [enumerate_family(Corpus(STACK, (config,)), 1)]
    schedule = files.StageSchedule.geometric(dim, Fraction(1, 2), [1, 1], [1, 4], [3, 9])
    source = vertex_rep_source(target, 0, seed=3, count=2, sizes=STACK.sizes)
    verified, per_stage = [], []

    def counted(*args):
        verified.append(args)
        return verify(*args)

    def stage(*args):
        before = len(verified)
        result = stage_transform(*args)
        per_stage.append(len(verified) - before)
        return result

    def rereads(*args):
        raise AssertionError("a stage reads the window again")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construction, "verify", counted)
        mp.setattr(construction, "stage_transform", stage)
        mp.setattr(construction, "apply_changes", rereads)
        mp.setattr(construction, "_tile_counts", rereads)
        result = construction.run(config, schedule, target, families, source)
    assert per_stage == [1, 1]
    assert any(report.changes for report in result.stages)
    current = config
    for report in result.stages:
        assert report.concat_deviation is not None
        out = apply_changes(current, report.changes)
        assert apply_changes(out, report.changes, undo=True) == current
        current = out
    assert current == result.final


@pytest.mark.parametrize("dim", [1, 2])
def test_a_run_keeps_the_window_distance_before_and_after_each_stage(tmp_path, dim):
    window = Shape.box((0,) * dim, ((26, 8)[dim - 1],) * dim)
    config = sample_bernoulli(window, STACK, [[Fraction(1, 4), Fraction(3, 4)]], seed=6)
    f1 = folner_box(1, dim)
    target = ConvexTarget(tuple(
        CylinderMeasure(1, f1, {constant_block(f1, 1, (2,), s): Fraction(1)}) for s in (0, 1)
    ))
    families = [enumerate_family(Corpus(STACK, (config,)), 1)]
    schedule = files.StageSchedule.geometric(dim, Fraction(1, 2), [1, 1], [1, 4], [3, 9])
    source = vertex_rep_source(target, 0, seed=3, count=2, sizes=STACK.sizes)
    result = construction.run(config, schedule, target, families, source)
    outputs = [config]
    for report in result.stages:
        outputs.append(apply_changes(outputs[-1], report.changes))
    assert outputs[-1] == result.final and len(set(outputs)) > 1
    assert len(result.window_distances) == len(result.stages) + 1 == 3
    assert list(result.window_distances) == [
        dist_to_hull(block_measure(block, target.depth), target, families) for block in outputs
    ]
    cfg = SimpleNamespace(content_hash=lambda: "0", schedule=schedule, stack=STACK)
    cli._write_run(tmp_path, cfg, result)
    header, *rows = [
        line.split(",") for line in (tmp_path / "stages.csv").read_text().splitlines()
    ]
    before, after = header.index("window_lower_before"), header.index("window_lower_after")
    assert [(row[before], row[after]) for row in rows] == [
        (files.frac_str(a.value), files.frac_str(b.value))
        for a, b in zip(result.window_distances, result.window_distances[1:])
    ]


def test_no_tile_shape_with_an_anchor_gives_no_average():
    # Side-2 tiles hold no copy of F_1 = [-1, 1], so there is no average;
    # an empty one would give the largest window frequency, 1/6 here.
    config = block_from_word("aaabbbab")
    two = Shape.interval(0, 1)
    tiling = greedy_tile(config.shape, [two], Fraction(1)).tiling
    base = folner_box(1, 1)
    assert _tile_counts(config, tiling, base, 1) == [(0, {})]
    assert _concatenation_check(
        config, tiling, verify(tiling), _tile_counts(config, tiling, base, 1)
    ) == (None, None)
    rep = constant_block(two, 1, (2,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construction, "dist_to_hull", lambda block, *_: fake_distance(block))
        _, report = stage_transform(config, tiling, SimpleNamespace(depth=1), 0, {two: rep}, [])
    assert report.changes and report.tiles
    assert (report.concat_deviation, report.concat_bound) == (None, None)


def test_equal_tile_contents_share_one_block_and_one_solve(monkeypatch):
    calls = []

    def counted(x, target, families):
        calls.append(x)
        return dist_to_hull(x, target, families)

    monkeypatch.setattr(construction, "dist_to_hull", counted)
    target, families = bernoulli_target(), FAMILIES
    rng = random.Random(8)
    window = Shape.interval(0, 87)
    shapes = (Shape.interval(0, 2), Shape.interval(0, 4))
    # Tiles of side 3 at 8 k and of side 5 at 8 k + 3, and a few words of
    # length 8, so that contents repeat.
    words = [tuple(rng.randrange(2) for _ in range(8)) for _ in range(4)]
    alternating = (range(0, 88, 8), range(3, 88, 8))
    shared = both = 0
    for n in range(20):
        config = Block(window, 1, (2,), tuple(x for _ in range(11) for x in rng.choice(words)))
        if n % 2:
            tiling = greedy_tile(window, [shapes[0]], Fraction(1)).tiling
        else:
            tiling = Quasitiling(window, shapes, tuple(
                frozenset((c,) for c in cents if rng.random() < 0.8) for cents in alternating
            ))
        reps = {s: Block(s, 1, (2,), tuple(rng.randrange(2) for _ in s.points)) for s in shapes}
        delta = rng.choice([Fraction(1, 40), Fraction(1, 20), Fraction(1, 10)])
        calls.clear()
        out, report = stage_transform(config, tiling, target, delta, reps, families)

        # One solve per distinct (shape index, content), plus one per shape
        # whose representative's content is not among its tiles'.
        contents = {
            (i, subblock_at(config, tiling.shapes[i], c, 1).symbols) for c, i in tiling.tiles()
        }
        extra = {(ch.shape_index, ch.after.symbols) for ch in report.changes} - contents
        assert len(calls) == len(contents) + len(extra)
        # Equal contents share one Block.
        blocks = {}
        for ch in report.changes:
            assert blocks.setdefault((ch.shape_index, ch.before.symbols), ch.before) is ch.before
            assert ch.before == subblock_at(config, tiling.shapes[ch.shape_index], ch.center, 1)
        shared += len(report.changes) - len(blocks)
        both += len({i for i, _ in blocks}) == 2
        assert apply_changes(out, report.changes, undo=True) == config
    assert shared > 50 and both >= 3, (shared, both)


ONE = Shape.interval(0, 1)
A, B = constant_block(ONE, 1, (2,)), constant_block(ONE, 1, (2,), 1)
STACK = AlphabetStack((2,))
MU, NU, WIDE = (
    CylinderMeasure(1, folner_box(n, 1), {constant_block(folner_box(n, 1), 1, (2,), s): 1})
    for n, s in ((1, 0), (1, 1), (2, 0))
)
STAGE = files.Stage(1, Fraction(1, 2), Fraction(1, 1000), 1, 1, 3)
COARSE = files.Stage(2, Fraction(1, 4), Fraction(1, 2000), 1, 1, 9)
NO_HASH = "unhashable"  # hash() raises TypeError, as it did for the dataclass
TILE = TileRecord((1,), 0, Fraction(1, 3), True)
FOUR = Shape.interval(0, 3)
TILING = Quasitiling(FOUR, (ONE,), (frozenset({(0,), (2,)}),))
# A report with empty tile and change lists hashes, as the dataclass did.
REPORT = (
    Fraction(1, 1000), 1, Fraction(1), Fraction(1, 3), Fraction(0), (), (), Fraction(1, 7), None,
)
OTHER_REPORT = (
    Fraction(1, 2000), 2, Fraction(1, 2), Fraction(1, 6), Fraction(1, 9), (TILE,),
    (ChangeRecord((1,), 0, A, B),), None, Fraction(1),
)
NEAR, FAR = (HullDistance(d, (Fraction(1),), Fraction(1, 8)) for d in (Fraction(0), Fraction(1)))
CASE = SuiteCase("triple-0", Fraction(1, 3), Fraction(1, 2), False)


def config_fields(**changes) -> tuple:
    fields = dict(
        path=Path("c.json"), raw={"dim": 1}, dim=1, stack=STACK, window=Shape.interval(0, 3),
        corpus_paths=(Path("a.json"),), vertex_paths=(), schedule=None, seed=7,
    )
    return tuple(dict(fields, **changes).values())


def one_other(values: tuple, others: tuple) -> list[tuple]:
    """``values`` with one field replaced by its entry in ``others``, for
    each field in turn."""
    return [(*values[:k], other, *values[k + 1 :]) for k, other in enumerate(others)]


# Per record class: field values, unequal field values, whether it is
# hashable and read-only, and constructor arguments it refuses with their
# messages.  TileRecord and ChangeRecord are made once per tile, so they
# stay writable and unhashable.  Every other class was a frozen dataclass,
# except BlockFamily, a plain class that compares its keys by value.
RECORDS = [
    (TileRecord, ((1,), 0, Fraction(1, 3), True),
     one_other(((1,), 0, Fraction(1, 3), True), ((2,), 1, Fraction(1, 2), False)),
     NO_HASH, False, []),
    (ChangeRecord, ((1,), 0, A, B), one_other(((1,), 0, A, B), ((2,), 1, B, A)),
     NO_HASH, False, []),
    (AlphabetStack, ((2, 3),), [((2,),)], True, True, [
        (((),), "stack needs at least one row"),
        (((2, 0),), "alphabet sizes must be positive"),
    ]),
    (Block, (ONE, 1, (2,), (0, 1)), [
        (Shape.interval(5, 6), 1, (2,), (0, 1)),
        (ONE, 2, (2, 2), (0, 1, 1, 1)),
        (ONE, 1, (3,), (0, 1)),
        (ONE, 1, (2,), (1, 0)),
    ], True, True, [
        ((ONE, -1, (), ()), "depth must be non-negative"),
        ((ONE, 1, (), (0, 1)), "one alphabet size per row is required"),
        ((ONE, 1, (2,), (0,)), "entry count does not match shape x depth"),
        ((ONE, 1, (2,), (0, 2)), "row 1 entry outside alphabet of size 2"),
    ]),
    (Corpus, (STACK, (A,)), [
        (AlphabetStack((3,)), (constant_block(ONE, 1, (3,)),)),
        (STACK, (A, B)),
    ], True, True, [
        ((STACK, (A, constant_block(Shape.box((0, 0), (1, 1)), 1, (2,)))),
         "corpus blocks must share a dimension"),
        ((AlphabetStack((3,)), (A,)), "corpus block does not carry the full stack"),
    ]),
    (DistanceInterval, (Fraction(1, 4), Fraction(1, 2), (Fraction(1, 2),)), one_other(
        (Fraction(1, 4), Fraction(1, 2), (Fraction(1, 2),)), (Fraction(1, 8), Fraction(1, 4), ())
    ), True, True, []),
    (ConvexTarget, ((MU, NU),), [((NU, MU),), ((MU,),)], NO_HASH, True, [
        (((),), "a convex target needs at least one vertex"),
        (((MU, MU),), "vertices must be distinct"),
        (((MU, WIDE),), "vertices live on different bases"),
    ]),
    (HullDistance, (Fraction(1, 3), (Fraction(1),), Fraction(1, 2)), one_other(
        (Fraction(1, 3), (Fraction(1),), Fraction(1, 2)), (Fraction(1, 5), (), Fraction(1, 4))
    ), True, True, []),
    (files.ExperimentConfig, config_fields(), one_other(config_fields(), config_fields(
        path=Path("d.json"), raw={}, dim=2, stack=AlphabetStack((3,)), window=ONE,
        corpus_paths=(), vertex_paths=(Path("v.json"),),
        schedule=files.StageSchedule(1, (STAGE,)), seed=None,
    )), NO_HASH, True, []),
    (files.Stage, (1, Fraction(1, 2), Fraction(1, 20), 1, 1, 3), one_other(
        (1, Fraction(1, 2), Fraction(1, 20), 1, 1, 3),
        (2, Fraction(1, 3), Fraction(1, 30), 2, 2, 9),
    ), True, True, [
        ((1, Fraction(1, 2), Fraction(1, 20), 0, 1, 3),
         "depth, tile side and Folner index must be positive"),
        ((1, Fraction(0), Fraction(1, 20), 1, 1, 3), "eps and delta must be positive"),
    ]),
    (files.StageSchedule, (1, (STAGE, COARSE)), [(2, (STAGE, COARSE)), (1, (STAGE,))],
     True, True, [
        ((1, ()), "a schedule needs at least one stage"),
        ((1, (COARSE, STAGE)), "eps must be strictly decreasing"),
        ((1, (files.Stage(1, Fraction(1, 2), Fraction(1, 3), 1, 1, 3),)),
         "stage 1: delta 1/3 too large for eps 1/2"),
        ((1, (STAGE, files.Stage(2, Fraction(1, 4), Fraction(1, 2000), 1, 1, 4))),
         "tile sides must coarsen by integer multiples"),
    ]),
    (StageReport, REPORT, one_other(REPORT, OTHER_REPORT), True, True, []),
    (RunResult, (A, B, (StageReport(*REPORT),), (FAR, NEAR)), one_other(
        (A, B, (StageReport(*REPORT),), (FAR, NEAR)), (B, A, (), (NEAR,))
    ), True, True, []),
    (Quasitiling, (FOUR, (ONE,), (frozenset({(0,), (2,)}),)), one_other(
        (FOUR, (ONE,), (frozenset({(0,), (2,)}),)),
        (Shape.interval(0, 4), (Shape.interval(0, 0),), (frozenset({(0,)}),)),
    ), True, True, [
        ((FOUR, (ONE,), ()), "one center set per shape is required"),
        ((FOUR, (Shape.box((0, 0), (1, 1)),), (frozenset(),)),
         "shape dimension differs from the window"),
        ((FOUR, (Shape(1, ()),), (frozenset(),)), "empty tile shape"),
    ]),
    (TilingReport, (True, Fraction(1), (Fraction(1, 2),)), one_other(
        (True, Fraction(1), (Fraction(1, 2),)), (False, Fraction(3, 4), ())
    ), True, True, []),
    (GreedyTiling, (TILING, Fraction(1), True), one_other(
        (TILING, Fraction(1), True),
        (Quasitiling(FOUR, (ONE,), (frozenset({(0,)}),)), Fraction(1, 2), False),
    ), True, True, []),
    (SuiteCase, ("triple-0", Fraction(1, 3), Fraction(1, 2), False), one_other(
        ("triple-0", Fraction(1, 3), Fraction(1, 2), False),
        ("triple-1", Fraction(1, 4), None, True),
    ), True, True, []),
    (SuiteResult, ("metric axioms", (CASE,)), [("other", (CASE,)), ("metric axioms", ())],
     True, True, []),
    (BlockFamily, (1, ONE, (2,), (0, 3)), [
        (1, Shape.interval(1, 2), (2,), (0, 3)), (1, ONE, (2,), (0, 2)), (1, ONE, (3,), (0, 3)),
    ], NO_HASH, True, [
        ((2, ONE, (2,), ()), "one alphabet size per row is required"),
        ((1, ONE, (2,), (3, 0)), "family members must be distinct and sorted"),
        ((1, ONE, (2,), (4,)),
         "family member with wrong domain or outside the alphabet: codes lie in 0..3"),
    ]),
]


def public_fields(cls: type) -> list[str]:
    return [n for n in cls.__slots__ if not n.startswith("_")]


def test_records_compare_by_value_and_keep_their_constructor_and_repr():
    for cls, values, others, hashable, read_only, refused in RECORDS:
        fields = public_fields(cls)
        record = cls(*values)
        assert record == cls(**dict(zip(fields, values)))
        assert tuple(getattr(record, f) for f in fields) == values
        for other in others:
            assert record != cls(*other)
        assert record != values
        assert copy.deepcopy(record) == record
        items = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(record) == f"{cls.__name__}({items})"
        if hashable is NO_HASH:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            # a frozen dataclass hashes the tuple of its fields
            assert hash(record) == hash(cls(*values)) == hash(values)
        if read_only:
            with pytest.raises(AttributeError):
                setattr(record, fields[0], others[0][0])
            with pytest.raises(AttributeError):
                delattr(record, fields[0])
            assert getattr(record, fields[0]) == values[0]
        for args, message in refused:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cls(*args)
    assert repr(TileRecord((1,), 0, Fraction(1, 3), True)) == (
        "TileRecord(center=(1,), shape_index=0, distance_lower=Fraction(1, 3), replaced=True)"
    )
    assert repr(AlphabetStack((2, 3))) == "AlphabetStack(sizes=(2, 3))"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: HullDistance(Fraction(1), ()),
         "HullDistance.__init__() missing 1 required positional argument: 'tail'"),
        (lambda: SuiteCase(name="c", bound=None), "SuiteCase.__init__() missing 2 required "
         "positional arguments: 'deviation' and 'violation'"),
        (lambda: StageReport(*REPORT[:5]),
         "StageReport.__init__() missing 4 required positional arguments: "
         "'tiles', 'changes', 'concat_deviation', and 'concat_bound'"),
        (lambda: HullDistance(Fraction(1), (), Fraction(0), Fraction(0)),
         "HullDistance.__init__() takes 4 positional arguments but 5 were given"),
        (lambda: StageReport(*REPORT, None),
         "StageReport.__init__() takes 10 positional arguments but 11 were given"),
        (lambda: HullDistance(Fraction(1), (), Fraction(0), depth=2),
         "HullDistance.__init__() got an unexpected keyword argument 'depth'"),
        (lambda: HullDistance(value=Fraction(1), weights=(), depth=2),
         "HullDistance.__init__() got an unexpected keyword argument 'depth'"),
        (lambda: HullDistance(Fraction(1), (), tail=Fraction(0), value=Fraction(1)),
         "HullDistance.__init__() got multiple values for argument 'value'"),
        (lambda: RunResult(A, B, (), final=B),
         "RunResult.__init__() got multiple values for argument 'final'"),
        (lambda: Quasitiling(FOUR, (ONE,)),
         "Quasitiling.__init__() missing 1 required positional argument: 'centers'"),
        (lambda: Quasitiling(FOUR, (ONE,), (), centers=()),
         "Quasitiling.__init__() got multiple values for argument 'centers'"),
    ],
    ids=[
        "missing", "missing-two", "missing-before-defaults", "too-many", "too-many-defaults",
        "unexpected", "unexpected-among-keywords", "duplicate", "duplicate-keyword",
        "missing-own-init", "duplicate-own-init",
    ],
)
def test_a_record_refuses_a_missing_unexpected_or_repeated_argument(make, message):
    """Each message is the one the parent's dataclass or constructor gave."""
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        make()


def test_a_quasitiling_s_grid_cache_takes_no_part_in_its_value():
    read, unread = (Quasitiling(FOUR, (ONE,), (frozenset({(0,), (2,)}),)) for _ in range(2))
    assert read.grid == (range(0, 3, 2),)
    assert read.grid is read.grid
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
    assert copy.deepcopy(read) == unread
    with pytest.raises(AttributeError):
        read.grid = None
    with pytest.raises(AttributeError):
        read._grid = None
    # a tiling off the greedy grid caches None
    gapped = Quasitiling(FOUR, (ONE,), (frozenset({(0,)}),))
    assert gapped.grid is None and gapped.grid is None


def test_a_count_table_copies_as_a_new_read_only_table():
    table = freq_table(constant_block(Shape.interval(0, 3), 1, (2,)), Shape.interval(0, 1), 1)
    for twin in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert twin == table and twin.total == table.total == 3
        assert dict(twin.counts) == dict(table.counts) and twin.counts is not table.counts
        with pytest.raises(TypeError):
            twin.counts[0] = 1
        with pytest.raises(AttributeError):
            twin.total = 1


WINDOW = Shape.interval(0, 26)


def write_stage(tmp_path, report) -> list[list[str]]:
    """``cli._write_run`` of a one-stage run with this report; the rows of
    its ``stage_t1_tiles.csv``, header first."""
    config = {
        "dim": 1, "alphabet": [2], "window": {"min": [0], "max": [26]},
        "schedule": {"eps1": "1/2", "depths": [1], "folner_indices": [1], "tile_sides": [3]},
    }
    (tmp_path / "config.json").write_text(files.canonical_json(config))
    cfg = files.ExperimentConfig.load(tmp_path / "config.json")
    block = constant_block(WINDOW, 1, (2,))
    cli._write_run(tmp_path / "run", cfg, RunResult(block, block, (report,), (FAR, NEAR)))
    text = (tmp_path / "run" / "stage_t1_tiles.csv").read_text()
    return [line.split(",") for line in text.splitlines()]


def test_equal_distances_of_distinct_contents_are_spelled_by_value(tmp_path, monkeypatch):
    """Distinct contents get equal distances as distinct Fraction objects;
    each row spells its own tile's distance, flagged by d_lower > delta."""

    def shared(block, *_):
        # a new Fraction each call, equal for all contents of one weight
        return HullDistance(Fraction(2 * sum(block.symbols), 6), (), Fraction(0))

    monkeypatch.setattr(construction, "dist_to_hull", shared)
    config = sample_bernoulli(WINDOW, AlphabetStack((2,)), [[0.5, 0.5]], seed=4)
    tiling = greedy_tile(WINDOW, [Shape.interval(0, 2)], Fraction(1)).tiling
    rep = constant_block(Shape.interval(0, 2), 1, (2,))
    delta = Fraction(1, 2)
    target = SimpleNamespace(depth=1)
    _, report = stage_transform(config, tiling, target, delta, {tiling.shapes[0]: rep}, [])
    ds = [t.distance_lower for t in report.tiles]
    assert any(a == b and a is not b for a in ds for b in ds), "no equal distinct objects"
    header, *rows = write_stage(tmp_path, report)
    assert header == ["center", "shape_index", "d_lower", "replaced"]
    assert [r[2] for r in rows] == [files.frac_str(d) for d in ds]
    assert [r[3] for r in rows] == [str(Fraction(r[2]) > delta) for r in rows]
    assert {r[3] for r in rows} == {"True", "False"}


def naive_tile_table(report) -> str:
    """The tile table spelled tile by tile."""
    lines = ["center,shape_index,d_lower,replaced"]
    for t in report.tiles:
        center = "(" + " ".join(str(x) for x in t.center) + ")"
        lines.append(f"{center},{t.shape_index},{files.frac_str(t.distance_lower)},{t.replaced}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(-30, 30)), st.integers(0, 2),
            st.integers(-4, 4), st.integers(1, 6), st.booleans(),
        ),
        max_size=30,
    )
)
def test_the_tile_table_equals_a_naive_per_tile_writer(tmp_path_factory, tiles):
    records = tuple(TileRecord(c, i, Fraction(n, d), f) for c, i, n, d, f in tiles)
    report = StageReport(
        Fraction(1, 2), 1, Fraction(1), Fraction(0), Fraction(0), records, (), None, None
    )
    tmp_path = tmp_path_factory.mktemp("stage")
    write_stage(tmp_path, report)
    assert (tmp_path / "run" / "stage_t1_tiles.csv").read_text() == naive_tile_table(report)
