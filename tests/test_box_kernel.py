"""The box-window run kernel against the generic per-point path and the
testkit oracles.

``pattern_counts`` and ``subblock_at`` read a box block by contiguous
slices when both shapes are boxes.  Forcing ``_box_runs`` to return None
runs the generic loop on the same inputs, so the two paths can be
compared key for key, in order.
"""

import random
from fractions import Fraction as F

import pytest

import blockdyn.frequency as frequency
import blockdyn.symbolic as symbolic
from blockdyn.frequency import embedding_anchors, freq_table, pattern_counts
from blockdyn.group import Shape, folner_box, point_add
from blockdyn.measures import CylinderMeasure, dist_block
from blockdyn.symbolic import (
    AlphabetStack,
    Block,
    Corpus,
    _box_runs,
    enumerate_family,
    subblock_at,
)
from blockdyn.testkit import oracle_count_embeddings, oracle_count_occurrences

SIZES = (2, 3, 2)

# (outer lo, outer hi, inner lo, inner hi): 1-D, 2-D and 3-D; off-origin and
# negative corners; unequal sides per axis.
CASES = [
    ((0,), (11,), (-1,), (1,)),
    ((-5,), (3,), (2,), (4,)),
    ((-5,), (3,), (-3,), (-1,)),
    ((4,), (9,), (0,), (0,)),
    ((-2, 3), (4, 6), (-1, 0), (1, 2)),
    ((0, 0), (5, 3), (1, -2), (2, -1)),
    ((-3, -4), (-1, 2), (-1, -1), (0, 1)),
    ((0, -1, 2), (2, 2, 4), (0, 0, 0), (1, 1, 1)),
    ((1, -2, 0), (3, 1, 2), (-1, 0, 1), (0, 2, 1)),
]


def random_block(rng, shape, sizes=SIZES):
    n = len(shape)
    symbols = tuple(rng.randrange(size) for size in sizes for _ in range(n))
    return Block(shape, len(sizes), sizes, symbols)


@pytest.fixture
def generic(monkeypatch):
    """Call a function with the box path switched off."""

    def call(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(frequency, "_box_runs", lambda *a: None)
            m.setattr(symbolic, "_box_runs", lambda *a: None)
            return fn(*args)

    return call


@pytest.mark.parametrize("case", CASES)
def test_box_pattern_counts_match_generic_path_and_oracles(case, generic):
    lo, hi, ilo, ihi = case
    rng = random.Random(str(case))
    block = random_block(rng, Shape.box(lo, hi))
    inner = Shape.box(ilo, ihi)
    assert _box_runs(block.shape, inner, 1) is not None
    anchors = embedding_anchors(block.shape, inner)
    assert len(anchors) == oracle_count_embeddings(block.shape, inner) > 0
    for depth in range(1, block.depth + 1):
        box = pattern_counts(block, inner, depth)
        assert box == generic(pattern_counts, block, inner, depth)
        assert list(box) == list(generic(pattern_counts, block, inner, depth))
        # dict key order is anchor order of first occurrence
        reads = [generic(subblock_at, block, inner, g, depth).symbols for g in anchors]
        assert list(box) == list(dict.fromkeys(reads))
        assert sum(box.values()) == len(anchors)
        for key, count in box.items():
            pattern = Block(inner, depth, SIZES[:depth], key)
            assert count == oracle_count_occurrences(block, pattern)


@pytest.mark.parametrize("case", CASES)
def test_box_subblock_at_matches_generic_path(case, generic):
    lo, hi, ilo, ihi = case
    rng = random.Random(f"sub:{case}")
    block = random_block(rng, Shape.box(lo, hi))
    inner = Shape.box(ilo, ihi)
    # every anchor of the bounding box grown by one on each side, so that
    # reads off every edge are included
    span = Shape.box(
        [a - d - 1 for a, d in zip(lo, ihi)], [b - c + 1 for b, c in zip(hi, ilo)]
    )
    fits = {g for g in span if all(point_add(p, g) in block.shape for p in inner)}
    misses = 0
    for g in span:
        for depth in range(0, block.depth + 1):
            box = subblock_at(block, inner, g, depth)
            assert box == generic(subblock_at, block, inner, g, depth)
            if g not in fits:
                assert box is None
                misses += 1
                continue
            cells = [point_add(p, g) for p in inner.sorted_points]
            assert box.symbols == tuple(
                block.get(q, r) for r in range(1, depth + 1) for q in cells
            )
    assert misses > 0


@pytest.mark.parametrize(
    "outer, inner",
    [
        (((0,), (4,)), ((0,), (6,))),
        (((0, 0), (5, 2)), ((0, 0), (1, 3))),
        (((0, 0, 0), (3, 1, 2)), ((0, 0, 0), (4, 0, 0))),
    ],
)
def test_inner_box_wider_than_block_has_no_anchors(outer, inner, generic):
    block = random_block(random.Random(1), Shape.box(*outer))
    inner = Shape.box(*inner)
    for depth in range(1, block.depth + 1):
        assert pattern_counts(block, inner, depth) == {}
        assert generic(pattern_counts, block, inner, depth) == {}
    for g in block.shape:
        assert subblock_at(block, inner, g, block.depth) is None


def test_non_box_shapes_use_the_generic_path():
    rng = random.Random(5)
    box = Shape.box((0, 0), (4, 3))
    holed = Shape(2, box.points - {(2, 1)})
    diagonal = Shape.of([(0, 0), (1, 1)])
    assert _box_runs(holed, Shape.box((0, 0), (1, 1)), 1) is None
    assert _box_runs(box, diagonal, 1) is None
    for outer, inner in [(holed, Shape.box((0, 0), (1, 1))), (box, diagonal), (holed, diagonal)]:
        block = random_block(rng, outer)
        for depth in range(1, block.depth + 1):
            counts = pattern_counts(block, inner, depth)
            assert sum(counts.values()) == oracle_count_embeddings(outer, inner)
            for key, count in counts.items():
                assert count == oracle_count_occurrences(
                    block, Block(inner, depth, SIZES[:depth], key)
                )
        for g in Shape.box((-2, -2), (5, 4)):
            cells = [point_add(p, g) for p in inner.sorted_points]
            sub = subblock_at(block, inner, g, 2)
            if any(q not in outer for q in cells):
                assert sub is None
            else:
                assert sub.symbols == tuple(block.get(q, r) for r in (1, 2) for q in cells)


def test_dist_block_after_enumerate_family_counts_each_level_once(monkeypatch):
    rng = random.Random(3)
    stack = AlphabetStack((2, 2))
    corpus = Corpus(
        stack,
        tuple(random_block(rng, Shape.box((0, 0), (7, 6)), stack.sizes) for _ in range(2)),
    )
    calls = []
    real = frequency.pattern_counts

    def counting(block, inner, depth):
        calls.append((block, inner, depth))
        return real(block, inner, depth)

    monkeypatch.setattr(frequency, "pattern_counts", counting)
    freq_table.cache_clear()
    families = [enumerate_family(corpus, k) for k in (1, 2)]
    nu = CylinderMeasure(
        2, folner_box(2, 2), {b: F(1, len(families[1])) for b in families[1]}, stack.sizes
    )
    for block in corpus.blocks:
        dist_block(block, nu, families)
    expected = [(b, folner_box(k, 2), k) for k in (1, 2) for b in corpus.blocks]
    assert sorted(calls, key=lambda c: (c[2], corpus.blocks.index(c[0]))) == expected


def test_cached_bounds_and_is_box_equal_a_fresh_computation():
    rng = random.Random(11)
    for _ in range(200):
        dim = rng.randint(1, 3)
        pts = {tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 12))}
        if rng.random() < 0.3:
            lo = [rng.randint(-3, 0) for _ in range(dim)]
            pts = set(Shape.box(lo, [a + rng.randint(0, 2) for a in lo]).points)
        shape = Shape.of(pts)
        lo = tuple(min(p[i] for p in pts) for i in range(dim))
        hi = tuple(max(p[i] for p in pts) for i in range(dim))
        volume = 1
        for a, b in zip(lo, hi):
            volume *= b - a + 1
        for _ in range(2):  # the second call reads the cache
            assert shape.bounds() == (lo, hi)
            assert shape.is_box() == (volume == len(pts))


def test_empty_shape_bounds_still_raise():
    empty = Shape(2, frozenset())
    for _ in range(2):
        with pytest.raises(ValueError):
            empty.bounds()
        assert not empty.is_box()
