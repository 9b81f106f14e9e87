"""A box is its corners: it agrees with the point-set shape of the same cells
on every operation, it is immutable, and the counting, distance, tiling and
stage layers run on boxes without building a point set."""

from fractions import Fraction
from functools import cached_property
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn.construction import stage_transform
from blockdyn.frequency import freq_table
from blockdyn.group import Shape, folner_box, invariance_ratio, shape_product, translate
from blockdyn.measures import ConvexTarget, block_measure, dist, dist_to_hull
from blockdyn.quasitiling import congruent, greedy_tile, verify
from blockdyn.symbolic import AlphabetStack, Block, Corpus, enumerate_family, sample_bernoulli
from helpers import constant_block


def moved(p, g):
    return tuple(x + y for x, y in zip(p, g))


@st.composite
def box_pairs(draw, dim):
    """(corner box, point-set shape, cells) for one box, empty ones included."""
    lo = [draw(st.integers(-3, 3)) for _ in range(dim)]
    hi = [a + draw(st.integers(-1, 3)) for a in lo]
    cells = frozenset(product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    return Shape.box(lo, hi), Shape(dim, cells), cells


@st.composite
def two_boxes(draw):
    dim = draw(st.integers(1, 3))
    return draw(box_pairs(dim)), draw(box_pairs(dim))


@settings(max_examples=300, deadline=None)
@given(two_boxes(), st.data())
def test_a_corner_box_agrees_with_the_point_set_of_its_cells(pair, data):
    (box, listed, cells), (box2, listed2, cells2) = pair
    dim = box.dim
    assert box == listed and listed == box and hash(box) == hash(listed)
    assert (box == box2) == (listed == listed2) == (box == listed2) == (cells == cells2)
    assert len(box) == len(listed) == len(cells)
    assert box.is_box() == listed.is_box() == bool(cells)
    if cells:
        assert box.bounds() == listed.bounds()
    else:
        for shape in (box, listed):
            with pytest.raises(ValueError):
                shape.bounds()
    probes = [tuple(data.draw(st.integers(-5, 7)) for _ in range(dim)) for _ in range(6)]
    others = [(0,) * (dim + 1), tuple(x + 0.5 for x in probes[0]), tuple(map(float, probes[1]))]
    for p in probes + sorted(cells)[:3] + others:
        assert (p in box) == (p in listed) == (p in cells)
    # both ways, and each box against the other's point set
    for x, y, sx, sy in [
        (box, box2, cells, cells2), (box2, box, cells2, cells), (box, listed2, cells, cells2),
        (listed2, box, cells2, cells), (listed, box2, cells, cells2), (box2, listed, cells2, cells),
    ]:
        assert x.issubset(y) == (sx <= sy)
    assert box.sorted_points == listed.sorted_points == tuple(sorted(cells))
    assert box.index == listed.index == {p: i for i, p in enumerate(sorted(cells))}
    g = probes[0]
    assert translate(box, g) == translate(listed, g) == Shape(dim, {moved(p, g) for p in cells})
    # the products and ratios of two boxes against the point-set definitions
    want = Shape(dim, {moved(p, q) for p in cells for q in cells2})
    assert shape_product(box, box2) == shape_product(listed, listed2) == want
    if not cells:
        for f in (box, listed):
            with pytest.raises(ValueError):
                invariance_ratio(f, box2)
    else:
        ratio = Fraction(len(cells ^ want.points), len(cells))
        assert invariance_ratio(box, box2) == invariance_ratio(listed, listed2) == ratio


def test_box_corners_must_be_integers():
    for lo, hi in [((0.0,), (2,)), ((0,), (2.5,)), ((0, 0), (1, 1.0))]:
        with pytest.raises(TypeError):
            Shape.box(lo, hi)


def test_a_shape_cannot_be_changed():
    for shape in (Shape.box((0, 0), (2, 3)), Shape.of([(0, 0), (2, 5)]), Shape(1, frozenset())):
        before = (shape.dim, len(shape), shape.points)
        for name in ("dim", "points", "sorted_points", "index", "_hash"):
            with pytest.raises(AttributeError):
                setattr(shape, name, None)
            with pytest.raises(AttributeError):
                delattr(shape, name)
        assert (shape.dim, len(shape), shape.points) == before


@pytest.fixture
def built(monkeypatch):
    """The shapes whose points, sorted points or index get built."""
    shapes = []
    for name in ("points", "sorted_points", "index"):
        real = vars(Shape)[name].func

        def record(self, real=real):
            shapes.append(self)
            return real(self)

        prop = cached_property(record)
        prop.__set_name__(Shape, name)
        monkeypatch.setattr(Shape, name, prop)
    return shapes


@pytest.mark.parametrize("dim, side", [(1, 120), (2, 13)])
def test_the_counting_and_distance_layers_build_no_point_set_on_boxes(built, dim, side):
    stack = AlphabetStack((2, 2))
    window = Shape.box((0,) * dim, (side - 1,) * dim)
    probs = [[0.5, 0.5], [0.25, 0.75]]
    blocks = [sample_bernoulli(window, stack, probs, seed=900 + dim * 10 + i) for i in range(3)]
    families = [enumerate_family(Corpus(stack, (blocks[0],)), k) for k in (1, 2)]
    x, *vertices = [block_measure(b, 2) for b in blocks]
    assert sum(freq_table(blocks[0], folner_box(1, dim), 1).values()) == 1
    assert sum(x.marginal(folner_box(1, dim), 1).values()) == 1
    dist(blocks[0], vertices[0], families)
    dist_to_hull(blocks[0], ConvexTarget(tuple(vertices)), families)
    dist_to_hull(x, ConvexTarget(tuple(vertices)), families)
    assert built == []


@pytest.mark.parametrize("dim, side, sides", [(1, 200, (9, 3)), (2, 14, (4, 2))])
def test_the_tiling_and_stage_layers_build_no_point_set_on_boxes(built, dim, side, sides):
    stack = AlphabetStack((2,))
    window = Shape.box((0,) * dim, (side - 1,) * dim)
    coarse_box, fine_box = (Shape.box((0,) * dim, (s - 1,) * dim) for s in sides)
    coarse = greedy_tile(window, [coarse_box], Fraction(1)).tiling
    fine = greedy_tile(window, [fine_box], Fraction(1)).tiling
    assert verify(fine).disjoint
    assert congruent(fine, coarse) in (True, False)
    config = sample_bernoulli(window, stack, [[0.5, 0.5]], seed=7)
    vertices = tuple(
        block_measure(sample_bernoulli(window, stack, [[p, 1 - p]], seed=8), 1)
        for p in map(Fraction, (0.1, 0.9))
    )
    families = [enumerate_family(Corpus(stack, (config,)), 1)]
    reps = {fine_box: constant_block(fine_box, 1, (2,), 1)}
    target = ConvexTarget(vertices)
    out, report = stage_transform(config, fine, target, Fraction(1, 1000), reps, families)
    assert report.changes and out.shape == window
    assert built == []


def test_a_non_tuple_probe_gets_the_same_answer_from_a_box_and_a_point_set():
    shapes = [Shape.interval(0, 0), Shape.box((0, 0), (1, 2)), Shape.of([(0,), (2,)])]
    assert [s.is_box() for s in shapes] == [True, True, False]
    for shape in shapes:
        for probe in ([0], {}, ([0],)):
            with pytest.raises(TypeError):
                probe in shape
        for probe in (0, "a", None):
            assert probe not in shape and probe not in shape.points
