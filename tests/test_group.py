from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn.group import Shape, folner_box, invariance_ratio, shape_product, translate


def test_translate_identity():
    s = Shape.interval(-1, 1)
    assert translate(s, (0,)) == s


def test_translate_interval():
    assert translate(Shape.interval(-1, 1), (2,)) == Shape.interval(1, 3)


def test_translate_planar_box():
    got = translate(Shape.box((-1, -1), (1, 1)), (3, 0))
    assert got == Shape.box((2, -1), (4, 1))


def test_translate_preserves_cardinality():
    s = Shape.of([(0, 0), (2, 5), (-1, 3)])
    assert len(translate(s, (7, -2))) == len(s)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)), min_size=1, max_size=2),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=6),
)
def test_equal_shapes_hash_equal_and_each_shape_hashes_its_points_once(axes, pts):
    lo = [a for a, _ in axes]
    hi = [a + w for a, w in axes]
    box = Shape.box(lo, hi)
    listed = Shape.of(sorted(box.points), dim=len(lo))
    assert box == listed and hash(box) == hash(listed)
    # a shape built from points that happen to fill a box equals that box
    planar = Shape.of(pts, dim=2)
    if planar.points and planar.is_box():
        same = Shape.box(*planar.bounds())
        assert same == planar and hash(same) == hash(planar)
    assert {box: 1}[translate(box, (0,) * box.dim)] == 1
    # the hash is stored on first use, so the kernel's run cache, which
    # hashes both shapes per lookup, rebuilds no tuple
    shape = Shape.of(pts + [(9, 9)])
    assert "_hash" not in vars(shape)
    hash(shape)
    assert vars(shape)["_hash"] == hash(shape)


def test_translate_dimension_mismatch():
    with pytest.raises(ValueError):
        translate(Shape.interval(0, 1), (1, 2))


def test_product_with_identity_singleton():
    f = Shape.of([(0,), (2,), (5,)])
    assert shape_product(Shape.of([(0,)]), f) == f


def test_product_intervals():
    got = shape_product(Shape.interval(-1, 1), Shape.interval(-3, 3))
    assert got == Shape.interval(-4, 4)


def test_product_planar_boxes():
    got = shape_product(Shape.box((-1, -1), (1, 1)), Shape.box((-2, -2), (2, 2)))
    assert got == Shape.box((-3, -3), (3, 3))


def test_invariance_ratio_interval():
    assert invariance_ratio(Shape.interval(-3, 3), Shape.interval(-1, 1)) == Fraction(2, 7)


def test_invariance_ratio_singleton():
    assert invariance_ratio(Shape.interval(-3, 3), Shape.of([(0,)])) == 0


def test_invariance_ratio_planar():
    got = invariance_ratio(Shape.box((-2, -2), (2, 2)), Shape.box((-1, -1), (1, 1)))
    assert got == Fraction(24, 25)


def test_invariance_ratio_empty_errors():
    with pytest.raises(ValueError):
        invariance_ratio(Shape(1, frozenset()), Shape.interval(0, 0))


def test_folner_box_properties():
    for d in (1, 2):
        prev = None
        for n in range(0, 4):
            b = folner_box(n, d)
            assert (0,) * d in b
            assert b == Shape.of([tuple(-c for c in p) for p in b])
            if prev is not None:
                assert prev.issubset(b)
            prev = b
            assert len(b) == (2 * n + 1) ** d


@pytest.mark.parametrize(
    "n, dim, message",
    [(-1, 1, "index must be non-negative"), (-1, 2, "index must be non-negative"),
     (1, 0, "dimension must be >= 1")],
)
def test_folner_box_rejects_a_negative_index_and_a_dimension_below_one(n, dim, message):
    with pytest.raises(ValueError, match=message):
        folner_box(n, dim)


def test_folner_invariance_ratio_decreases_to_zero():
    for d in (1, 2):
        a = folner_box(1, d)
        ratios = [invariance_ratio(folner_box(n, d), a) for n in range(1, 8)]
        assert all(x > y for x, y in zip(ratios, ratios[1:]))
        # eventually below any delta: check a concrete threshold
        assert ratios[-1] < Fraction(1, 2)
