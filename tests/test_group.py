from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn.group import (
    FolnerBox,
    PeriodicSubset,
    Shape,
    banach_density,
    boundary_part,
    folner_box,
    invariance_ratio,
    is_invariant,
    is_tempered_prefix,
    shape_product,
    translate,
)


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


def test_simplified_invariance_test_agrees_when_identity_present():
    # with e in A: F within AF, so |F sym-diff AF| = |AF| - |F| and both
    # tests coincide exactly
    f = Shape.interval(-3, 3)
    a = Shape.interval(-1, 1)
    ratio = invariance_ratio(f, a)
    for delta in [ratio, ratio + Fraction(1, 100), Fraction(1, 2), Fraction(1)]:
        assert is_invariant(f, a, delta) == (ratio < delta)


def test_boundary_part_interval():
    got = boundary_part(Shape.interval(-3, 3), Shape.interval(-1, 1))
    assert got == Shape.of([(-3,), (3,)])


def test_boundary_part_identity_only():
    assert boundary_part(Shape.interval(-3, 3), Shape.of([(0,)])) == Shape(1, frozenset())


def test_boundary_part_planar_perimeter():
    got = boundary_part(Shape.box((0, 0), (4, 4)), Shape.box((-1, -1), (1, 1)))
    assert len(got) == 16
    assert all(p[0] in (0, 4) or p[1] in (0, 4) for p in got)


@settings(max_examples=60, deadline=None)
@given(
    lo=st.integers(-4, 0),
    hi=st.integers(1, 6),
    a_pts=st.sets(st.integers(-2, 2), min_size=1, max_size=4),
)
def test_boundary_cardinality_bound(lo, hi, a_pts):
    # ratio < delta implies |boundary| < delta |A| |F|
    f = Shape.interval(lo, hi)
    a = Shape.of([(x,) for x in a_pts])
    delta = invariance_ratio(f, a) + Fraction(1, 1000)
    bound = delta * len(a) * len(f)
    assert Fraction(len(boundary_part(f, a))) < bound


def test_folner_box_properties():
    for d in (1, 2):
        prev = None
        for n in range(0, 4):
            b = FolnerBox(n, d)
            assert (0,) * d in b.shape
            assert b.shape == Shape.of([tuple(-c for c in p) for p in b.shape])
            if prev is not None:
                assert prev.issubset(b.shape)
            prev = b.shape
            assert len(b) == (2 * n + 1) ** d


def test_folner_invariance_ratio_decreases_to_zero():
    for d in (1, 2):
        a = folner_box(1, d)
        ratios = [invariance_ratio(folner_box(n, d), a) for n in range(1, 8)]
        assert all(x > y for x, y in zip(ratios, ratios[1:]))
        # eventually below any delta: check a concrete threshold
        assert ratios[-1] < Fraction(1, 2)


def test_tempered_boxes_c2():
    boxes = [FolnerBox(n, 1) for n in range(11)]
    assert is_tempered_prefix(boxes, Fraction(2)) is True


def test_tempered_boxes_c1_fails():
    boxes = [FolnerBox(n, 1) for n in range(11)]
    assert is_tempered_prefix(boxes, Fraction(1)) is False


def test_tempered_single_box_vacuous():
    assert is_tempered_prefix([FolnerBox(5, 1)], Fraction(1)) is True


def test_tempered_empty_errors():
    with pytest.raises(ValueError):
        is_tempered_prefix([], Fraction(2))


def test_banach_density_even_integers():
    evens = PeriodicSubset((2,), frozenset({(0,)}))
    probe = Shape.interval(0, 1)
    for n in (1, 2, 3, 7):
        got = banach_density(evens, Shape.interval(-n, n), probe)
        assert got.lower == Fraction(n, 2 * n + 1)
        assert got.upper == Fraction(n + 1, 2 * n + 1)
        assert got.certified


def test_banach_density_full_lattice():
    full = PeriodicSubset.full(2)
    got = banach_density(full, Shape.box((-1, -1), (1, 1)), Shape.box((0, 0), (0, 0)))
    assert got.lower == 1 == got.upper and got.certified


def test_banach_density_empty_set():
    got = banach_density(PeriodicSubset.empty(1), Shape.interval(-2, 2), Shape.interval(0, 0))
    assert got.lower == 0 == got.upper


def test_banach_density_lower_at_most_upper_and_box_independent():
    s = PeriodicSubset((3,), frozenset({(0,), (1,)}))
    probe = Shape.interval(0, 2)
    results = [banach_density(s, Shape.interval(-n, n), probe) for n in (3, 4, 6)]
    for r in results:
        assert r.lower <= r.upper
        assert r.certified
    # exact rationals independent of which box is used once n >= period
    assert len({(r.lower <= s.density <= r.upper) for r in results}) == 1


def test_banach_density_uncertified_probe():
    evens = PeriodicSubset((2,), frozenset({(0,)}))
    got = banach_density(evens, Shape.interval(-2, 2), Shape.of([(0,)]))
    assert not got.certified


def test_is_invariant_without_identity_uses_full_ratio():
    f = Shape.interval(0, 9)
    a = Shape.of([(1,), (2,)])  # no identity
    ratio = invariance_ratio(f, a)
    assert is_invariant(f, a, ratio + Fraction(1, 100))
    assert not is_invariant(f, a, ratio)
