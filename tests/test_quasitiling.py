from fractions import Fraction

import pytest

from blockdyn.group import Shape, folner_box
from blockdyn.quasitiling import (
    Quasitiling,
    congruent,
    decode_symbolic,
    encode_symbolic,
    greedy_tile,
    verify,
)

W10 = Shape.interval(0, 9)
PAIR = Shape.interval(0, 1)
TRIPLE = Shape.interval(0, 2)


def test_verify_perfect_cover():
    t = Quasitiling(W10, (PAIR,), (frozenset({(0,), (2,), (4,), (6,), (8,)}),))
    rep = verify(t)
    assert rep.disjoint and rep.covered_fraction == 1 and rep.unique_representation


def test_verify_partial_cover():
    t = Quasitiling(W10, (TRIPLE,), (frozenset({(0,), (3,), (6,)}),))
    rep = verify(t)
    assert rep.disjoint and rep.covered_fraction == Fraction(9, 10)


def test_verify_overlap_detected():
    t = Quasitiling(W10, (PAIR,), (frozenset({(0,), (1,)}),))
    assert not verify(t).disjoint


def test_verify_escaping_tile_errors():
    t = Quasitiling(W10, (TRIPLE,), (frozenset({(8,)}),))
    with pytest.raises(ValueError):
        verify(t)


def test_verify_reports_invariance_ratios():
    t = Quasitiling(W10, (TRIPLE,), (frozenset({(0,)}),))
    rep = verify(t, folner_box(1, 1))
    assert rep.invariance_ratios == (Fraction(2, 3),)


def test_congruent_containment():
    coarse = Quasitiling(W10, (Shape.interval(0, 3),), (frozenset({(0,), (4,)}),))
    fine = Quasitiling(
        W10, (PAIR,), (frozenset({(0,), (2,), (4,), (6,)}),)
    )
    assert congruent(coarse, fine) is True


def test_congruent_proper_overlap_fails():
    a = Quasitiling(W10, (PAIR,), (frozenset({(0,), (2,)}),))
    b = Quasitiling(W10, (PAIR,), (frozenset({(1,)}),))
    assert congruent(a, b) is False


def test_congruent_empty_vacuous():
    a = Quasitiling(W10, (Shape.interval(0, 3),), (frozenset({(0,)}),))
    b = Quasitiling(W10, (PAIR,), (frozenset(),))
    assert congruent(a, b) is True


def test_congruent_reflexive_for_disjoint():
    t = Quasitiling(W10, (TRIPLE,), (frozenset({(0,), (3,), (6,)}),))
    assert congruent(t, t) is True


def test_congruent_not_symmetric():
    coarse = Quasitiling(W10, (Shape.interval(0, 3),), (frozenset({(0,)}),))
    fine = Quasitiling(W10, (PAIR,), (frozenset({(0,)}),))
    assert congruent(coarse, fine) is True
    assert congruent(fine, coarse) is False


def test_congruent_window_mismatch_errors():
    a = Quasitiling(W10, (PAIR,), (frozenset(),))
    b = Quasitiling(Shape.interval(0, 5), (PAIR,), (frozenset(),))
    with pytest.raises(ValueError):
        congruent(a, b)


def test_greedy_box_division():
    got = greedy_tile(Shape.box((0, 0), (9, 9)), [Shape.box((0, 0), (4, 4))], Fraction(1, 10))
    assert got.tiling.tile_count() == 4
    assert got.covered_fraction == 1
    assert got.reached_target


def test_greedy_trace_interval():
    got = greedy_tile(W10, [TRIPLE], Fraction(1, 10))
    assert sorted(got.tiling.centers[0]) == [(0,), (3,), (6,)]
    assert got.covered_fraction == Fraction(9, 10)


def test_greedy_largest_shape_first():
    got = greedy_tile(W10, [Shape.interval(0, 4), PAIR], Fraction(0))
    assert sorted(got.tiling.centers[0]) == [(0,), (5,)]
    assert got.tiling.centers[1] == frozenset()
    assert got.covered_fraction == 1


def test_greedy_always_disjoint():
    for sides, window in [
        ([3, 2], Shape.interval(0, 16)),
        ([4], Shape.box((0, 0), (10, 10))),
        ([5, 3, 2], Shape.interval(0, 30)),
    ]:
        shapes = [Shape.box((0,) * window.dim, (s - 1,) * window.dim) for s in sides]
        got = greedy_tile(window, shapes, Fraction(1, 2))
        assert verify(got.tiling).disjoint


@pytest.mark.parametrize("length,side", [(10, 2), (10, 3), (12, 4)])
@pytest.mark.parametrize("dim", [1, 2])
def test_greedy_covering_formula(length, side, dim):
    window = Shape.box((0,) * dim, (length - 1,) * dim)
    shape = Shape.box((0,) * dim, (side - 1,) * dim)
    got = greedy_tile(window, [shape], Fraction(1))
    expected = Fraction((side * (length // side)) ** dim, length**dim)
    assert got.covered_fraction == expected


def test_encode_symbolic_alternating():
    t = Quasitiling(W10, (PAIR,), (frozenset({(0,), (2,), (4,), (6,), (8,)}),))
    enc = encode_symbolic(t)
    assert enc.row(1) == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0)
    assert enc.sizes == (2,)


def test_encode_symbolic_empty_centers():
    t = Quasitiling(W10, (PAIR,), (frozenset(),))
    assert set(encode_symbolic(t).row(1)) == {0}


def test_encode_decode_round_trip():
    t = Quasitiling(
        W10,
        (PAIR, TRIPLE),
        (frozenset({(0,), (4,)}), frozenset({(6,)})),
    )
    dec = decode_symbolic(encode_symbolic(t), [PAIR, TRIPLE])
    assert dec.centers == t.centers
    assert dec.window == t.window


def test_greedy_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        greedy_tile(W10, [Shape.box((0, 0), (1, 1))], Fraction(1, 10))


def test_greedy_centers_lie_in_the_window():
    # A shape without the origin: every center is an embedding anchor, so
    # the symbolic encoding keeps every tile.
    shape = Shape.of([(1,), (2,)])
    got = greedy_tile(W10, [shape], Fraction(1))
    assert got.tiling.centers == (frozenset({(0,), (2,), (4,), (6,)}),)
    assert decode_symbolic(encode_symbolic(got.tiling), [shape]) == got.tiling


def test_tiles_are_built_once_as_an_immutable_tuple():
    # A tile that overlaps another and one that escapes the window.
    t = Quasitiling(
        W10,
        (PAIR, TRIPLE),
        (frozenset({(8,), (0,), (4,), (9,)}), frozenset({(3,), (0,)})),
    )
    tiles = t.tiles()
    assert isinstance(tiles, tuple)
    assert t.tiles() is tiles
    expected = sorted(
        (c, i, frozenset((p[0] + c[0],) for p in shape.points))
        for i, (shape, cents) in enumerate(zip(t.shapes, t.centers))
        for c in cents
    )
    assert list(tiles) == expected
    assert tiles[-1] == ((9,), 0, frozenset({(9,), (10,)}))
    with pytest.raises(ValueError, match="escapes the window"):
        verify(t)
