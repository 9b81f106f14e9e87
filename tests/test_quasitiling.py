import sys
from fractions import Fraction

import pytest

from blockdyn import group, symbolic
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


def test_tiles_are_center_index_pairs_ordered_by_center_then_index():
    # A tile that overlaps another and one that escapes the window.
    t = Quasitiling(
        W10,
        (PAIR, TRIPLE),
        (frozenset({(8,), (0,), (4,), (9,)}), frozenset({(3,), (0,)})),
    )
    tiles = t.tiles()
    assert tiles == [((0,), 0), ((0,), 1), ((3,), 1), ((4,), 0), ((8,), 0), ((9,), 0)]
    tiles.clear()  # a fresh list per call, so a caller cannot change the next
    assert len(t.tiles()) == t.tile_count() == 6
    with pytest.raises(ValueError, match="tile 0 at \\(9,\\) escapes the window"):
        verify(t)
    planar = Quasitiling(
        Shape.box((0, 0), (3, 3)),
        (Shape.box((0, 0), (1, 1)), Shape.of([(0, 0), (1, 1)])),
        (frozenset({(2, 0), (0, 2), (0, 0)}), frozenset({(0, 1), (2, 0)})),
    )
    assert planar.tiles() == [
        ((0, 0), 0), ((0, 1), 1), ((0, 2), 0), ((2, 0), 0), ((2, 0), 1)
    ]


@pytest.mark.parametrize(
    "window",
    [W10, Shape.of([(0,), (1,), (2,), (5,), (6,)]), Shape.box((0, 0), (2, 3))],
    ids=["box", "holes", "planar"],
)
def test_a_tile_that_escapes_its_window_raises_in_verify_and_congruent(window):
    shape = PAIR if window.dim == 1 else Shape.box((0, 0), (0, 1))
    inside = Quasitiling(window, (shape,), (frozenset({(0,) * window.dim}),))
    # The last point of the window plus the shape's second cell leaves it.
    out = Quasitiling(window, (shape,), (frozenset({window.sorted_points[-1]}),))
    with pytest.raises(ValueError, match="escapes the window"):
        verify(out)
    empty = Quasitiling(window, (shape,), (frozenset(),))
    for coarse, fine in ((out, empty), (empty, out), (out, inside), (inside, out)):
        with pytest.raises(ValueError, match="escapes the window"):
            congruent(coarse, fine)
    assert verify(inside).covered_cells == 2 and congruent(inside, inside)


def test_tiling_on_boxes_makes_no_point_add_call(monkeypatch):
    def no_point_add(a, b):
        raise AssertionError("point_add called")

    window = Shape.box((0, 0), (11, 8))
    coarse = greedy_tile(window, [Shape.box((0, 0), (5, 2))], Fraction(1, 2)).tiling
    tiles = coarse.tiles()
    # group and symbolic, and any other module that imports point_add
    for module in list(sys.modules.values()):
        if module.__name__.startswith("blockdyn") and hasattr(module, "point_add"):
            monkeypatch.setattr(module, "point_add", no_point_add)
    assert group.point_add is no_point_add and symbolic.point_add is no_point_add
    fine = greedy_tile(window, [Shape.box((0, 0), (2, 2)), Shape.box((0, 0), (0, 1))],
                       Fraction(1, 2)).tiling
    assert coarse.tiles() == tiles and fine.tiles()
    assert verify(coarse).covered_fraction == 1 and verify(fine).disjoint
    assert congruent(coarse, fine) and not congruent(fine, coarse)
