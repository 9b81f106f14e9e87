import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import constant_block, no_layout, switch_layouts
from test_stage_passes import pairwise_congruent, tile_cells

from blockdyn import construction, group, symbolic
from blockdyn.construction import run, sample_from_measure, vertex_rep_source
from blockdyn.files import StageSchedule
from blockdyn.group import Shape, folner_box
from blockdyn.measures import ConvexTarget, CylinderMeasure
from blockdyn.quasitiling import (
    Quasitiling,
    congruent,
    decode_symbolic,
    encode_symbolic,
    greedy_tile,
    verify,
)
from blockdyn.symbolic import AlphabetStack, Block, Corpus, enumerate_family, sample_bernoulli

W10 = Shape.interval(0, 9)
PAIR = Shape.interval(0, 1)
TRIPLE = Shape.interval(0, 2)


def test_verify_perfect_cover():
    t = Quasitiling(W10, (PAIR,), (frozenset({(0,), (2,), (4,), (6,), (8,)}),))
    rep = verify(t)
    assert rep.disjoint and rep.covered_fraction == 1


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
    assert verify(t).invariance_ratios == (Fraction(2, 3),)


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


@pytest.mark.parametrize("eps", [Fraction(-1, 2), Fraction(3, 2), 2])
def test_greedy_rejects_eps_outside_the_unit_interval(eps):
    with pytest.raises(ValueError, match="eps must lie in"):
        greedy_tile(W10, [Shape.interval(0, 2)], eps)


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
    assert verify(inside).covered_fraction == Fraction(2, len(window))
    assert congruent(inside, inside)


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


# Grid tilings: one box shape on a box window, centers a product of per-axis
# progressions.  The greedy grid, the one ``greedy_tile`` places, is placed
# and verified by arithmetic, and two nested greedy grids are congruent by
# a lemma; any other grid is built by hand and takes the scans, as does any
# other pair.  The tests below check both paths against point-set
# definitions.

SIDES = {1: 12, 2: 6, 3: 4}  # the largest window side drawn per dimension


@st.composite
def box_for(draw, window):
    """A box off the origin, on some draws wider than the window."""
    lo, hi = window.bounds()
    slo = [draw(st.integers(-2, 2)) for _ in lo]
    sides = [draw(st.integers(1, b - a + 1)) + draw(st.sampled_from([0] * 5 + [b - a + 1]))
             for a, b in zip(lo, hi)]
    return Shape.box(slo, [c + n - 1 for c, n in zip(slo, sides)])


@st.composite
def box_window(draw):
    dim = draw(st.integers(1, 3))
    wlo = [draw(st.integers(-3, 3)) for _ in range(dim)]
    return Shape.box(wlo, [a + draw(st.integers(0, SIDES[dim] - 1)) for a in wlo])


@st.composite
def box_and_window(draw):
    window = draw(box_window())
    return window, draw(box_for(window))


@st.composite
def grid_tiling(draw, window, shape, inside=True):
    """A grid of ``shape`` translates: per axis a start, a step of at least
    the side and a count; with ``inside`` every tile fits in the window."""
    (lo, hi), (slo, shi) = window.bounds(), shape.bounds()
    axes = []
    for a, b, c, d in zip(lo, hi, slo, shi):
        side = d - c + 1
        step = side + draw(st.integers(0, 2))
        # the centers at which a tile fits are a - c .. b - d
        shift = draw(st.integers(0, min(2, max(b - d - a + c, 0))) if inside else st.integers(-2, 2))
        first = a - c + shift
        room = max((b - d - first) // step + 1, 0) if inside else 3
        # mostly as many as fit; otherwise fewer, leaving a remainder
        count = room if draw(st.integers(0, 3)) else draw(st.integers(0, room))
        axes.append(range(first, first + step * count, step))
    return Quasitiling(window, (shape,), (frozenset(product(*axes)),))


def naive_greedy(window: Shape, shape: Shape) -> tuple[set, set]:
    """Greedy placement over point sets: each window point in lexicographic
    order is a center when the translate fits and misses every tile so far.
    Returns the centers and the covered cells."""
    occupied, centers = set(), set()
    for g in sorted(window.points):
        cells = {tuple(x + y for x, y in zip(p, g)) for p in shape.points}
        if cells <= window.points and not cells & occupied:
            occupied |= cells
            centers.add(g)
    return centers, occupied


def escapes(tiling: Quasitiling) -> bool:
    return not all(cells <= tiling.window.points for cells in tile_cells(tiling))


@settings(max_examples=300, deadline=None)
@given(box_and_window())
def test_greedy_grid_equals_point_set_greedy(case):
    window, shape = case
    got = greedy_tile(window, [shape], Fraction(1, 2))
    centers, covered = naive_greedy(window, shape)
    assert got.tiling.centers == (frozenset(centers),)
    assert got.covered_fraction == Fraction(len(covered), len(window))
    assert all(c in window for c in centers)


# Hand-built grids: mostly not the greedy one, so these check the scans.
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_on_grids_equals_point_set_definitions(data):
    window, shape = data.draw(box_and_window())
    tiling = data.draw(grid_tiling(window, shape, inside=data.draw(st.booleans())))
    if escapes(tiling):
        with pytest.raises(ValueError, match="escapes the window"):
            verify(tiling)
        # Every coarse tile is read, and every fine tile when no tile fails
        # before it.
        empty = Quasitiling(window, (shape,), (frozenset(),))
        placed = greedy_tile(window, [shape], Fraction(1)).tiling
        for coarse, fine in ((tiling, tiling), (tiling, placed), (tiling, empty), (empty, tiling)):
            with pytest.raises(ValueError, match="escapes the window"):
                congruent(coarse, fine)
        return
    cells = tile_cells(tiling)
    covered = frozenset().union(*cells)
    rep = verify(tiling)
    assert rep.covered_fraction == Fraction(len(covered), len(window))
    assert rep.disjoint and sum(map(len, cells)) == len(covered)
    assert rep.invariance_ratios == (group.invariance_ratio(shape, folner_box(1, window.dim)),)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_congruent_on_grids_equals_the_pairwise_definition(data):
    window, shape = data.draw(box_and_window())
    # A second box of any size and origin, so sides need not divide and
    # origins may be shifted.
    other = data.draw(box_for(window))
    first = data.draw(grid_tiling(window, shape))
    second = data.draw(grid_tiling(window, other))
    # Some tiles of a grid: not the greedy grid, so compared by the scan.
    cents = sorted(first.centers[0])
    keep = data.draw(st.lists(st.booleans(), min_size=len(cents), max_size=len(cents)))
    part = Quasitiling(window, (shape,), (frozenset(c for c, k in zip(cents, keep) if k),))
    for coarse, fine in ((first, second), (second, first), (first, first), (part, second)):
        assert congruent(coarse, fine) == pairwise_congruent(coarse, fine)


# Hand-built grids, the shifted ones off the greedy grid: arithmetic and
# scans alike must give these answers.
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_congruence_fails_on_shifted_origins_and_non_dividing_sides(dim):
    window = Shape.box((0,) * dim, (11,) * dim)

    def grid(side, start=0):
        shape = Shape.box((0,) * dim, (side - 1,) * dim)
        axis = range(start, 12 - side + 1, side)
        return Quasitiling(window, (shape,), (frozenset(product(axis, repeat=dim)),))

    cases = [
        (grid(6), grid(2), True),  # dividing sides, a shared origin
        (grid(6), grid(3), True),
        (grid(6), grid(2, start=1), False),  # a shifted origin
        (grid(6, start=1), grid(2), False),
        (grid(6), grid(4), False),  # 4 does not divide 6
        (grid(2), grid(6), False),  # finer over coarser
        (grid(5), grid(5, start=1), False),
        (grid(5), grid(5, start=5), True),
    ]
    for coarse, fine, expected in cases:
        assert congruent(coarse, fine) is expected
        assert pairwise_congruent(coarse, fine) is expected


def test_congruence_of_part_of_a_grid_reads_only_its_tiles():
    # Only the missing coarse tile at (0, 2) would cut the fine one.
    window = Shape.box((0, 0), (5, 5))
    coarse = Quasitiling(window, (Shape.box((0, 0), (1, 1)),), (frozenset({(0, 0), (2, 2)}),))
    fine = Quasitiling(window, (Shape.box((0, 0), (1, 1)),), (frozenset({(0, 3)}),))
    assert congruent(coarse, fine) and pairwise_congruent(coarse, fine)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_tilings_make_no_kernel_call(dim):
    window = Shape.box((0,) * dim, (9,) * dim)
    with switch_layouts(box=no_layout, cells=no_layout):
        coarse = greedy_tile(window, [Shape.box((0,) * dim, (3,) * dim)], Fraction(1)).tiling
        fine = greedy_tile(window, [Shape.box((0,) * dim, (1,) * dim)], Fraction(1)).tiling
        off = greedy_tile(window, [Shape.box((-1,) * dim, (1,) * dim)], Fraction(1)).tiling
        assert coarse.tile_count() == 2**dim and fine.tile_count() == 5**dim
        assert min(off.centers[0]) == (1,) * dim
        assert verify(coarse).covered_fraction == Fraction(8**dim, 10**dim)
        assert verify(fine).covered_fraction == 1
        assert verify(off).disjoint
        assert congruent(coarse, fine)
        # Several shapes keep the scan.
        with pytest.raises(AssertionError, match="layout built"):
            greedy_tile(window, [Shape.box((0,) * dim, (3,) * dim), fine.shapes[0]], Fraction(1))
    # Pairs that do not nest take the scan.
    for tiling, previous in ((fine, coarse), (off, fine)):
        assert not congruent(tiling, previous) and not pairwise_congruent(tiling, previous)


def nested(tiling: Quasitiling, previous: Quasitiling) -> bool:
    """One box each, sharing a lower corner, each side of ``tiling``'s a
    multiple of the matching side of ``previous``'s."""
    (lo, hi), (flo, fhi) = tiling.shapes[0].bounds(), previous.shapes[0].bounds()
    return lo == flo and all((b - a + 1) % (d - a + 1) == 0 for a, b, d in zip(lo, hi, fhi))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_greedy_grids_take_the_arithmetic_paths_and_match_the_definitions(data):
    window, shape = data.draw(box_and_window())
    other = data.draw(box_for(window))
    first = greedy_tile(window, [shape], Fraction(1)).tiling
    second = greedy_tile(window, [other], Fraction(1)).tiling
    assert first.grid is not None and second.grid is not None
    pairs = [(first, second), (second, first), (first, first)]
    nests = [pair for pair in pairs if nested(*pair)]  # (first, first) at least
    others = [pair for pair in pairs if not nested(*pair)]
    with switch_layouts(box=no_layout, cells=no_layout):
        reports = [verify(t) for t in (first, second)]
        got = [congruent(coarse, fine) for coarse, fine in nests]
    got += [congruent(coarse, fine) for coarse, fine in others]
    for tiling, rep in zip((first, second), reports):
        cells = tile_cells(tiling)
        covered = frozenset().union(*cells)
        assert rep.covered_fraction == Fraction(len(covered), len(window))
        assert rep.disjoint and sum(map(len, cells)) == len(covered)
    assert got == [pairwise_congruent(coarse, fine) for coarse, fine in nests + others]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nested_greedy_grids_are_congruent_without_a_layout(data):
    window = data.draw(box_window())
    corner = [data.draw(st.integers(-3, 3)) for _ in range(window.dim)]
    fine_sides = [data.draw(st.integers(1, 4)) for _ in corner]
    coarse_sides = [n * data.draw(st.integers(1, 4)) for n in fine_sides]
    fine, coarse = (
        greedy_tile(window, [Shape.box(corner, [a + n - 1 for a, n in zip(corner, sides)])],
                    Fraction(1)).tiling
        for sides in (fine_sides, coarse_sides)
    )
    with switch_layouts(box=no_layout, cells=no_layout):
        assert congruent(coarse, fine) is True
    assert pairwise_congruent(coarse, fine)


@pytest.mark.parametrize("dim", [1, 2])
def test_only_the_greedy_grid_is_a_grid(dim):
    window = Shape.box((0,) * dim, (11,) * dim)
    shape = Shape.box((0,) * dim, (2,) * dim)

    def tiling(axis, keep=lambda c: True):
        cents = frozenset(c for c in product(axis, repeat=dim) if keep(c))
        return Quasitiling(window, (shape,), (cents,))

    greedy = greedy_tile(window, [shape], Fraction(1)).tiling
    assert greedy.grid == (range(0, 10, 3),) * dim
    assert tiling(range(0, 10, 3)).grid == greedy.grid  # the same centers, built by hand
    others = [
        tiling(range(1, 10, 3)),  # a shifted start
        tiling(range(0, 10, 4)),  # a step above the side
        tiling(range(0, 10, 3), keep=lambda c: c != (3,) * dim),  # part of the grid
        tiling(range(0)),
    ]
    assert [t.grid for t in others] == [None] * len(others)
    two = Quasitiling(window, (shape, shape), (greedy.centers[0], frozenset()))
    assert two.grid is None


def test_staged_runs_and_measure_samples_on_boxes_make_no_kernel_call(monkeypatch):
    tilings = []

    def recording_greedy_tile(*args):
        got = greedy_tile(*args)
        tilings.append(got.tiling)
        return got

    monkeypatch.setattr(construction, "greedy_tile", recording_greedy_tile)
    compared = []

    def layout_free_congruent(tiling, previous):
        compared.append((tiling, previous))
        with switch_layouts(box=no_layout, cells=no_layout):
            return congruent(tiling, previous)

    monkeypatch.setattr(construction, "congruent", layout_free_congruent)
    stack = AlphabetStack((2,))
    cases = ((Shape.interval(0, 26), [3, 9, 27]), (Shape.box((0, 0), (8, 8)), [3, 9]))
    with switch_layouts(cells=no_layout):
        for window, sides in cases:
            dim = window.dim
            f1 = folner_box(1, dim)
            uniform = CylinderMeasure(
                1, f1, {Block(f1, 1, (2,), k): Fraction(1, 2 ** len(f1))
                        for k in product((0, 1), repeat=len(f1))}
            )
            ones = CylinderMeasure(1, f1, {constant_block(f1, 1, (2,), 1): Fraction(1)})
            target = ConvexTarget((uniform, ones))
            config = sample_bernoulli(window, stack, [[Fraction(1, 4), Fraction(3, 4)]], seed=5)
            fams = [enumerate_family(Corpus(stack, (config,)), 1)]
            n = len(sides)
            sched = StageSchedule.geometric(dim, Fraction(1, 2), [1] * n, [1, 4, 13][:n], sides)
            src = vertex_rep_source(target, 1, seed=9, count=2, sizes=stack.sizes)
            result = run(config, sched, target, fams, src)
            assert len(result.stages) == n
            sampled = sample_from_measure(uniform, window, 1, seed=3, sizes=uniform.sizes)
            assert sampled.shape == window
    assert len(tilings) > 10 and all(t.grid is not None for t in tilings)
    # every consecutive stage pair: 3 and 9, 9 and 27 in 1-D, 3 and 9 in 2-D
    assert len(compared) == 3
