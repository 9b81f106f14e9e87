import random
from fractions import Fraction

import pytest

from blockdyn.construction import (
    apply_changes,
    corpus_rep_source,
    run,
    sample_from_measure,
    select_representative,
    stage_transform,
    vertex_rep_source,
)
from blockdyn.files import StageSchedule
from blockdyn.frequency import block_measure_gap_bound
from blockdyn.group import Shape, folner_box
from blockdyn.measures import ConvexTarget, CylinderMeasure, block_measure, dist_to_hull
from blockdyn.quasitiling import Quasitiling
from blockdyn.symbolic import AlphabetStack, Block, Corpus, enumerate_family, sample_bernoulli
from blockdyn.testkit import grid_hull_distance
from helpers import constant_block, far_mass

F1 = folner_box(1, 1)
STACK = AlphabetStack((2,))


def point_mass(symbol: int) -> CylinderMeasure:
    return CylinderMeasure(
        1, F1, {constant_block(F1, 1, (2,), symbol): Fraction(1)}
    )


def two_vertex_target() -> ConvexTarget:
    return ConvexTarget((point_mass(0), point_mass(1)))


def family_from(*blocks: Block):
    return [enumerate_family(Corpus(STACK, tuple(blocks)), 1)]


def test_schedule_geometric_satisfies_gap_relation():
    sched = StageSchedule.geometric(1, Fraction(1, 2), [1, 1, 1], [1, 4, 13], [3, 9, 27])
    assert [s.eps for s in sched.stages] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    for s in sched.stages:
        size = 2 * s.folner_index + 1
        assert block_measure_gap_bound(s.delta, size) < s.eps
    assert sched.eps_total == Fraction(7, 8)


def test_schedule_rejects_nondecreasing_eps():
    with pytest.raises(ValueError):
        StageSchedule(
            1,
            (
                StageSchedule.geometric(1, Fraction(1, 2), [1], [1], [3]).stages[0],
                StageSchedule.geometric(1, Fraction(1), [1], [1], [3]).stages[0],
            ),
        )


def test_schedule_names_a_negative_folner_index():
    # a negative index makes the derived delta negative, so the index is
    # checked before eps and delta
    with pytest.raises(ValueError, match="Folner index must be positive"):
        StageSchedule.geometric(1, Fraction(1, 2), [1], [-1], [3])


def test_schedule_rejects_noncoarsening_sides():
    with pytest.raises(ValueError):
        StageSchedule.geometric(1, Fraction(1, 2), [1, 1], [1, 1], [3, 4])


def test_schedule_rejects_infeasible_delta():
    good = StageSchedule.geometric(1, Fraction(1, 2), [1], [1], [3]).stages[0]
    bad = type(good)(
        index=1,
        eps=good.eps,
        delta=Fraction(1, 3),
        depth=1,
        folner_index=1,
        tile_side=3,
    )
    with pytest.raises(ValueError):
        StageSchedule(1, (bad,))


def test_select_representative_prefers_vertex_sample():
    target = two_vertex_target()
    shape = Shape.interval(0, 4)
    const0 = constant_block(shape, 1, (2,), 0)
    noisy = Block(shape, 1, (2,), (0, 1, 0, 1, 0))
    fams = family_from(constant_block(Shape.interval(0, 9), 1, (2,), 0), noisy)
    block, hd = select_representative(shape, target, [noisy, const0], fams)
    assert block == const0
    assert hd.value == 0


def test_select_representative_matches_grid_oracle_ordering():
    target = two_vertex_target()
    shape = Shape.interval(0, 6)
    near = Block(shape, 1, (2,), (0, 0, 0, 0, 0, 0, 1))
    far = Block(shape, 1, (2,), (0, 1, 1, 0, 1, 0, 1))
    fams = family_from(near, far)
    block, _ = select_representative(shape, target, [far, near], fams)
    d_near = grid_hull_distance(block_measure(near, 1), target, fams, Fraction(1, 100))
    d_far = grid_hull_distance(block_measure(far, 1), target, fams, Fraction(1, 100))
    assert d_near < d_far
    assert block == near


def test_select_representative_tie_breaks_lexicographically():
    target = two_vertex_target()
    shape = Shape.interval(0, 4)
    a = constant_block(shape, 1, (2,), 0)
    b = constant_block(shape, 1, (2,), 1)
    fams = family_from(a, b)
    # both are vertices, both at distance 0: the lexicographically smaller wins
    block, _ = select_representative(shape, target, [b, a, b], fams)
    assert block == a


def test_select_representative_solves_each_distinct_candidate_once(monkeypatch):
    from blockdyn import construction

    target = two_vertex_target()
    shape = Shape.interval(0, 4)
    a = constant_block(shape, 1, (2,), 0)
    b = Block(shape, 1, (2,), (0, 1, 0, 1, 0))
    c = Block(shape, 1, (2,), (0, 1, 0, 1, 0))  # equal to b, another object
    fams = family_from(a, b)
    solved = []
    solve = construction.dist_to_hull

    def counted(block, *args):
        solved.append(block.symbols)
        return solve(block, *args)

    monkeypatch.setattr(construction, "dist_to_hull", counted)
    block, hd = select_representative(shape, target, [b, a, c, b, a], fams)
    assert sorted(solved) == sorted([a.symbols, b.symbols])
    assert block == a and hd.value == 0


def test_select_representative_empty_errors():
    with pytest.raises(ValueError):
        select_representative(Shape.interval(0, 1), two_vertex_target(), [], [])


def grid_tiling(window: Shape, side: int) -> Quasitiling:
    shape = Shape.interval(0, side - 1)
    lo, hi = window.bounds()
    centers = frozenset(
        (x,) for x in range(lo[0], hi[0] - side + 2, side)
    )
    return Quasitiling(window, (shape,), (centers,))


def test_far_mass_zero_when_all_tiles_match():
    window = Shape.interval(0, 19)
    config = constant_block(window, 1, (2,), 0)
    tiling = grid_tiling(window, 5)
    fams = family_from(config)
    assert far_mass(config, tiling, two_vertex_target(), Fraction(1, 100), fams) == 0


def test_far_mass_full_covering_when_all_far():
    window = Shape.interval(0, 19)
    config = Block(window, 1, (2,), tuple([0, 1] * 10))
    tiling = grid_tiling(window, 5)
    fams = family_from(config)
    got = far_mass(config, tiling, two_vertex_target(), Fraction(1, 100), fams)
    assert got == 1  # tiling covers everything and every tile alternates


def test_far_mass_half_by_cell_count():
    window = Shape.interval(0, 19)
    # first half alternating (far), second half constant (near)
    config = Block(window, 1, (2,), tuple([0, 1] * 5 + [0] * 10))
    tiling = grid_tiling(window, 5)
    fams = family_from(config)
    got = far_mass(config, tiling, two_vertex_target(), Fraction(1, 100), fams)
    assert got == Fraction(1, 2)


def test_stage_transform_no_far_tiles_is_identity():
    window = Shape.interval(0, 19)
    config = constant_block(window, 1, (2,), 0)
    tiling = grid_tiling(window, 5)
    fams = family_from(config)
    reps = {Shape.interval(0, 4): constant_block(Shape.interval(0, 4), 1, (2,), 0)}
    out, report = stage_transform(
        config, tiling, two_vertex_target(), Fraction(1, 100), reps, fams
    )
    assert out == config
    assert report.far_mass_before == 0
    assert report.changes == ()


def test_stage_transform_all_far_replaces_every_tile():
    window = Shape.interval(0, 19)
    config = Block(window, 1, (2,), tuple([0, 1] * 10))
    tiling = grid_tiling(window, 5)
    fams = family_from(config)
    rep = constant_block(Shape.interval(0, 4), 1, (2,), 0)
    out, report = stage_transform(
        config, tiling, two_vertex_target(), Fraction(1, 100), {rep.shape: rep}, fams
    )
    assert report.far_mass_before == verify_covering(tiling)
    assert set(out.row(1)) == {0}


def verify_covering(tiling: Quasitiling) -> Fraction:
    from blockdyn.quasitiling import verify

    return verify(tiling).covered_fraction


def test_stage_transform_mixed_quarter_replaced():
    # one far tile of 5 cells in a 20-cell window -> replaced fraction 1/4
    window = Shape.interval(0, 19)
    config = Block(window, 1, (2,), tuple([0, 1, 0, 1, 0] + [0] * 15))
    tiling = grid_tiling(window, 5)
    fams = family_from(config)
    rep = constant_block(Shape.interval(0, 4), 1, (2,), 0)
    out, report = stage_transform(
        config, tiling, two_vertex_target(), Fraction(1, 100), {rep.shape: rep}, fams
    )
    assert report.far_mass_before == Fraction(1, 4)
    assert len(report.changes) == 1


def test_stage_transform_locality_and_inversion():
    window = Shape.interval(0, 26)
    config = sample_bernoulli(window, STACK, [[0.5, 0.5]], seed=21)
    tiling = grid_tiling(window, 3)
    fams = family_from(config)
    rep = constant_block(Shape.interval(0, 2), 1, (2,), 0)
    out, report = stage_transform(
        config, tiling, two_vertex_target(), Fraction(1, 18), {rep.shape: rep}, fams
    )
    changed_cells = {
        (p[0] + ch.center[0],)
        for ch in report.changes
        for p in ch.before.shape.sorted_points
    }
    for p in window.sorted_points:
        if p in changed_cells:
            continue
        assert out.get(p, 1) == config.get(p, 1)
    assert apply_changes(out, report.changes, undo=True) == config
    assert apply_changes(config, report.changes) == out


def test_stage_transform_missing_representative_errors():
    window = Shape.interval(0, 19)
    config = Block(window, 1, (2,), tuple([0, 1] * 10))
    tiling = grid_tiling(window, 5)
    fams = family_from(config)
    with pytest.raises(ValueError):
        stage_transform(config, tiling, two_vertex_target(), Fraction(1, 100), {}, fams)


def test_stage_transform_rejects_a_representative_on_another_alphabet():
    # Its codes would be counted in another radix than the window's.
    window = Shape.interval(0, 19)
    config = Block(window, 1, (2,), tuple([0, 1] * 10))
    rep = constant_block(Shape.interval(0, 4), 1, (3,), 1)
    with pytest.raises(ValueError, match="representative alphabet differs"):
        stage_transform(
            config, grid_tiling(window, 5), two_vertex_target(), Fraction(1, 100),
            {rep.shape: rep}, family_from(config),
        )


def test_single_stage_run_matches_stage_transform():
    window = Shape.interval(0, 26)
    config = sample_bernoulli(window, STACK, [[0.5, 0.5]], seed=33)
    corpus = Corpus(STACK, (config,))
    fams = [enumerate_family(corpus, 1)]
    target = two_vertex_target()
    sched = StageSchedule.geometric(1, Fraction(1, 2), [1], [1], [3])
    src = vertex_rep_source(target, 0, seed=5, count=3, sizes=STACK.sizes)
    result = run(config, sched, target, fams, src)
    assert len(result.stages) == 1

    tiling = grid_tiling(window, 3)
    rep_block = src(Shape.interval(0, 2), 1)[0]
    out, report = stage_transform(
        config, tiling, target, sched.stages[0].delta, {rep_block.shape: rep_block}, fams
    )
    assert result.final == out
    assert result.stages == (report,)


def test_run_requires_congruent_grids():
    with pytest.raises(ValueError):
        StageSchedule.geometric(1, Fraction(1, 2), [1, 1], [1, 4], [3, 7])


def test_run_raises_when_stages_on_a_window_that_is_not_a_box_do_not_nest():
    # Side 3 divides side 6, but the greedy 6x6 tile cannot sit at (0, 0)
    # and goes to (0, 1), which the 3x3 tile at (0, 0) straddles.
    window = Shape.of([(x, 0) for x in range(3)] + [(x, y) for x in range(6) for y in range(1, 7)])
    f = folner_box(1, 2)
    target = ConvexTarget(tuple(
        CylinderMeasure(1, f, {constant_block(f, 1, (2,), s): Fraction(1)}) for s in (0, 1)
    ))
    config = sample_bernoulli(window, STACK, [[Fraction(1, 2)] * 2], seed=1)
    sched = StageSchedule.geometric(2, Fraction(1, 50), [1, 1], [1, 1], [3, 6])
    src = vertex_rep_source(target, 0, seed=5, count=2, sizes=STACK.sizes)
    with pytest.raises(ValueError, match="stage 2 tiling not congruent with stage 1"):
        run(config, sched, target, family_from(config), src)


def test_run_three_stages_summable_and_invertible():
    window = Shape.interval(0, 26)
    config = sample_bernoulli(window, STACK, [[Fraction(1, 4), Fraction(3, 4)]], seed=33)
    corpus = Corpus(STACK, (config,))
    fams = [enumerate_family(corpus, 1)]
    target = two_vertex_target()
    sched = StageSchedule.geometric(1, Fraction(1, 2), [1, 1, 1], [1, 4, 13], [3, 9, 27])
    src = vertex_rep_source(target, 0, seed=99, count=4, sizes=STACK.sizes)
    result = run(config, sched, target, fams, src)
    assert [r.depth for r in result.stages] == [1, 1, 1]
    for rep in result.stages:
        replaced = sum(len(ch.before.shape) for ch in rep.changes)
        assert Fraction(replaced, len(window)) == rep.far_mass_before
    current = result.final
    for rep in reversed(result.stages):
        current = apply_changes(current, rep.changes, undo=True)
    assert current == result.initial


def test_run_from_vertex_sampled_config_regression():
    # a configuration sampled from a target vertex stays near the hull:
    # far masses small, replaced fractions summable against the schedule
    import itertools

    uniform = CylinderMeasure(
        1,
        F1,
        {
            Block(F1, 1, (2,), bits): Fraction(1, 8)
            for bits in itertools.product((0, 1), repeat=3)
        },
    )
    target = ConvexTarget((uniform, point_mass(1)))
    window = Shape.interval(0, 80)
    config = sample_from_measure(uniform, window, 1, seed=202, sizes=uniform.sizes)
    corpus = Corpus(STACK, (config,))
    fams = [enumerate_family(corpus, 1)]
    sched = StageSchedule.geometric(1, Fraction(1, 2), [1, 1], [1, 4], [27, 81])
    src = vertex_rep_source(target, 0, seed=7, count=4, sizes=STACK.sizes)
    result = run(config, sched, target, fams, src)
    total_replaced = sum((r.far_mass_before for r in result.stages), Fraction(0))
    assert total_replaced <= sched.eps_total
    # regression values recorded on first run
    assert [r.far_mass_before for r in result.stages] == [Fraction(0), Fraction(0)]


def test_corpus_rep_source_yields_requested_shape():
    window = Shape.interval(0, 26)
    config = sample_bernoulli(window, STACK, [[0.5, 0.5]], seed=3)
    corpus = Corpus(STACK, (config,))
    src = corpus_rep_source(corpus, limit=7)
    shape = Shape.interval(0, 8)
    cands = src(shape, 1)
    assert len(cands) == 7
    assert all(c.shape == shape for c in cands)


def test_sample_from_measure_deterministic_and_point_mass_exact():
    target = point_mass(1)
    shape = Shape.interval(0, 8)
    a = sample_from_measure(target, shape, 1, seed=7, sizes=target.sizes)
    b = sample_from_measure(target, shape, 1, seed=7, sizes=target.sizes)
    assert a == b
    assert set(a.row(1)) == {1}


def test_sample_from_measure_tracks_distribution():
    rng = random.Random(8)
    base = F1
    masses = {
        Block(base, 1, (2,), (0, 0, 0)): Fraction(3, 4),
        Block(base, 1, (2,), (1, 1, 1)): Fraction(1, 4),
    }
    mu = CylinderMeasure(1, base, masses)
    shape = Shape.interval(0, 299)
    block = sample_from_measure(mu, shape, 1, seed=rng.randrange(2**30), sizes=mu.sizes)
    ones = sum(block.row(1))
    assert 0.1 < ones / 300 < 0.4


def test_run_two_stages_planar():
    # the staged transform works identically in dimension 2
    stack = AlphabetStack((2,))
    window = Shape.box((0, 0), (8, 8))
    config = sample_bernoulli(window, stack, [[Fraction(1, 2), Fraction(1, 2)]], seed=12)
    f1 = folner_box(1, 2)
    vertices = tuple(
        CylinderMeasure(1, f1, {constant_block(f1, 1, (2,), s): Fraction(1)})
        for s in (0, 1)
    )
    target = ConvexTarget(vertices)
    corpus = Corpus(stack, (config,))
    fams = [enumerate_family(corpus, 1)]
    sched = StageSchedule.geometric(2, Fraction(1, 2), [1, 1], [1, 4], [3, 9])
    src = vertex_rep_source(target, 0, seed=3, count=2, sizes=stack.sizes)
    result = run(config, sched, target, fams, src)
    assert len(result.stages) == 2
    assert result.stages[0].covered_fraction == 1
    assert set(result.final.row(1)) == {0}
    back = result.final
    for rep in reversed(result.stages):
        back = apply_changes(back, rep.changes, undo=True)
    assert back == config


@pytest.mark.parametrize("n", [0, -1])
def test_rep_sources_reject_a_limit_or_count_below_one(n):
    corpus = Corpus(STACK, (sample_bernoulli(Shape.interval(0, 8), STACK, [[0.5, 0.5]], seed=3),))
    with pytest.raises(ValueError, match="limit of at least 1"):
        corpus_rep_source(corpus, limit=n)
    with pytest.raises(ValueError, match="count of at least 1"):
        vertex_rep_source(two_vertex_target(), 0, seed=1, count=n, sizes=STACK.sizes)
    assert len(corpus_rep_source(corpus, limit=1)(Shape.interval(0, 2), 1)) == 1


# Depth-2 data, where a block's level-1 frequencies differ from the level-1
# marginal of its depth-2 block measure: a host with uniform rows, and two
# vertices whose first row is biased either way.
STACK2 = AlphabetStack((2, 2))
HALF = Fraction(1, 2)


def depth2_target_and_families():
    host = sample_bernoulli(Shape.interval(0, 300), STACK2, [[HALF, HALF]] * 2, 102)
    vertices = tuple(
        block_measure(
            sample_bernoulli(Shape.interval(0, 200), STACK2, [[p, 1 - p], [HALF, HALF]], s), 2
        )
        for p, s in ((Fraction(1, 10), 9), (Fraction(9, 10), 10))
    )
    corpus = Corpus(STACK2, (host,))
    return ConvexTarget(vertices), [enumerate_family(corpus, 1), enumerate_family(corpus, 2)]


def test_select_representative_at_depth_2_picks_the_nearest_frequencies():
    # Their depth-2 block measures rank index 5 nearest; their own
    # frequencies, which a stage judges a tile by, rank index 1 nearest.
    target, fams = depth2_target_and_families()
    box = Shape.interval(0, 8)
    cands = vertex_rep_source(target, 0, 2, 6, STACK2.sizes)(box, 2)
    by_measure = [dist_to_hull(block_measure(c, 2), target, fams).value for c in cands]
    assert by_measure.index(min(by_measure)) == 5
    values = [dist_to_hull(c, target, fams).value for c in cands]
    block, hd = select_representative(box, target, cands, fams)
    assert block == cands[1]
    assert hd.value == values[1] == min(values)


def test_depth_2_run_measures_the_window_and_candidates_by_their_frequencies():
    target, fams = depth2_target_and_families()
    config = sample_bernoulli(Shape.interval(0, 80), STACK2, [[HALF, HALF]] * 2, 7)
    sched = StageSchedule.geometric(1, Fraction(1, 2), [2, 2], [1, 4], [9, 27])
    src = vertex_rep_source(target, 0, seed=2, count=6, sizes=STACK2.sizes)
    result = run(config, sched, target, fams, src)
    output = result.initial
    assert result.window_distances[0] == dist_to_hull(output, target, fams)
    for st, report, distance in zip(sched.stages, result.stages, result.window_distances[1:]):
        box = Shape.interval(0, st.tile_side - 1)
        best = min(src(box, 2), key=lambda c: (dist_to_hull(c, target, fams).value, c.symbols))
        assert report.changes
        assert all(ch.after == best for ch in report.changes)
        output = apply_changes(output, report.changes)
        assert distance == dist_to_hull(output, target, fams)
    assert output == result.final


def test_depth_2_run_with_tiles_of_side_3_completes():
    # A 3-cell tile admits no embedding of F_2, so it has no depth-2 block
    # measure; its frequencies on the family bases still place it.
    target, fams = depth2_target_and_families()
    config = sample_bernoulli(Shape.interval(0, 26), STACK2, [[HALF, HALF]] * 2, 7)
    sched = StageSchedule.geometric(1, Fraction(1, 2), [2, 2], [1, 4], [3, 9])
    src = vertex_rep_source(target, 0, seed=2, count=6, sizes=STACK2.sizes)
    result = run(config, sched, target, fams, src)
    assert [len(r.tiles) for r in result.stages] == [9, 3]
    assert len(result.window_distances) == 3
