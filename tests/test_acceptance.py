"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them).  Tolerances are pinned here and
nowhere else."""

import random
import time
from fractions import Fraction
from pathlib import Path

from blockdyn import cli, files
from blockdyn.construction import (
    apply_changes,
    run,
    vertex_rep_source,
)
from blockdyn.files import StageSchedule, canonical_json
from blockdyn.frequency import (
    block_measure_gap_bound,
    count_embeddings,
    freq,
    freq_table,
)
from blockdyn.group import Shape, folner_box
from blockdyn.measures import (
    ConvexTarget,
    CylinderMeasure,
    block_measure,
    dist,
    tail_depth,
)
from blockdyn.quasitiling import congruent, greedy_tile, verify as verify_tiling
from blockdyn.symbolic import (
    AlphabetStack,
    Block,
    Corpus,
    enumerate_family,
    sample_bernoulli,
    subblock_at,
)
from blockdyn.testkit import (
    oracle_count_embeddings,
    oracle_freq,
    small_instance_suite,
)
from blockdyn.verification import (
    block_measure_gap_suite,
    metric_axioms_suite,
    tiling_average_gap_suite,
)
from helpers import constant_block

SEED = 2026


def report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS ({detail})")


def test_criterion_1_block_measure_gap_bound():
    t0 = time.monotonic()
    suite = block_measure_gap_suite(SEED, corpus=None)
    elapsed = time.monotonic() - t0
    exhaustive = [c for c in suite.cases if c.name.startswith("exhaustive")]
    planar = [c for c in suite.cases if c.name.startswith("planar")]
    assert len(exhaustive) == 2**7
    assert len(planar) == 200
    assert suite.violations == 0
    # the one-dimensional leg uses delta = 2/7, giving the bound 48/7
    assert block_measure_gap_bound(Fraction(2, 7), 3) == Fraction(48, 7)
    assert all(c.bound == Fraction(48, 7) for c in exhaustive)
    # on [-8,8]^2 with F_1 = [-1,1]^2 delta*|F_1| exceeds 1, so the bound
    # degenerates and the exact-zero check at the top level carries the case
    assert all(c.bound is None and c.deviation == 0 for c in planar)
    assert elapsed < 60
    report(1, "block-measure gap bound",
           f"{len(suite.cases)} cases, 0 violations, {elapsed:.1f}s")


def test_criterion_2_tiling_average_gap_bound():
    t0 = time.monotonic()
    suite = tiling_average_gap_suite(SEED)
    elapsed = time.monotonic() - t0
    assert len(suite.cases) == 100
    assert suite.violations == 0
    assert elapsed < 60
    worst = suite.worst_slack
    assert worst is not None and worst > 0
    report(2, "tiling average gap bound",
           f"100 cases, 0 violations, worst slack {worst}, {elapsed:.1f}s")


def test_criterion_3_tail_premise_implication():
    rng = random.Random(77)
    stack = AlphabetStack((2, 1, 1, 1))
    eps_cycle = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    nonvacuous = 0
    violations = 0
    for i in range(100):
        eps = eps_cycle[i % 3]
        j = tail_depth(eps)
        half = [40, 60, 80][i % 3]
        window = Shape.interval(-half, half)
        probs = [[Fraction(1, 2), Fraction(1, 2)], [1], [1], [1]]
        block = sample_bernoulli(window, stack, probs, seed=rng.randrange(2**30))
        corpus = Corpus(stack, (block,))
        fams = [enumerate_family(corpus, k) for k in range(1, j + 1)]
        if i % 2 == 0:
            nu = block_measure(block, j)
        else:
            other = sample_bernoulli(window, stack, probs, seed=rng.randrange(2**30))
            nu = block_measure(other, j)
        threshold = eps / (2 * j)
        premise = True
        for fam in fams:
            table = freq_table(block, fam.base, fam.level)
            marg = nu.marginal(fam.base, fam.level)
            for key in fam.keys:
                if abs(table.get(key, Fraction(0)) - marg.get(key, Fraction(0))) >= threshold:
                    premise = False
                    break
            if not premise:
                break
        if not premise:
            continue
        nonvacuous += 1
        interval = dist(block, nu, fams)
        if not interval.lower + interval.tail < eps:
            violations += 1
    assert violations == 0
    assert nonvacuous >= 40
    report(3, "tail premise implication",
           f"100 instances, {nonvacuous} non-vacuous, 0 violations")


def test_criterion_4_metric_axioms():
    suite = metric_axioms_suite(SEED)
    assert len(suite.cases) == 50
    assert suite.violations == 0
    report(4, "metric axioms", "50 triples, symmetry/triangle/self-distance exact")


def test_criterion_6_quasitiler():
    for length, side in [(10, 2), (10, 3), (12, 4)]:
        for dim in (1, 2):
            window = Shape.box((0,) * dim, (length - 1,) * dim)
            shape = Shape.box((0,) * dim, (side - 1,) * dim)
            got = greedy_tile(window, [shape], Fraction(1))
            expected = Fraction((side * (length // side)) ** dim, length**dim)
            assert got.covered_fraction == expected
            assert verify_tiling(got.tiling).disjoint
    window11 = Shape.interval(0, 11)
    fine = greedy_tile(window11, [Shape.interval(0, 1)], Fraction(1)).tiling
    coarse = greedy_tile(window11, [Shape.interval(0, 3)], Fraction(1)).tiling
    assert congruent(coarse, fine)
    report(6, "quasitiler", "covering formulas exact, disjoint, grids congruent")


def test_criterion_7_stage_transform_three_stages():
    t0 = time.monotonic()
    stack = AlphabetStack((2,))
    window = Shape.interval(0, 26)
    config = sample_bernoulli(
        window, stack, [[Fraction(1, 4), Fraction(3, 4)]], seed=33
    )
    f1 = folner_box(1, 1)
    vertices = tuple(
        CylinderMeasure(1, f1, {constant_block(f1, 1, (2,), s): Fraction(1)})
        for s in (0, 1)
    )
    target = ConvexTarget(vertices)
    corpus = Corpus(stack, (config,))
    fams = [enumerate_family(corpus, 1)]
    schedule = StageSchedule.geometric(
        1, Fraction(1, 2), [1, 1, 1], [1, 4, 13], [3, 9, 27]
    )
    source = vertex_rep_source(target, 0, seed=99, count=4, sizes=stack.sizes)
    result = run(config, schedule, target, fams, source)
    assert len(result.stages) == 3
    assert all(len(r.changes) > 0 for r in result.stages)

    # (a) output differs from input only inside logged tiles
    current = result.initial
    for st, rep in zip(schedule.stages, result.stages):
        after = apply_changes(current, rep.changes)
        logged_cells = {
            (p[0] + ch.center[0],)
            for ch in rep.changes
            for p in ch.before.shape.sorted_points
        }
        for p in window.sorted_points:
            if p not in logged_cells:
                assert after.get(p, 1) == current.get(p, 1)
        # (c) post-stage: every tile equals its representative or sits within delta
        by_center = {ch.center: ch for ch in rep.changes}
        for record in rep.tiles:
            shape = Shape.interval(0, st.tile_side - 1)
            post = subblock_at(after, shape, record.center, 1)
            if record.replaced:
                assert post == by_center[record.center].after
            else:
                assert record.distance_lower <= rep.delta
        # (d) the logged tiles are the far mass
        replaced = sum(len(ch.before.shape) for ch in rep.changes)
        assert Fraction(replaced, len(window)) == rep.far_mass_before
        current = after
    assert current == result.final

    # (b) change-log replay restores the input byte-exactly
    back = result.final
    for rep in reversed(result.stages):
        back = apply_changes(back, rep.changes, undo=True)
    assert back == result.initial
    assert back.symbols == result.initial.symbols

    elapsed = time.monotonic() - t0
    assert elapsed < 120
    report(7, "stage transform", f"3 stages, locality/replay/threshold/mass, {elapsed:.1f}s")


def test_criterion_8_oracle_equivalence():
    cases = 0
    for host, pattern in small_instance_suite(314):
        assert len(host.shape) <= 10**4
        assert count_embeddings(host.shape, pattern.shape) == oracle_count_embeddings(
            host.shape, pattern.shape
        )
        assert freq(host, pattern) == oracle_freq(host, pattern)
        cases += 1
    assert cases >= 20
    report(8, "oracle equivalence", f"{cases} instances, exact rational equality")


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_byte_identical_runs(tmp_path):
    # verify twice
    v1, v2 = tmp_path / "v1", tmp_path / "v2"
    assert cli.main(["--out", str(v1), "verify"]) == 0
    assert cli.main(["--out", str(v2), "verify"]) == 0
    assert _tree(v1) == _tree(v2)

    # construct twice with identical seeds
    stack = AlphabetStack((2,))
    block = sample_bernoulli(
        Shape.interval(0, 26), stack, [[Fraction(1, 4), Fraction(3, 4)]], seed=33
    )
    files.write_corpus(tmp_path / "corpus.json", Corpus(stack, (block,)))
    f1 = folner_box(1, 1)
    for i, sym in enumerate((0, 1)):
        m = CylinderMeasure(1, f1, {constant_block(f1, 1, (2,), sym): Fraction(1)})
        files.write_measure(tmp_path / f"v{i}.json", m)
    cfg = {
        "dim": 1,
        "alphabet": [2],
        "window": {"min": [0], "max": [26]},
        "corpus": ["corpus.json"],
        "target_vertices": ["v0.json", "v1.json"],
        "schedule": {
            "eps1": "1/2",
            "depths": [1, 1, 1],
            "folner_indices": [1, 4, 13],
            "tile_sides": [3, 9, 27],
        },
        "representatives": {"source": "vertex", "vertex": 0, "count": 4},
        "seed": 33,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(canonical_json(cfg))
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    assert cli.main(["--config", str(cfg_path), "--out", str(c1), "construct"]) == 0
    assert cli.main(["--config", str(cfg_path), "--out", str(c2), "construct"]) == 0
    assert _tree(c1) == _tree(c2)
    report(9, "determinism", "verify x2 and construct x2 byte-identical trees")
