import itertools
import random
from fractions import Fraction

import pytest

from blockdyn.files import block_from_word
from blockdyn.frequency import freq, freq_table
from blockdyn.group import Shape, folner_box, invariance_ratio
from blockdyn.measures import (
    ConvexTarget,
    CylinderMeasure,
    block_measure,
    dist,
    dist_block,
    dist_k,
    dist_to_hull,
    mix,
    tail_depth,
)
from blockdyn.symbolic import AlphabetStack, Block, BlockFamily, Corpus, sample_bernoulli
from blockdyn.testkit import block_measure_gap_bound, grid_hull_distance
from blockdyn.verification import _families_for, _random_measure

WORD = block_from_word("aababab", start=-3)
F1 = folner_box(1, 1)
AAB = block_from_word("aab", start=-1)
ABA = block_from_word("aba", start=-1)
BAB = block_from_word("bab", start=-1)


def word_family():
    return BlockFamily(1, F1, (2,), tuple(sorted(b.symbols for b in (AAB, ABA, BAB))))


def test_block_measure_word():
    mu = block_measure(WORD, 1)
    assert mu.value(AAB) == Fraction(1, 5)
    assert mu.value(ABA) == Fraction(2, 5)
    assert mu.value(BAB) == Fraction(2, 5)


def test_block_measure_constant_point_mass():
    const = block_from_word("aaaaaaa", start=-3)
    mu = block_measure(const, 1)
    assert mu.items() == ((Block(F1, 1, (2,), (0, 0, 0)), Fraction(1)),)


def test_block_measure_total_mass_one():
    stack = AlphabetStack((2, 2))
    block = sample_bernoulli(Shape.interval(-9, 9), stack, [[0.5, 0.5], [0.5, 0.5]], seed=3)
    mu = block_measure(block, 2)
    assert sum(m for _, m in mu.items()) == 1


def test_block_measure_requires_embedding():
    small = block_from_word("ab", start=0)
    with pytest.raises(ValueError):
        block_measure(small, 1)


def test_value_full_pattern_is_stored_mass():
    mu = block_measure(WORD, 1)
    assert mu.value(ABA) == Fraction(2, 5)


def test_value_uniform_marginal():
    masses = {
        Block(F1, 1, (2,), bits): Fraction(1, 8)
        for bits in itertools.product((0, 1), repeat=3)
    }
    mu = CylinderMeasure(1, F1, masses)
    for bits in itertools.product((0, 1), repeat=3):
        assert mu.value(Block(F1, 1, (2,), bits)) == Fraction(1, 8)


def test_value_uniform_marginal_by_extension_sum():
    # deeper uniform measure marginalized to level 1 on F_1: still 1/8
    base2 = folner_box(2, 1)
    patterns = list(itertools.product((0, 1), repeat=5))
    masses = {
        Block(base2, 2, (2, 1), bits + (0,) * 5): Fraction(1, 32) for bits in patterns
    }
    mu = CylinderMeasure(2, base2, masses, (2, 1))
    for bits in itertools.product((0, 1), repeat=3):
        assert mu.value(Block(F1, 1, (2,), bits)) == Fraction(1, 8)


def test_value_partition_sums_to_one():
    stack = AlphabetStack((2, 2))
    block = sample_bernoulli(Shape.interval(-9, 9), stack, [[0.5, 0.5], [0.5, 0.5]], seed=5)
    mu = block_measure(block, 2)
    # marginal to level 1 over all patterns
    total = sum(mu.marginal(F1, 1).values())
    assert total == 1


def test_measure_validation():
    with pytest.raises(ValueError):
        CylinderMeasure(1, F1, {AAB: Fraction(1, 2)})
    with pytest.raises(ValueError):
        CylinderMeasure(1, F1, {})


def test_mix_single():
    mu = block_measure(WORD, 1)
    assert mix([Fraction(1)], [mu]) == mu


def test_mix_two_point_masses():
    a = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (0, 0, 0)): Fraction(1)})
    b = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (1, 1, 1)): Fraction(1)})
    m = mix([Fraction(1, 2), Fraction(1, 2)], [a, b])
    assert m.value(Block(F1, 1, (2,), (0, 0, 0))) == Fraction(1, 2)
    assert m.value(Block(F1, 1, (2,), (1, 1, 1))) == Fraction(1, 2)


def test_mix_tile_weights():
    a = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (0, 0, 0)): Fraction(1)})
    b = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (1, 1, 1)): Fraction(1)})
    sizes = [5, 5]
    weights = [Fraction(s, sum(sizes)) for s in sizes]
    assert mix(weights, [a, b]) == mix([Fraction(1, 2), Fraction(1, 2)], [a, b])


def test_dist_k_self_zero():
    mu = block_measure(WORD, 1)
    assert dist_k(mu, mu, word_family()) == 0


def test_dist_k_worked_example():
    mu = block_measure(WORD, 1)  # aab:1/5 aba:2/5 bab:2/5
    nu = CylinderMeasure(1, F1, {ABA: Fraction(1)})
    assert dist_k(mu, nu, word_family()) == Fraction(2, 5)


def test_dist_k_point_masses():
    fam = word_family()
    a = CylinderMeasure(1, F1, {AAB: Fraction(1)})
    b = CylinderMeasure(1, F1, {BAB: Fraction(1)})
    assert dist_k(a, b, fam) == Fraction(2, len(fam))


def test_dist_k_empty_family_errors():
    mu = block_measure(WORD, 1)
    with pytest.raises(ValueError):
        dist_k(mu, mu, BlockFamily(1, F1, (2,), ()))


def test_dist_self_interval():
    mu = block_measure(WORD, 1)
    d = dist(mu, mu, [word_family()])
    assert d.lower == 0 and d.tail == Fraction(1, 2)


def test_dist_single_level_example():
    mu = block_measure(WORD, 1)
    nu = CylinderMeasure(1, F1, {ABA: Fraction(1)})
    d = dist(mu, nu, [word_family()])
    assert d.lower == Fraction(1, 5)


def test_dist_tail_halves_per_level():
    stack = AlphabetStack((2, 2))
    block = sample_bernoulli(Shape.interval(-9, 9), stack, [[0.5, 0.5], [0.5, 0.5]], seed=6)
    corpus = Corpus(stack, (block,))
    from blockdyn.symbolic import enumerate_family

    fams = [enumerate_family(corpus, k) for k in (1, 2)]
    mu = block_measure(block, 2)
    d1 = dist(mu, mu, fams[:1])
    d2 = dist(mu, mu, fams)
    assert d2.tail * 2 == d1.tail


def test_dist_block_level_j_contributes_zero():
    mu = block_measure(WORD, 1)
    d = dist_block(WORD, mu, [word_family()])
    assert d.lower == 0


def test_dist_block_point_mass_example():
    nu = CylinderMeasure(1, F1, {ABA: Fraction(1)})
    d = dist_block(WORD, nu, [word_family()])
    assert d.lower == Fraction(1, 5)


def test_tail_depth_values():
    assert tail_depth(Fraction(1)) == 2
    assert tail_depth(Fraction(2)) == 1
    assert tail_depth(Fraction(1, 8)) == 5


def test_tail_depth_errors():
    with pytest.raises(ValueError):
        tail_depth(Fraction(0))
    with pytest.raises(ValueError):
        tail_depth(Fraction(5, 2))


def test_tail_premise_implies_certified_distance():
    # whenever every per-pattern gap stays below eps/2j with j = tail_depth,
    # the certified interval ends strictly below eps
    rng = random.Random(2024)
    stack = AlphabetStack((2, 1, 1))
    nonvacuous = 0
    for _ in range(30):
        eps = rng.choice([Fraction(1, 2), Fraction(1, 3)])
        j = tail_depth(eps)
        window = Shape.interval(-50, 50)
        block = sample_bernoulli(
            window, stack, [[0.5, 0.5], [1], [1]], seed=rng.randrange(2**30)
        )
        corpus = Corpus(stack, (block,))
        from blockdyn.symbolic import enumerate_family

        fams = [enumerate_family(corpus, k) for k in range(1, j + 1)]
        nu = block_measure(block, j)
        premise = True
        for fam in fams:
            table = freq_table(block, fam.base, fam.level)
            for b in fam.blocks:
                if abs(table.get(b.symbols, Fraction(0)) - nu.value(b)) >= eps / (2 * j):
                    premise = False
                    break
            if not premise:
                break
        if premise:
            nonvacuous += 1
            interval = dist_block(block, nu, fams)
            assert interval.lower + interval.tail < eps
    assert nonvacuous >= 10


def test_block_measure_gap_bound_holds_at_depth_two():
    stack = AlphabetStack((2, 2))
    f2 = folner_box(2, 1)
    rng = random.Random(99)
    for length in (30, 60):
        window = Shape.interval(-length, length)
        delta = invariance_ratio(window, f2) + Fraction(1, 1000)
        bound = block_measure_gap_bound(delta, len(f2))
        for _ in range(5):
            block = sample_bernoulli(
                window, stack, [[0.5, 0.5], [0.5, 0.5]], seed=rng.randrange(2**30)
            )
            mu = block_measure(block, 2)
            for level in (1, 2):
                base = folner_box(level, 1)
                table = freq_table(block, base, level)
                marg = mu.marginal(base, level)
                for key in set(table) | set(marg):
                    gap = abs(table.get(key, Fraction(0)) - marg.get(key, Fraction(0)))
                    assert gap <= bound
                    if level == 2:
                        assert gap == 0


def test_metric_axioms_random_triples():
    rng = random.Random(12)
    for _ in range(10):
        mu, nu, lam = (_random_measure(rng) for _ in range(3))
        fams = _families_for([mu, nu, lam])
        for fam in fams:
            assert dist_k(mu, nu, fam) == dist_k(nu, mu, fam)
            assert dist_k(mu, lam, fam) <= dist_k(mu, nu, fam) + dist_k(nu, lam, fam)
        assert dist(mu, mu, fams).lower == 0


def test_identity_of_indiscernibles_at_truncation_depth():
    rng = random.Random(13)
    mu, nu = _random_measure(rng), _random_measure(rng)
    fams = _families_for([mu, nu])
    d = dist(mu, nu, fams)
    equal_marginals = all(mu.value(b) == nu.value(b) for fam in fams for b in fam.blocks)
    assert (d.lower == 0) == equal_marginals


def test_hull_single_vertex():
    mu = block_measure(WORD, 1)
    nu = CylinderMeasure(1, F1, {ABA: Fraction(1)})
    hd = dist_to_hull(mu, ConvexTarget((nu,)), [word_family()])
    assert hd.value == Fraction(1, 5) and hd.weights == (Fraction(1),)


def test_hull_vertex_of_target_is_at_zero():
    mu = block_measure(WORD, 1)
    nu = CylinderMeasure(1, F1, {ABA: Fraction(1)})
    hd = dist_to_hull(nu, ConvexTarget((nu, mu)), [word_family()])
    assert hd.value == 0
    assert hd.weights[0] == 1


def test_hull_midpoint_two_point_masses():
    a = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (0, 0, 0)): Fraction(1)})
    b = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (1, 1, 1)): Fraction(1)})
    x = mix([Fraction(1, 2), Fraction(1, 2)], [a, b])
    fam = BlockFamily(1, F1, (2,), ((0, 0, 0), (1, 1, 1)))
    target = ConvexTarget((a, b))
    hd = dist_to_hull(x, target, [fam])
    grid = grid_hull_distance(x, target, [fam], Fraction(1, 1000))
    assert hd.value == 0
    assert grid == 0
    assert hd.weights == (Fraction(1, 2), Fraction(1, 2))


def test_hull_solver_agrees_with_grid_on_random_instances():
    rng = random.Random(515)
    tol = Fraction(1, 1000)
    step = Fraction(1, 40)
    for _ in range(6):
        m = rng.choice([2, 3])
        measures = [_random_measure(rng, support=rng.randint(2, 5)) for _ in range(m + 1)]
        x, verts = measures[0], tuple(measures[1:])
        try:
            target = ConvexTarget(verts)
        except ValueError:
            continue
        fams = _families_for(measures)
        hd = dist_to_hull(x, target, fams)
        grid = grid_hull_distance(x, target, fams, step)
        assert hd.value <= grid + tol
        assert grid <= hd.value + 2 * step + tol


def test_hull_distance_is_lower_bound_for_distances_to_mixes():
    rng = random.Random(616)
    measures = [_random_measure(rng) for _ in range(3)]
    x, verts = measures[0], tuple(measures[1:])
    target = ConvexTarget(verts)
    fams = _families_for(measures)
    hd = dist_to_hull(x, target, fams)
    for w0 in (Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)):
        point = mix([w0, 1 - w0], list(target.vertices))
        assert dist(x, point, fams).lower >= hd.value
