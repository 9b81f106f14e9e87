import random
from fractions import Fraction

import pytest

from blockdyn.files import block_from_word
from blockdyn.frequency import freq
from blockdyn.group import Shape, folner_box
from blockdyn.measures import ConvexTarget, CylinderMeasure, block_measure
from blockdyn.symbolic import AlphabetStack, Block, BlockFamily
from blockdyn.testkit import (
    block_measure_gap_bound,
    grid_hull_distance,
    oracle_freq,
    oracle_measure_value,
    small_instance_suite,
    tiling_average_gap_bound,
)
from blockdyn.verification import tiling_average_gap_suite


def test_oracle_freq_word():
    word = block_from_word("aababab", start=-3)
    aba = block_from_word("aba", start=-1)
    assert oracle_freq(word, aba) == Fraction(2, 5)


def test_oracle_freq_empty_embedding():
    small = block_from_word("ab", start=0)
    wide = block_from_word("aaaa", start=0)
    assert oracle_freq(small, wide) == 0


def test_oracle_matches_optimized_on_seeded_planar_instances():
    rng = random.Random(100)
    from blockdyn.symbolic import sample_bernoulli

    stack = AlphabetStack((2,))
    for _ in range(100):
        host = sample_bernoulli(
            Shape.box((-4, -4), (4, 4)), stack, [[0.5, 0.5]], seed=rng.randrange(2**30)
        )
        base = folner_box(1, 2)
        pattern = Block(
            base, 1, (2,), tuple(rng.randrange(2) for _ in base.sorted_points)
        )
        assert freq(host, pattern) == oracle_freq(host, pattern)


def test_gap_bound_zero_delta():
    assert block_measure_gap_bound(Fraction(0), 3) == 0
    assert tiling_average_gap_bound(Fraction(0), 3) == 0


def test_gap_bound_worked_value():
    got = block_measure_gap_bound(Fraction(1, 100), 3)
    assert got == Fraction(3, 100) + Fraction(3, 97)


def test_gap_bound_monotone_in_delta():
    values = [block_measure_gap_bound(Fraction(k, 100), 3) for k in range(0, 30, 3)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_gap_bound_domain_errors():
    with pytest.raises(ValueError):
        block_measure_gap_bound(Fraction(1, 3), 3)


def test_tiling_bound_worked_value():
    got = tiling_average_gap_bound(Fraction(1, 100), 3)
    expected = Fraction(1, 25) + Fraction(1, 20) * Fraction(100, 99) + Fraction(3, 100) / Fraction(97, 100)
    assert got == expected


def test_tiling_bound_domain_errors():
    with pytest.raises(ValueError):
        tiling_average_gap_bound(Fraction(1, 2), 3)


def test_tiling_bound_dominates_on_seeded_instances():
    result = tiling_average_gap_suite(seed=555, instances=25)
    assert result.passed


def test_grid_oracle_single_vertex_exact():
    word = block_from_word("aababab", start=-3)
    mu = block_measure(word, 1)
    f1 = folner_box(1, 1)
    nu = CylinderMeasure(1, f1, {block_from_word("aba", start=-1): Fraction(1)})
    words = ("aab", "aba", "bab")
    fam = BlockFamily(1, f1, (2,), tuple(sorted(block_from_word(w).symbols for w in words)))
    got = grid_hull_distance(mu, ConvexTarget((nu,)), [fam], Fraction(1, 10))
    assert got == Fraction(1, 5)


def test_grid_oracle_vertex_in_target_is_zero():
    word = block_from_word("aababab", start=-3)
    mu = block_measure(word, 1)
    f1 = folner_box(1, 1)
    nu = CylinderMeasure(1, f1, {block_from_word("aba", start=-1): Fraction(1)})
    fam = BlockFamily(1, f1, (2,), tuple(sorted(mu.atoms())))
    got = grid_hull_distance(mu, ConvexTarget((mu, nu)), [fam], Fraction(1, 20))
    assert got == 0


def test_grid_oracle_rejects_large_targets():
    f1 = folner_box(1, 1)
    vs = tuple(
        CylinderMeasure(1, f1, {Block(f1, 1, (4,), (s, s, s)): Fraction(1)})
        for s in range(4)
    )
    with pytest.raises(ValueError):
        grid_hull_distance(vs[0], ConvexTarget(vs), [], Fraction(1, 10))


def test_oracle_measure_value_matches_marginal():
    word = block_from_word("aababab", start=-3)
    mu = block_measure(word, 1)
    for b in mu.support():
        assert oracle_measure_value(mu, b) == mu.value(b)


def test_small_instance_suite_is_deterministic_and_bounded():
    a = [(h.symbols, p.symbols) for h, p in small_instance_suite(7)]
    b = [(h.symbols, p.symbols) for h, p in small_instance_suite(7)]
    assert a == b
    for host, _ in small_instance_suite(7):
        assert len(host.shape) <= 10**4
