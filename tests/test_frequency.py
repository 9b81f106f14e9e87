import itertools
from fractions import Fraction

import pytest

from blockdyn.files import block_from_word
from blockdyn.frequency import (
    bernoulli_stream,
    block_measure_gap_bound,
    count_embeddings,
    count_occurrences,
    find_typical_block,
    freq,
    freq_table,
)
from blockdyn.group import Shape, folner_box
from blockdyn.measures import CylinderMeasure, block_measure
from blockdyn.symbolic import AlphabetStack, Block, Corpus, sample_bernoulli
from blockdyn.testkit import (
    oracle_count_embeddings,
    oracle_freq,
    small_instance_suite,
)

WORD = block_from_word("aababab", start=-3)
AAB = block_from_word("aab", start=-1)
ABA = block_from_word("aba", start=-1)
BAB = block_from_word("bab", start=-1)


def test_count_embeddings_interval():
    assert count_embeddings(Shape.interval(-3, 3), Shape.interval(-1, 1)) == 5


def test_count_embeddings_equal_shapes():
    f = Shape.interval(-1, 1)
    assert count_embeddings(f, f) == 1


def test_count_embeddings_planar():
    assert count_embeddings(Shape.box((-2, -2), (2, 2)), Shape.box((-1, -1), (1, 1))) == 9


def test_count_occurrences_word():
    assert count_occurrences(WORD, ABA) == 2


def test_count_occurrences_self():
    assert count_occurrences(WORD, WORD) == 1


def test_count_occurrences_absent():
    bbb = block_from_word("bbb", start=-1)
    assert count_occurrences(WORD, bbb) == 0


def test_count_occurrences_stack_mismatch():
    other = Block(Shape.interval(-1, 1), 1, (3,), (0, 1, 0))
    with pytest.raises(ValueError):
        count_occurrences(WORD, other)


def test_freq_word_values():
    assert freq(WORD, AAB) == Fraction(1, 5)
    assert freq(WORD, ABA) == Fraction(2, 5)
    assert freq(WORD, BAB) == Fraction(2, 5)


def test_freq_no_embedding_is_zero():
    wide = block_from_word("aaaaaaaaaa", start=0)
    assert freq(AAB, wide) == 0


def test_freq_normalization_exact():
    stack = AlphabetStack((2,))
    for seed in range(5):
        block = sample_bernoulli(Shape.interval(-10, 10), stack, [[0.5, 0.5]], seed=seed)
        table = freq_table(block, folner_box(1, 1), 1)
        assert sum(table.values()) == 1
        # sum over *all* patterns equals 1 because missing ones contribute 0
        every = list(itertools.product((0, 1), repeat=3))
        total = sum(table.get(p, Fraction(0)) for p in every)
        assert total == 1


def test_optimized_equals_oracle_on_suite():
    for host, pattern in small_instance_suite(314):
        assert count_embeddings(host.shape, pattern.shape) == oracle_count_embeddings(
            host.shape, pattern.shape
        )
        assert freq(host, pattern) == oracle_freq(host, pattern)


def test_find_typical_point_mass_on_constant():
    f1 = folner_box(1, 1)
    const = Block.constant(f1, 1, (2,), 1)
    target = CylinderMeasure(1, f1, {const: Fraction(1)})
    window = Shape.interval(0, 9)
    candidates = [Block.constant(window, 1, (2,), 1)]
    got = find_typical_block(target, window, 1, Fraction(1, 10), candidates, budget=5)
    assert got is not None and got.deviation == 0


def test_find_typical_block_itself_qualifies_within_gap_bound():
    # a block's own measure is within the marginal-gap bound of its
    # frequencies, so the block is found once eps clears that bound
    stack = AlphabetStack((2, 2))
    window = Shape.interval(-30, 30)
    block = sample_bernoulli(window, stack, [[0.5, 0.5], [0.5, 0.5]], seed=9)
    target = block_measure(block, 2)
    f2 = folner_box(2, 1)
    from blockdyn.group import invariance_ratio

    delta = invariance_ratio(window, f2) + Fraction(1, 1000)
    eps = block_measure_gap_bound(delta, len(f2)) + Fraction(1, 1000)
    corpus = Corpus(stack, (block,))
    got = find_typical_block(target, window, 2, eps, corpus, budget=200)
    assert got is not None
    assert got.block == block


def test_find_typical_budget_exhaustion_returns_none():
    f1 = folner_box(1, 1)
    const = Block.constant(f1, 1, (2,), 1)
    target = CylinderMeasure(1, f1, {const: Fraction(1)})
    window = Shape.interval(0, 9)
    candidates = [Block.constant(window, 1, (2,), 0)] * 3
    got = find_typical_block(target, window, 1, Fraction(1, 10), candidates, budget=3)
    assert got is None


def test_find_typical_bernoulli_seeded_regression():
    # seeded run; the recorded deviation is a regression value
    stack = AlphabetStack((2,))
    f1 = folner_box(1, 1)
    masses = {
        Block(f1, 1, (2,), bits): Fraction(1, 8)
        for bits in itertools.product((0, 1), repeat=3)
    }
    target = CylinderMeasure(1, f1, masses)
    window = Shape.interval(-200, 200)
    stream = bernoulli_stream(window, stack, [[0.5, 0.5]], seed=1234)
    got = find_typical_block(target, window, 1, Fraction(1, 10), stream, budget=10)
    assert got is not None
    assert got.candidates_tried == 1
    assert got.deviation == Fraction(27, 1064)
