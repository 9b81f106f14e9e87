import itertools
from fractions import Fraction

from blockdyn.frequency import count_embeddings, freq, freq_table
from blockdyn.group import Shape, folner_box
from blockdyn.symbolic import AlphabetStack, encode_pattern, sample_bernoulli
from blockdyn.testkit import (
    oracle_count_embeddings,
    oracle_freq,
    small_instance_suite,
)
from helpers import block_from_word

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
        every = [encode_pattern(p, (2,), 3) for p in itertools.product((0, 1), repeat=3)]
        total = sum(table.get(p, Fraction(0)) for p in every)
        assert total == 1


def test_optimized_equals_oracle_on_suite():
    for host, pattern in small_instance_suite(314):
        assert count_embeddings(host.shape, pattern.shape) == oracle_count_embeddings(
            host.shape, pattern.shape
        )
        assert freq(host, pattern) == oracle_freq(host, pattern)
