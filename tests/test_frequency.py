import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn.frequency import count_embeddings, freq, freq_table, pattern_counts
from blockdyn.group import Shape, folner_box
from blockdyn.symbolic import AlphabetStack, Block, encode_pattern, sample_bernoulli
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


def test_an_inner_shape_of_another_dimension_raises_box_or_point_set():
    block = Block(Shape.interval(0, 5), 1, (2,), (0, 1, 1, 0, 1, 0))
    square = Block(Shape.box((0, 0), (1, 1)), 1, (2,), (0, 1, 1, 0))
    diagonal = Shape.of([(0, 0), (1, 1)])
    for inner in (square.shape, diagonal):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            pattern_counts(block, inner, 1)
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            freq_table(block, inner, 1)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        freq(block, square)


def test_count_embeddings_interval():
    assert count_embeddings(Shape.interval(-3, 3), Shape.interval(-1, 1)) == 5


def test_count_embeddings_equal_shapes():
    f = Shape.interval(-1, 1)
    assert count_embeddings(f, f) == 1


def test_count_embeddings_planar():
    assert count_embeddings(Shape.box((-2, -2), (2, 2)), Shape.box((-1, -1), (1, 1))) == 9


@st.composite
def outer_inner(draw):
    """Two shapes of one dimension, 1 to 3, each a box of up to 6 cells per
    axis near the origin or a non-empty point set in one; the inner may be
    larger than the outer."""
    dim = draw(st.integers(1, 3))

    def shape():
        lo = [draw(st.integers(-2, 2)) for _ in range(dim)]
        box = Shape.box(lo, [a + draw(st.integers(0, 5 if dim < 3 else 3)) for a in lo])
        if draw(st.booleans()):
            return box
        return Shape.of(draw(st.lists(st.sampled_from(box.sorted_points), min_size=1, unique=True)))

    return shape(), shape()


@settings(max_examples=300, deadline=None)
@given(outer_inner())
def test_count_embeddings_equals_oracle(shapes):
    assert count_embeddings(*shapes) == oracle_count_embeddings(*shapes)


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
