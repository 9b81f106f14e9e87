import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn import symbolic
from blockdyn.files import block_from_word, block_to_word
from blockdyn.group import Shape, point_neg
from blockdyn.symbolic import (
    AlphabetStack,
    Block,
    Corpus,
    block_translate,
    enumerate_family,
    enumerate_full_family,
    restrict,
    sample_bernoulli,
    subblock_at,
)

WORD = block_from_word("aababab", start=-3)


def test_restrict_identity():
    assert restrict(WORD, WORD.shape, WORD.depth) == WORD


def test_restrict_readoff():
    got = restrict(WORD, Shape.interval(-1, 1), 1)
    assert block_to_word(got) == "bab"


def test_restrict_empty():
    got = restrict(WORD, Shape(1, frozenset()), 1)
    assert len(got) == 0 and got.symbols == ()


def test_restrict_errors():
    with pytest.raises(ValueError):
        restrict(WORD, Shape.interval(2, 5), 1)
    with pytest.raises(ValueError):
        restrict(WORD, Shape.interval(-1, 1), 2)


def test_subblock_readoff():
    got = subblock_at(WORD, Shape.interval(-1, 1), (2,), 1)
    assert got is not None and block_to_word(got) == "bab"
    assert got.shape == Shape.interval(-1, 1)


def test_subblock_absent():
    assert subblock_at(WORD, Shape.interval(-1, 1), (3,), 1) is None


def test_subblock_full():
    assert subblock_at(WORD, WORD.shape, (0,), 1) == WORD


def test_block_validates_entries():
    with pytest.raises(ValueError):
        Block(Shape.interval(0, 1), 1, (2,), (0, 2))
    with pytest.raises(ValueError):
        Block(Shape.interval(0, 1), 1, (2,), (0, 1, 0))
    with pytest.raises(ValueError, match="row 1 entry outside alphabet of size 2"):
        Block(Shape.interval(0, 1), 1, (2,), (-1, 0))
    with pytest.raises(ValueError, match="row 2 entry outside alphabet of size 3"):
        Block(Shape.interval(0, 1), 2, (2, 3), (1, 1, 2, 3))
    assert Block(Shape.interval(0, 1), 2, (2, 3), (1, 1, 2, 0)).row(2) == (2, 0)


def test_enumerate_family_word():
    corpus = Corpus(AlphabetStack((2,)), (WORD,))
    fam = enumerate_family(corpus, 1)
    assert [block_to_word(b) for b in fam.blocks] == ["aab", "aba", "bab"]


def test_enumerate_family_constant():
    const = Block.constant(Shape.interval(-4, 4), 1, (2,), 1)
    fam = enumerate_family(Corpus(AlphabetStack((2,)), (const,)), 1)
    assert len(fam) == 1 and fam.blocks[0].symbols == (1, 1, 1)


def test_enumerate_family_set_semantics():
    c1 = Corpus(AlphabetStack((2,)), (WORD,))
    c2 = Corpus(AlphabetStack((2,)), (WORD, WORD))
    assert enumerate_family(c1, 1) == enumerate_family(c2, 1)


def test_enumerate_family_empty_corpus_errors():
    with pytest.raises(ValueError):
        enumerate_family(Corpus(AlphabetStack((2,)), ()), 1)


def test_family_cardinality_bound():
    stack = AlphabetStack((2, 2))
    block = sample_bernoulli(
        Shape.interval(-8, 8), stack, [[0.5, 0.5], [0.5, 0.5]], seed=4
    )
    fam = enumerate_family(Corpus(stack, (block,)), 1)
    translates = 17 - 2
    assert len(fam) <= min(2 ** 3 * 2 ** 3, translates)


def test_enumerate_full_family_counts_and_cap():
    stack = AlphabetStack((2,))
    fam = enumerate_full_family(stack, 1, 1)
    assert len(fam) == 8
    with pytest.raises(ValueError):
        enumerate_full_family(AlphabetStack((2,)), 3, 2, cap=1000)


def test_enumerate_full_family_forbidden():
    stack = AlphabetStack((2,))
    bb = block_from_word("bb", start=0)
    fam = enumerate_full_family(stack, 1, 1, forbidden=(bb,))
    words = [block_to_word(b) for b in fam.blocks]
    assert "abb" not in words and "bba" not in words and "aba" in words
    assert len(fam) == 5


def test_sample_bernoulli_deterministic_and_point_mass():
    stack = AlphabetStack((3,))
    window = Shape.interval(0, 9)
    b1 = sample_bernoulli(window, stack, [[0, 1, 0]], seed=123)
    assert set(b1.row(1)) == {1}
    b2 = sample_bernoulli(window, stack, [[0.3, 0.3, 0.4]], seed=42)
    b3 = sample_bernoulli(window, stack, [[0.3, 0.3, 0.4]], seed=42)
    assert b2 == b3
    b4 = sample_bernoulli(window, stack, [[0.3, 0.3, 0.4]], seed=43)
    assert b2 != b4


@pytest.mark.parametrize("probs", [[0.25, 0.75], [0.2, 0.3, 0.1, 0.4], [0.1] * 10])
def test_sample_bernoulli_equals_the_cell_by_cell_draw(probs):
    """Weights that sum to exactly 1 and weights that sum to 1 only within
    1e-9 (``[0.1] * 10``) give the block that one _draw per cell gives."""
    stack = AlphabetStack((len(probs), len(probs)))
    window = Shape.box((0, 0), (6, 8))
    cum = list(accumulate(probs))
    rng = random.Random(99)
    expected = tuple(symbolic._draw(rng, cum) for _ in range(2 * len(window)))
    assert sample_bernoulli(window, stack, [probs, probs], seed=99).symbols == expected


def test_sample_bernoulli_draws_the_last_symbol_past_the_last_weight(monkeypatch):
    """``[0.1] * 10`` sums to 1 - 2**-53, the largest value random() returns,
    so that variate lies at the last cumulative weight and must still draw
    the last symbol, as _draw does."""
    top = 1 - 2**-53
    assert list(accumulate([0.1] * 10))[-1] == top

    class Top:
        def __init__(self, seed):
            pass

        def random(self):
            return top

    assert symbolic._draw(Top(0), list(accumulate([0.1] * 10))) == 9
    monkeypatch.setattr(symbolic.random, "Random", Top)
    block = sample_bernoulli(Shape.interval(0, 3), AlphabetStack((10,)), [[0.1] * 10], seed=0)
    assert block.symbols == (9, 9, 9, 9)


def test_sample_bernoulli_statistics_planar():
    stack = AlphabetStack((2,))
    window = Shape.box((-50, -50), (50, 50))
    b = sample_bernoulli(window, stack, [[0.5, 0.5]], seed=31)
    zeros = sum(1 for s in b.row(1) if s == 0)
    n = len(window)
    assert abs(zeros / n - 0.5) < 3 * (0.25 / n) ** 0.5


def test_sample_bernoulli_malformed_probabilities():
    stack = AlphabetStack((2,))
    window = Shape.interval(0, 3)
    with pytest.raises(ValueError):
        sample_bernoulli(window, stack, [[0.7, 0.7]], seed=1)
    with pytest.raises(ValueError):
        sample_bernoulli(window, stack, [[1.0]], seed=1)


@settings(max_examples=50, deadline=None)
@given(
    lo1=st.integers(-3, 0), hi1=st.integers(0, 3),
    lo2=st.integers(-3, 0), hi2=st.integers(0, 3),
    j=st.integers(1, 2),
    seed=st.integers(0, 10**6),
)
def test_restrict_composes(lo1, hi1, lo2, hi2, j, seed):
    stack = AlphabetStack((2, 3))
    host = sample_bernoulli(
        Shape.interval(-4, 4), stack, [[0.5, 0.5], [0.2, 0.5, 0.3]], seed=seed
    )
    e1 = Shape.interval(lo1, hi1)
    e2 = Shape.interval(max(lo1, lo2), min(hi1, hi2))
    if not e2.points:
        return
    once = restrict(restrict(host, e1, 2), e2, j)
    direct = restrict(host, e2, j)
    assert once == direct


@settings(max_examples=50, deadline=None)
@given(g=st.integers(-3, 3), seed=st.integers(0, 10**6))
def test_subblock_agrees_with_translate_then_restrict(g, seed):
    stack = AlphabetStack((2,))
    host = sample_bernoulli(Shape.interval(-6, 6), stack, [[0.5, 0.5]], seed=seed)
    window = Shape.interval(-2, 2)
    sub = subblock_at(host, window, (g,), 1)
    moved = block_translate(host, point_neg((g,)))
    if sub is None:
        assert not window.issubset(moved.shape)
        return
    assert sub == restrict(moved, window, 1)


def test_sample_markov_deterministic_chain():
    from blockdyn.symbolic import sample_markov

    stack = AlphabetStack((2,))
    window = Shape.interval(0, 9)
    # deterministic alternation regardless of the draw
    block = sample_markov(window, stack, [1, 0], [[0, 1], [1, 0]], seed=5)
    assert block.row(1) == (0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        sample_markov(window, stack, [0.5, 0.6], [[0, 1], [1, 0]], seed=5)
    with pytest.raises(ValueError):
        sample_markov(Shape.box((0, 0), (2, 2)), stack, [1, 0], [[0, 1], [1, 0]], seed=5)
