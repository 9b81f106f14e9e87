import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockdyn import symbolic
from blockdyn.group import Shape
from blockdyn.symbolic import (
    AlphabetStack,
    Block,
    Corpus,
    enumerate_family,
    sample_bernoulli,
    sample_markov,
    subblock_at,
)
from helpers import block_from_word, block_to_word, constant_block, enumerate_full_family

WORD = block_from_word("aababab", start=-3)


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


@pytest.mark.parametrize("size", [-1, 0, 1, 2, 36, 37, 255, 256, 257])
@pytest.mark.parametrize(
    "row", [(), (0,), (0, 1), (-1, 0), (35, 36), (255,), (256,), (257, 0), (True, 0), (0.5, 1.0)]
)
def test_block_accepts_exactly_the_rows_min_max_accepts(size, row):
    """Block's alphabet check against the min/max rule, at sizes of 0 and
    below too, where every nonempty row is outside the alphabet."""
    shape = Shape.interval(0, len(row) - 1) if row else Shape.box((0,), (-1,))
    if row and (min(row) < 0 or max(row) >= size):
        with pytest.raises(ValueError, match=f"^row 1 entry outside alphabet of size {size}$"):
            Block(shape, 1, (size,), row)
    else:
        assert Block(shape, 1, (size,), row).symbols == row


def test_enumerate_family_word():
    corpus = Corpus(AlphabetStack((2,)), (WORD,))
    fam = enumerate_family(corpus, 1)
    assert [block_to_word(b) for b in fam.blocks] == ["aab", "aba", "bab"]


def test_enumerate_family_constant():
    const = constant_block(Shape.interval(-4, 4), 1, (2,), 1)
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


def old_draw(u: float, cum: list[float]) -> int:
    """The draw rule before rows were checked exactly: the first of the
    running float sums above u, or the last symbol when rounding leaves u
    at or above the final sum."""
    return min(bisect_right(cum, u), len(cum) - 1)


def exact_row(floats: list[float]) -> list[Fraction]:
    """The floats as Fractions, the last one replaced by 1 minus the others:
    an exact row with the floats' cut points."""
    head = [Fraction(p) for p in floats[:-1]]
    return [*head, 1 - sum(head)]


@pytest.mark.parametrize("probs", [[0.25, 0.75], [0.2, 0.3, 0.1, 0.4], [0.1] * 10])
def test_sample_bernoulli_equals_the_cell_by_cell_draw(probs):
    """Floats that sum to exactly 1 and floats that do not (``[0.1] * 10``
    and ``[0.2, 0.3, 0.1, 0.4]``), made exact, give the block that one
    ``old_draw`` per cell over the floats' running sums gives."""
    stack = AlphabetStack((len(probs), len(probs)))
    window = Shape.box((0, 0), (6, 8))
    cum = list(accumulate(probs))
    rng = random.Random(99)
    expected = tuple(old_draw(rng.random(), cum) for _ in range(2 * len(window)))
    row = exact_row(probs)
    assert sample_bernoulli(window, stack, [row, row], seed=99).symbols == expected


def test_sample_bernoulli_draws_the_last_symbol_past_the_last_weight(monkeypatch):
    """``[0.1] * 10`` sums to 1 - 2**-53, the largest value random() returns,
    so that variate lies at the last cumulative weight, where ``old_draw``
    draws the last symbol; so does the exact row with those floats."""
    top = 1 - 2**-53
    assert list(accumulate([0.1] * 10))[-1] == top
    row = exact_row([0.1] * 10)

    class Top:
        def __init__(self, seed):
            pass

        def random(self):
            return top

    assert symbolic._draws(Top(0), symbolic._categorical(row, 10, "row"), 1) == [9]
    monkeypatch.setattr(symbolic.random, "Random", Top)
    block = sample_bernoulli(Shape.interval(0, 3), AlphabetStack((10,)), [row], seed=0)
    assert block.symbols == (9, 9, 9, 9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=6).filter(any))
@example([1])
@example([0, 2, 0, 1, 0])
def test_draws_follow_the_old_rule_at_every_cut(weights):
    """On an exact row, with zero-probability symbols and one-symbol rows
    among them, ``_draws`` draws what ``old_draw`` draws at 0, at each cut
    point and its float neighbours, and at 1 - 2**-53."""
    row = [Fraction(w, sum(weights)) for w in weights]
    cuts = symbolic._categorical(row, len(row), "row")
    cum = list(accumulate(map(float, row)))
    near = [v for c in cuts for v in (math.nextafter(c, 0), c, math.nextafter(c, 1))]
    variates = [0.0, *(u for u in near if 0 <= u < 1), 1 - 2**-53]
    rng = SimpleNamespace(random=iter(variates).__next__)
    assert symbolic._draws(rng, cuts, len(variates)) == [old_draw(u, cum) for u in variates]


REPRO = [Fraction(1, 3), Fraction(666666667, 10**9)]


@pytest.mark.parametrize(
    "bad, why",
    [
        (REPRO, "sum to 3000000001/3000000000"),
        ([float("nan"), 1.0], "NaN"),
        ([float("inf"), 0.0], "Infinity"),
        ([0.5, float("-inf")], "Infinity"),
    ],
    ids=["sum-above-1", "nan", "inf", "minus-inf"],
)
def test_every_sampler_refuses_a_row_whose_exact_sum_is_not_1(bad, why):
    """[1/3, 666666667/1000000000] sums to 1 within 1e-9 in floats, not
    exactly; a NaN or an infinity has no exact value."""
    stack, window, half = AlphabetStack((2,)), Shape.interval(0, 3), [Fraction(1, 2)] * 2
    with pytest.raises(ValueError, match=f"row 1.*{why}"):
        sample_bernoulli(window, stack, [bad], seed=1)
    with pytest.raises(ValueError, match=f"initial distribution.*{why}"):
        sample_markov(window, stack, bad, [half, half], seed=1)
    with pytest.raises(ValueError, match=f"transition row 2.*{why}"):
        sample_markov(window, stack, half, [half, bad], seed=1)


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


def test_sample_markov_deterministic_chain():
    stack = AlphabetStack((2,))
    window = Shape.interval(0, 9)
    # deterministic alternation regardless of the draw
    block = sample_markov(window, stack, [1, 0], [[0, 1], [1, 0]], seed=5)
    assert block.row(1) == (0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        sample_markov(window, stack, [0.5, 0.6], [[0, 1], [1, 0]], seed=5)
    with pytest.raises(ValueError):
        sample_markov(Shape.box((0, 0), (2, 2)), stack, [1, 0], [[0, 1], [1, 0]], seed=5)
