"""A family is its keys: sorted, distinct pattern codes over one alphabet
prefix, checked once by the constructor, with the Blocks built only when
``blocks`` is read."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn import symbolic
from blockdyn.frequency import freq_table
from blockdyn.group import Shape, folner_box
from blockdyn.symbolic import (
    AlphabetStack,
    BlockFamily,
    Corpus,
    encode_pattern,
    enumerate_family,
    sample_bernoulli,
)
from helpers import decoded, enumerate_full_family
from test_integer_tables import random_block

F1 = folner_box(1, 1)


# The ids name what each malformed list of codes stands for; codes of F1 x
# rows[1..1] over (2,) lie in 0..7.
@pytest.mark.parametrize(
    "sizes, keys, message",
    [
        pytest.param((2,), (1, 8), "wrong domain", id="sizes0-keys0-wrong domain"),
        pytest.param((2,), (15,), "wrong domain", id="sizes1-keys1-wrong domain"),
        ((2, 2), (1,), "one alphabet size per row"),
        ((), (1,), "one alphabet size per row"),
        ((2,), (2, 1), "distinct and sorted"),
        ((2,), (1, 1), "distinct and sorted"),
        pytest.param(
            (2,), (-1, 1), "outside the alphabet",
            id="sizes6-keys6-row 1 entry outside alphabet of size 2",
        ),
        pytest.param(
            (2,), (-3, 1), "outside the alphabet",
            id="sizes7-keys7-row 1 entry outside alphabet of size 2",
        ),
    ],
)
def test_the_constructor_rejects_malformed_keys(sizes, keys, message):
    with pytest.raises(ValueError, match=message):
        BlockFamily(1, F1, sizes, keys)


def test_the_alphabet_range_is_checked_row_by_row():
    base = folner_box(2, 1)
    low, high = (0,) * 5 + (2,) * 5, (1,) * 5 + (0,) * 5
    keys = (encode_pattern(low, (2, 3), 5), encode_pattern(high, (2, 3), 5))
    assert len(BlockFamily(2, base, (2, 3), keys)) == 2
    assert keys[-1] == 2**5 * 3**5 - 3**5
    with pytest.raises(ValueError, match="outside the alphabet"):
        BlockFamily(2, base, (2, 3), (2**5 * 3**5,))
    # the same codes over (3, 2) are fewer patterns' codes, but in range
    assert len(BlockFamily(2, base, (3, 2), keys)) == 2
    with pytest.raises(ValueError, match="outside the alphabet"):
        BlockFamily(2, base, (3, 2), (3**5 * 2**5,))


@pytest.mark.parametrize("window", [Shape.interval(0, 60), Shape.box((0, 0), (9, 11))])
def test_the_family_builders_build_no_block(window, monkeypatch):
    stack = AlphabetStack((2, 3))
    corpus = Corpus(stack, (sample_bernoulli(window, stack, [[0.5, 0.5], [0.2, 0.3, 0.5]], 7),))

    def no_block(self, *args, **kwargs):
        raise AssertionError("a Block was built")

    monkeypatch.setattr(symbolic.Block, "__init__", no_block)
    families = [enumerate_family(corpus, k) for k in (1, 2)]
    families.append(enumerate_full_family(AlphabetStack((3,)), 1, window.dim))
    monkeypatch.undo()
    for fam in families:
        symbols = tuple(decoded(dict.fromkeys(fam.keys), fam.sizes, len(fam.base)))
        assert tuple(b.symbols for b in fam.blocks) == symbols


@st.composite
def corpora(draw) -> Corpus:
    """One to three blocks on boxes of one or two dimensions, some smaller
    than the level-2 base, over one stack of two rows."""
    dim = draw(st.integers(1, 2))
    sizes = tuple(draw(st.integers(2, 3)) for _ in range(2))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        lo = [draw(st.integers(-3, 3)) for _ in range(dim)]
        hi = [a + draw(st.integers(0, 11 if dim == 1 else 6)) for a in lo]
        out.append(random_block(draw, Shape.box(lo, hi), sizes))
    return Corpus(AlphabetStack(sizes), tuple(out))


@settings(max_examples=60, deadline=None)
@given(corpora(), st.integers(1, 2))
def test_the_keys_are_the_sorted_union_of_the_frequency_tables(corpus, k):
    fam = enumerate_family(corpus, k)
    base = folner_box(k, corpus.dim)
    union = set().union(*(freq_table(b, base, k) for b in corpus.blocks))
    assert fam.keys == tuple(sorted(union))
    sizes = corpus.stack.sizes[:k]
    assert (fam.level, fam.base, fam.sizes, len(fam)) == (k, base, sizes, len(union))
    blocks = fam.blocks
    symbols = tuple(decoded(dict.fromkeys(fam.keys), sizes, len(base)))
    assert tuple(b.symbols for b in blocks) == symbols == tuple(sorted(symbols))
    assert all((b.shape, b.depth, b.sizes) == (base, k, sizes) for b in blocks)
    assert fam.blocks is blocks and list(fam) == list(blocks)
