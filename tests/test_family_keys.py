"""A family is its keys: sorted, distinct row-major symbol tuples over one
alphabet prefix, checked once by the constructor, with the Blocks built
only when ``blocks`` is read."""

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
    enumerate_family,
    enumerate_full_family,
    sample_bernoulli,
)
from test_integer_tables import random_block

F1 = folner_box(1, 1)


@pytest.mark.parametrize(
    "sizes, keys, message",
    [
        ((2,), ((0, 0, 1), (0, 1)), "wrong domain"),
        ((2,), ((0, 0, 1, 1),), "wrong domain"),
        ((2, 2), ((0, 0, 1),), "one alphabet size per row"),
        ((), ((0, 0, 1),), "one alphabet size per row"),
        ((2,), ((0, 1, 0), (0, 0, 1)), "distinct and sorted"),
        ((2,), ((0, 0, 1), (0, 0, 1)), "distinct and sorted"),
        ((2,), ((0, 0, 1), (0, 0, 2)), "row 1 entry outside alphabet of size 2"),
        ((2,), ((-1, 0, 1), (0, 0, 1)), "row 1 entry outside alphabet of size 2"),
    ],
)
def test_the_constructor_rejects_malformed_keys(sizes, keys, message):
    with pytest.raises(ValueError, match=message):
        BlockFamily(1, F1, sizes, keys)


def test_the_alphabet_range_is_checked_row_by_row():
    base = folner_box(2, 1)
    low, high = (0,) * 5 + (2,) * 5, (1,) * 5 + (0,) * 5
    assert len(BlockFamily(2, base, (2, 3), (low, high))) == 2
    with pytest.raises(ValueError, match="row 1 entry outside alphabet of size 2"):
        BlockFamily(2, base, (2, 3), ((2,) * 5 + (0,) * 5,))
    with pytest.raises(ValueError, match="row 2 entry outside alphabet of size 2"):
        BlockFamily(2, base, (3, 2), (low, high))


@pytest.mark.parametrize("window", [Shape.interval(0, 60), Shape.box((0, 0), (9, 11))])
def test_the_family_builders_build_no_block(window, monkeypatch):
    stack = AlphabetStack((2, 3))
    corpus = Corpus(stack, (sample_bernoulli(window, stack, [[0.5, 0.5], [0.2, 0.3, 0.5]], 7),))

    def no_block(self):
        raise AssertionError("a Block was built")

    monkeypatch.setattr(symbolic.Block, "__post_init__", no_block)
    families = [enumerate_family(corpus, k) for k in (1, 2)]
    families.append(enumerate_full_family(AlphabetStack((3,)), 1, window.dim))
    monkeypatch.undo()
    for fam in families:
        assert tuple(b.symbols for b in fam.blocks) == fam.keys


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
    assert tuple(b.symbols for b in blocks) == fam.keys
    assert all((b.shape, b.depth, b.sizes) == (base, k, sizes) for b in blocks)
    assert fam.blocks is blocks and list(fam) == list(blocks)
