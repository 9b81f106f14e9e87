"""Pinned outputs of the samplers and of the anchor scans.

The values were captured before the categorical draws and the anchor-box
scans were each merged into one helper, so they prove the merged code
draws and scans exactly as the separate copies did.
"""

from fractions import Fraction as F

import pytest

from blockdyn.construction import sample_from_measure
from blockdyn.frequency import corpus_subblocks, count_embeddings, embedding_anchors
from blockdyn.group import Shape, folner_box
from blockdyn.measures import CylinderMeasure
from blockdyn.symbolic import AlphabetStack, Block, Corpus, sample_bernoulli, sample_markov
from blockdyn.testkit import oracle_count_embeddings


def test_sample_bernoulli_pinned():
    block = sample_bernoulli(
        Shape.interval(0, 17),
        AlphabetStack((3, 2)),
        [[F(1, 5), F(3, 10), F(1, 2)], [F(1, 3), F(2, 3)]],
        seed=7,
    )
    assert block.symbols == (
        1, 0, 2, 0, 2, 1, 0, 2, 0, 1, 0, 0, 1, 2, 0, 1, 2, 2,
        1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0,
    )


def test_sample_bernoulli_zero_probability_symbol_pinned():
    block = sample_bernoulli(
        Shape.box((0, 0), (2, 3)), AlphabetStack((3,)), [[F(1, 2), F(0), F(1, 2)]], seed=3
    )
    assert block.symbols == (0, 2, 0, 2, 2, 0, 0, 2, 0, 0, 2, 0)


def test_sample_bernoulli_one_symbol_row_pinned():
    # A one-symbol row still draws one variate per cell: with none drawn for
    # row 1, row 2 would read (2, 0, 2, 0, 0, 2, 2, 2, 2, 2, 2, 2).
    block = sample_bernoulli(
        Shape.box((0, 0), (2, 3)), AlphabetStack((1, 3)), [[F(1)], [F(1, 5), F(0), F(4, 5)]], seed=4
    )
    assert block.symbols == (
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2,
    )


def test_sample_markov_pinned():
    block = sample_markov(
        Shape.interval(-4, 15),
        AlphabetStack((3,)),
        [F(1, 3)] * 3,
        [
            [F(1, 2), F(1, 4), F(1, 4)],
            [F(1, 5), F(3, 5), F(1, 5)],
            [F(1, 6), F(1, 3), F(1, 2)],
        ],
        seed=11,
    )
    assert block.symbols == (
        1, 1, 2, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 2, 2, 0, 2, 2, 2, 2,
    )


def test_sample_from_measure_pinned():
    base = folner_box(1, 1)
    mu = CylinderMeasure(
        1,
        base,
        {
            Block(base, 1, (2,), (0, 0, 1)): F(1, 2),
            Block(base, 1, (2,), (0, 1, 0)): F(1, 3),
            Block(base, 1, (2,), (1, 1, 1)): F(1, 6),
        },
    )
    # 11 cells: three placed translates of the base plus two leftover cells
    # in row 1, and a second row deeper than the measure drawn uniformly.
    block = sample_from_measure(mu, Shape.interval(0, 10), 2, seed=5, sizes=(2, 3))
    assert block.symbols == (
        0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1,
        2, 0, 1, 2, 1, 2, 0, 1, 0, 1, 1,
    )


NON_BOX = Shape.of([(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 2), (1, 3), (4, 4)])


@pytest.mark.parametrize(
    "outer, inner",
    [
        (NON_BOX, Shape.of([(1, 0), (1, 1)])),
        (NON_BOX, Shape.of([(2, 3), (3, 3)])),
        (NON_BOX, Shape.of([(-1, -1)])),
        (Shape.of([(0,), (1,), (2,), (5,), (6,), (9,)]), Shape.of([(3,), (4,)])),
        (Shape.interval(0, 9), Shape.of([(5,)])),
        (Shape.interval(0, 9), Shape.of([], dim=1)),
        (Shape.of([], dim=1), Shape.interval(0, 1)),
        (Shape.of([], dim=1), Shape.of([], dim=1)),
    ],
)
def test_count_embeddings_matches_oracle_off_the_origin(outer, inner):
    assert count_embeddings(outer, inner) == oracle_count_embeddings(outer, inner)
    assert all(g in outer for g in embedding_anchors(outer, inner))


def test_corpus_subblocks_pinned_for_window_off_the_origin():
    stack = AlphabetStack((3, 2))
    c1 = Block(
        Shape.box((0, 0), (3, 3)), 2, (3, 2),
        (0, 2, 2, 0, 1, 1, 1, 2, 0, 0, 2, 1, 2, 0, 1, 2,
         0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    )
    c2 = Block(
        Shape.box((-1, 2), (1, 6)), 2, (3, 2),
        (2, 2, 0, 0, 2, 2, 2, 0, 1, 1, 1, 0, 1, 1, 2,
         1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0),
    )
    window = Shape.of([(1, 0), (1, 1), (2, 1)])
    subs = list(corpus_subblocks(Corpus(stack, (c1, c2)), window, 2))
    assert all(s.shape == window and s.depth == 2 for s in subs)
    assert [s.symbols for s in subs] == [
        (0, 2, 1, 0, 1, 1), (2, 2, 1, 1, 1, 1), (2, 0, 2, 1, 0, 0),
        (1, 1, 0, 0, 1, 0), (1, 1, 2, 1, 1, 0), (1, 2, 1, 1, 0, 0),
        (0, 0, 0, 0, 0, 0), (0, 2, 1, 0, 0, 0), (2, 1, 2, 0, 0, 0),
        (2, 2, 2, 1, 1, 0), (2, 0, 0, 1, 1, 0), (0, 0, 1, 1, 0, 0),
        (0, 2, 1, 0, 0, 0), (2, 2, 0, 0, 0, 1), (2, 0, 1, 0, 0, 1),
        (0, 1, 1, 0, 0, 0), (1, 1, 2, 0, 0, 0),
    ]
