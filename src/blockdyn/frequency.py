"""Embedding counts, occurrence counts and pattern frequencies.

Frequencies are taken over the anchored embedding set {g in F : E + g
within F}; there is no wraparound, so boundary deficits are visible and
exactly quantifiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .group import Point, Shape, _anchor_box, folner_box
from .symbolic import AlphabetStack, Block, Corpus, _box_runs, _read, _runs_at
from .symbolic import sample_bernoulli, subblock_at

if TYPE_CHECKING:
    from .measures import CylinderMeasure


def embedding_anchors(outer: Shape, inner: Shape) -> tuple[Point, ...]:
    """Anchors g in outer with inner + g contained in outer, sorted."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch")
    if not outer.points or not inner.points:
        # no anchors in an empty outer; an empty inner fits at every g
        return outer.sorted_points
    # inner + g lies inside a box exactly when g lies in the anchor box;
    # other shapes ask the cell kernel whether inner + g fits
    pts, box = outer.points, outer.is_box()
    return tuple(
        g for g in _anchor_box(outer, inner)
        if g in pts and (box or _runs_at(outer, inner, 0, g) is not None)
    )


def count_embeddings(outer: Shape, inner: Shape) -> int:
    """|{g in outer : inner + g within outer}|."""
    return len(embedding_anchors(outer, inner))


def pattern_counts(block: Block, inner: Shape, depth: int) -> dict[tuple[int, ...], int]:
    """Occurrence counts of every pattern on inner x rows[1..depth] in one scan.

    Keys are row-major symbol tuples relative to the sorted points of
    ``inner``, i.e. exactly ``Block.symbols`` of the re-based patterns, in
    the order of their first anchor in ``embedding_anchors``.  Keys are read
    through ``symbolic._runs_at``, except on two boxes, the hot path, which
    loops over the kernel's cached ``_box_runs`` inline with the same result.
    """
    if not 1 <= depth <= block.depth:
        raise ValueError(f"depth must lie in 1..{block.depth}, got {depth}")
    counts: dict[tuple[int, ...], int] = {}
    anchors = embedding_anchors(block.shape, inner)
    symbols = block.symbols
    runs = _box_runs(block.shape, inner, depth)
    if runs is not None:
        starts, length, flat, _, _ = runs
        for a in map(flat, anchors):
            key: tuple[int, ...] = ()
            for s in starts:
                key += symbols[a + s : a + s + length]
            counts[key] = counts.get(key, 0) + 1
        return counts
    for g in anchors:
        key = _read(symbols, _runs_at(block.shape, inner, depth, g))
        counts[key] = counts.get(key, 0) + 1
    return counts


@lru_cache(maxsize=512)
def freq_table(
    block: Block, inner: Shape, depth: int
) -> Mapping[tuple[int, ...], Fraction]:
    """Frequencies of all patterns on inner x rows[1..depth] inside ``block``.

    Empty when no translate of ``inner`` embeds.  Values sum to exactly 1
    otherwise.  The table is cached and shared, so it is read-only.
    """
    counts = pattern_counts(block, inner, depth)
    total = sum(counts.values())
    return MappingProxyType({key: Fraction(c, total) for key, c in counts.items()})


def count_occurrences(block: Block, pattern: Block) -> int:
    """|{g in shape(B) : shape(C) + g within shape(B), B reads C at g}|."""
    if pattern.depth > block.depth:
        raise ValueError("pattern deeper than block")
    if pattern.sizes != block.sizes[: pattern.depth]:
        raise ValueError("alphabet stack mismatch")
    counts = pattern_counts(block, pattern.shape, pattern.depth)
    return counts.get(pattern.symbols, 0)


def freq(block: Block, pattern: Block) -> Fraction:
    """Occurrence count divided by the embedding count; 0 when nothing embeds."""
    if pattern.depth > block.depth:
        raise ValueError("pattern deeper than block")
    if pattern.sizes != block.sizes[: pattern.depth]:
        raise ValueError("alphabet stack mismatch")
    table = freq_table(block, pattern.shape, pattern.depth)
    return table.get(pattern.symbols, Fraction(0))


def block_measure_gap_bound(delta: Fraction, folner_size: int) -> Fraction:
    """Upper bound on |frequency - marginal of the block measure| for a block
    on a (F, delta)-invariant shape, where folner_size = |F|.

    The bound is u + u / (1 - u) with u = delta * |F|: the first summand
    covers the embedding-count ratio deficit, the second the stray
    occurrences that straddle the boundary.
    """
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be non-negative")
    u = delta * folner_size
    if u >= 1:
        raise ValueError("delta * |F| must be below 1")
    return u + u / (1 - u)


def tiling_average_gap_bound(delta: Fraction, folner_size: int) -> Fraction:
    """Upper bound on |frequency in the host block - tile-weighted average of
    tile frequencies| for a host (1 - delta)-tiled by (F, delta)-invariant
    tiles, where folner_size = |F|.

    Sum of the three error terms: positions too close to tile boundaries,
    the mismatch between the host's embedding count and the total tile
    volume, and the per-tile embedding deficit.
    """
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta >= 1 or delta * folner_size >= 1:
        raise ValueError("delta and delta * |F| must be below 1")
    s = folner_size
    return (
        delta * (s + 1)
        + delta * (s + 2) / (1 - delta)
        + delta * s / (1 - delta * s)
    )


def marginal_deviation(
    block: Block, measure: "CylinderMeasure", depth: int, stop: Fraction | None = None
) -> Fraction:
    """Max over levels 1..depth of |frequency in block - marginal of measure|
    over the patterns on F_level x rows[1..level]; returns early once the
    running maximum reaches ``stop``."""
    worst = Fraction(0)
    for level in range(1, depth + 1):
        base = folner_box(level, block.dim)
        table = freq_table(block, base, level)
        marg = measure.marginal(base, level)
        for key in set(table) | set(marg):
            dev = abs(table.get(key, Fraction(0)) - marg.get(key, Fraction(0)))
            worst = max(worst, dev)
            if stop is not None and worst >= stop:
                return worst
    return worst


@dataclass(frozen=True)
class TypicalBlock:
    """Search outcome: a block whose pattern frequencies track a target."""

    block: Block
    deviation: Fraction
    candidates_tried: int


def corpus_subblocks(corpus: Corpus, window: Shape, depth: int) -> Iterator[Block]:
    """All re-based patterns with domain window x rows[1..depth], in corpus
    order then anchor order."""
    for block in corpus.blocks:
        if not block.shape.points:
            continue
        for g in _anchor_box(block.shape, window):
            sub = subblock_at(block, window, g, depth)
            if sub is not None:
                yield sub


def bernoulli_stream(
    window: Shape,
    stack: AlphabetStack,
    probabilities: Sequence[Sequence[object]],
    seed: int,
) -> Iterator[Block]:
    """Infinite stream of seeded i.i.d. blocks (seed advances per candidate)."""
    i = 0
    while True:
        yield sample_bernoulli(window, stack, probabilities, seed + 7919 * i)
        i += 1


def find_typical_block(
    target: "CylinderMeasure",
    window: Shape,
    depth: int,
    eps: Fraction,
    source: Corpus | Iterable[Block],
    budget: int = 100,
) -> TypicalBlock | None:
    """Search for a block on window x rows[1..depth] whose frequencies are
    uniformly eps-close to the target at every level up to ``depth``.

    Candidates are drawn from the source in order (corpus scan order for a
    Corpus, iteration order otherwise) until one qualifies or the budget
    of candidate blocks is exhausted; exhaustion returns None.
    """
    if target.depth < depth:
        raise ValueError("target depth is smaller than the requested depth")
    eps = Fraction(eps)
    candidates: Iterable[Block]
    if isinstance(source, Corpus):
        candidates = corpus_subblocks(source, window, depth)
    else:
        candidates = iter(source)
    tried = 0
    for cand in candidates:
        if tried >= budget:
            break
        tried += 1
        if cand.shape != window or cand.depth < depth:
            raise ValueError("candidate does not live on the requested domain")
        worst = marginal_deviation(cand, target, depth, stop=eps)
        if worst < eps:
            return TypicalBlock(block=cand, deviation=worst, candidates_tried=tried)
    return None
