"""Embedding counts, occurrence counts and pattern frequencies.

Frequencies are taken over the anchored embedding set {g in F : E + g
within F}; there is no wraparound, so boundary deficits are visible and
exactly quantifiable.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .group import Point, Shape, _anchor_box, folner_box
from .symbolic import AlphabetStack, Block, Corpus, _box_runs, _read, _runs_at
from .symbolic import sample_bernoulli, subblock_at

if TYPE_CHECKING:
    from .measures import CylinderMeasure


def embedding_anchors(outer: Shape, inner: Shape) -> tuple[Point, ...]:
    """Anchors g in outer with inner + g contained in outer, sorted."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch")
    if not outer or not inner:
        # no anchors in an empty outer; an empty inner fits at every g
        return outer.sorted_points
    if outer.is_box():
        # inner + g lies inside a box exactly when g lies in the anchor box
        (lo, hi), (ilo, ihi) = outer.bounds(), inner.bounds()
        ranges = (range(max(a, a - b), min(c, c - d) + 1) for a, b, c, d in zip(lo, ilo, hi, ihi))
        return tuple(cartesian(*ranges))
    return tuple(
        g for g in _anchor_box(outer, inner)
        if g in outer and _runs_at(outer, inner, 0, g) is not None
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


class CountTable(Mapping[tuple[int, ...], Fraction]):
    """Integer numerators over one positive denominator, read as Fractions:
    ``table[key]`` is ``Fraction(counts[key], total)``.

    Every value of a frequency table or a marginal shares its denominator,
    so readers compare cross-multiplied ``counts`` and build one Fraction
    per value they return.  An empty table has total 1.  Tables are cached
    and shared, so ``counts`` is a read-only view of the dict it is given,
    which no one may change afterwards, and neither field can be set.
    """

    __slots__ = ("counts", "total")
    counts: Mapping[tuple[int, ...], int]
    total: int

    def __init__(self, counts: dict[tuple[int, ...], int], total: int) -> None:
        object.__setattr__(self, "counts", MappingProxyType(counts))
        object.__setattr__(self, "total", total)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("a CountTable is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("a CountTable is read-only")

    def __getitem__(self, key: tuple[int, ...]) -> Fraction:
        return Fraction(self.counts[key], self.total)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)


@lru_cache(maxsize=512)
def freq_table(block: Block, inner: Shape, depth: int) -> CountTable:
    """Frequencies of all patterns on inner x rows[1..depth] inside ``block``:
    the occurrence counts over the embedding count.

    Empty when no translate of ``inner`` embeds.  Values sum to exactly 1
    otherwise.  The table is cached and shared, so it is read-only.
    """
    counts = pattern_counts(block, inner, depth)
    return CountTable(counts, sum(counts.values()) or 1)


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
        counts, t = table.counts, table.total
        nums, d = marg.counts, marg.total
        # |c/t - n/d| = |c d - n t| / (t d); ``top`` is the running maximum
        # numerator, and it reaches ``stop`` once it reaches ``reach``.
        den = t * d
        reach = den + 1 if stop is None else -(-stop.numerator * den // stop.denominator)
        top = 0
        for key in set(counts) | set(nums):
            dev = abs(counts.get(key, 0) * d - nums.get(key, 0) * t)
            if dev > top:
                top = dev
            if top >= reach:
                return max(worst, Fraction(top, den))
        worst = max(worst, Fraction(top, den))
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
        if not block.shape:
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
