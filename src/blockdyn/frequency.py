"""Embedding counts, pattern counts and pattern frequencies.

Frequencies are taken over the anchored embedding set {g in F : E + g
within F}; there is no wraparound, so boundary deficits are visible and
exactly quantifiable.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian
from math import prod
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator

from .group import Point, Shape, _Record, _anchor_box, folner_box, point_add
from .symbolic import Block, Corpus, _BoxLayout, _layout, encode_pattern, subblock_at

if TYPE_CHECKING:
    from .measures import CylinderMeasure


def _anchor_ranges(outer: Shape, inner: Shape) -> list[range]:
    """Per axis, the anchors g in the box ``outer`` at which the non-empty
    ``inner`` fits: inner + g lies inside a box exactly when g lies in the
    anchor box."""
    (lo, hi), (ilo, ihi) = outer.bounds(), inner.bounds()
    return [range(max(a, a - b), min(c, c - d) + 1) for a, b, c, d in zip(lo, ilo, hi, ihi)]


def embedding_anchors(outer: Shape, inner: Shape) -> tuple[Point, ...]:
    """Anchors g in outer with inner + g contained in outer, sorted."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch")
    if not outer or not inner:
        # no anchors in an empty outer; an empty inner fits at every g
        return outer.sorted_points
    if outer.is_box():
        return tuple(cartesian(*_anchor_ranges(outer, inner)))
    return tuple(
        g for g in _anchor_box(outer, inner)
        if g in outer and _layout(outer, inner, 0).at(g) is not None
    )


def count_embeddings(outer: Shape, inner: Shape) -> int:
    """|{g in outer : inner + g within outer}|; in a box, the product of the
    anchor ranges' lengths, with no anchor built."""
    if outer.dim == inner.dim and outer and inner and outer.is_box():
        return prod(map(len, _anchor_ranges(outer, inner)))
    return len(embedding_anchors(outer, inner))


def pattern_counts(block: Block, inner: Shape, depth: int) -> dict[int, int]:
    """Occurrence counts of every pattern on inner x rows[1..depth] in one scan.

    Keys are the codes (``symbolic.encode_pattern``) of the patterns' row-
    major symbols relative to the sorted points of ``inner``, i.e. of
    ``Block.symbols`` of the re-based patterns, in the order of their first
    anchor in ``embedding_anchors``.
    """
    if not 1 <= depth <= block.depth:
        raise ValueError(f"depth must lie in 1..{block.depth}, got {depth}")
    return _count(block, inner, depth, block.shape, ((0,) * block.dim,))


def _count(
    block: Block, inner: Shape, depth: int, region: Shape, centers: Iterable[Point]
) -> dict[int, int]:
    """The counts of the codes of the patterns on inner x rows[1..depth]
    that ``block`` shows at g + c, for every c in ``centers`` and every
    anchor g of ``inner`` in ``region``, keyed in order of first sight, c
    outermost.  On two boxes and a box region, the hot path, the box layout
    rolls the codes (``_BoxLayout.codes``); otherwise each anchor is read
    and encoded, with the same result."""
    layout = _layout(block.shape, inner, depth)
    symbols, sizes = block.symbols, block.sizes[:depth]
    if isinstance(layout, _BoxLayout) and region.is_box():
        codes = layout.codes(symbols, sizes, _anchor_ranges(region, inner), centers)
    else:
        at, read, cells = layout.at, layout.read, len(inner)
        anchors = embedding_anchors(region, inner)
        codes = (
            encode_pattern(read(symbols, at(point_add(g, c))), sizes, cells)
            for c in centers
            for g in anchors
        )
    # A Counter reads 0 at a missing key, a CountTable must raise KeyError.
    return dict(Counter(codes))


class CountTable(Mapping[int, Fraction], _Record):
    """Integer numerators over one positive denominator, read as Fractions:
    ``table[key]`` is ``Fraction(counts[key], total)``.  Keys are pattern
    codes (``symbolic.encode_pattern``).

    Every value of a frequency table or a marginal shares its denominator,
    so readers compare cross-multiplied ``counts`` and build one Fraction
    per value they return.  An empty table has total 1.  Tables are cached
    and shared, so ``counts`` is a read-only view of the dict it is given,
    which no one may change afterwards, and neither field can be set.
    ``Mapping`` is the first base, so tables compare as mappings.
    """

    __slots__ = ("counts", "total")
    counts: Mapping[int, int]
    total: int

    def __init__(self, counts: dict[int, int], total: int) -> None:
        self._set(MappingProxyType(counts), total)

    def __reduce__(self) -> tuple:
        # a read-only view cannot be copied, the dict it shows can
        return CountTable, (dict(self.counts), self.total)

    def __getitem__(self, key: int) -> Fraction:
        return Fraction(self.counts[key], self.total)

    def __iter__(self) -> Iterator[int]:
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


def freq(block: Block, pattern: Block) -> Fraction:
    """Occurrence count divided by the embedding count; 0 when nothing embeds."""
    if pattern.depth > block.depth:
        raise ValueError("pattern deeper than block")
    if pattern.sizes != block.sizes[: pattern.depth]:
        raise ValueError("alphabet stack mismatch")
    table = freq_table(block, pattern.shape, pattern.depth)
    key = encode_pattern(pattern.symbols, pattern.sizes, len(pattern.shape))
    return table.get(key, Fraction(0))


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


def marginal_deviation(block: Block, measure: "CylinderMeasure", depth: int) -> Fraction:
    """Max over levels 1..depth of |frequency in block - marginal of measure|
    over the patterns on F_level x rows[1..level]."""
    worst = Fraction(0)
    for level in range(1, depth + 1):
        base = folner_box(level, block.dim)
        table = freq_table(block, base, level)
        marg = measure.marginal(base, level)
        counts, t = table.counts, table.total
        nums, d = marg.counts, marg.total
        # |c/t - n/d| = |c d - n t| / (t d); a pattern only the measure has
        # deviates by n t
        top = max(
            max((abs(c * d - nums.get(key, 0) * t) for key, c in counts.items()), default=0),
            max((nums[key] for key in nums.keys() - counts.keys()), default=0) * t,
        )
        worst = max(worst, Fraction(top, t * d))
    return worst


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
