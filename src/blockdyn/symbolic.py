"""Array-form blocks over Z^d, corpora and pattern families.

A block assigns a symbol to every cell of shape x rows[1..k]; row j draws
its symbols from the j-th alphabet of a stack.  Blocks are immutable and
hashable so they can key measures and form families.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from operator import le, mul, sub
from typing import Callable, Iterator, Sequence

from .group import Point, Shape, _anchor_box, folner_box, point_add, translate


@dataclass(frozen=True)
class AlphabetStack:
    """Alphabet sizes per row; row j uses symbols {0, ..., sizes[j-1] - 1}."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("stack needs at least one row")
        if any(s < 1 for s in self.sizes):
            raise ValueError("alphabet sizes must be positive")

    @property
    def depth(self) -> int:
        return len(self.sizes)

    def prefix(self, j: int) -> AlphabetStack:
        if not 1 <= j <= self.depth:
            raise ValueError(f"depth {j} outside stack of depth {self.depth}")
        return AlphabetStack(self.sizes[:j])


@dataclass(frozen=True)
class Block:
    """A symbol assignment on shape x rows[1..depth].

    ``symbols`` is stored row-major: row 1 over the lexicographically
    sorted shape points, then row 2, and so on.  ``sizes`` is the alphabet
    stack prefix the entries are validated against.  |B| conventionally
    means the cardinality of the shape, not of the full domain.
    """

    shape: Shape
    depth: int
    sizes: tuple[int, ...]
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if len(self.sizes) != self.depth:
            raise ValueError("one alphabet size per row is required")
        if len(self.symbols) != len(self.shape) * self.depth:
            raise ValueError("entry count does not match shape x depth")
        for r in range(self.depth):
            size = self.sizes[r]
            row = self.symbols[r * len(self.shape) : (r + 1) * len(self.shape)]
            if any(not 0 <= s < size for s in row):
                raise ValueError(f"row {r + 1} entry outside alphabet of size {size}")

    @classmethod
    def from_function(
        cls,
        shape: Shape,
        depth: int,
        sizes: Sequence[int],
        fn: Callable[[Point, int], int],
    ) -> Block:
        """Build a block from fn(point, row) with row in 1..depth."""
        pts = shape.sorted_points
        symbols = tuple(fn(p, r) for r in range(1, depth + 1) for p in pts)
        return cls(shape, depth, tuple(sizes), symbols)

    @classmethod
    def constant(cls, shape: Shape, depth: int, sizes: Sequence[int], value: int = 0) -> Block:
        return cls(shape, depth, tuple(sizes), (value,) * (len(shape) * depth))

    def get(self, p: Point, row: int) -> int:
        """Entry at cell (p, row); row is 1-based."""
        return self.symbols[(row - 1) * len(self.shape) + self.shape.index[p]]

    def row(self, row: int) -> tuple[int, ...]:
        n = len(self.shape)
        return self.symbols[(row - 1) * n : (row - 1) * n + n]

    @property
    def dim(self) -> int:
        return self.shape.dim

    def __len__(self) -> int:
        return len(self.shape)


def restrict(block: Block, e: Shape, depth: int | None = None) -> Block:
    """Restriction of a block to a sub-shape and a row prefix (a read at 0)."""
    sub = subblock_at(block, e, (0,) * block.dim, block.depth if depth is None else depth)
    if sub is None:
        raise ValueError("restriction target is not a subset of the block shape")
    return sub


def block_translate(block: Block, g: Sequence[int]) -> Block:
    """The same entries moved to shape + g.  Translation keeps the
    lexicographic order of the points, so the symbols carry over as they are."""
    return Block(translate(block.shape, g), block.depth, block.sizes, block.symbols)


@lru_cache(maxsize=64)
def _box_runs(
    outer: Shape, inner: Shape, depth: int
) -> tuple[tuple[int, ...], int, Callable[[Point], int], Point, Point] | None:
    """(starts, length, flat, lo, hi) for two boxes, else None; cached.

    A block on a box stores its symbols in C order, so the entries of
    (inner + g) x rows[1..depth] are ``symbols[flat(g) + s :][:length]``
    for s in ``starts``: one last-axis run per row of the inner box, rows
    of the stack outermost.  inner + g fits when lo <= g <= hi per axis.
    """
    if not (outer.is_box() and inner.is_box()):
        return None
    (lo, hi), (ilo, ihi) = outer.bounds(), inner.bounds()
    strides = [1] * outer.dim
    for i in range(outer.dim - 1, 0, -1):
        strides[i - 1] = strides[i] * (hi[i] - lo[i] + 1)
    origin = sum(map(mul, lo, strides))

    def flat(p: Point) -> int:
        return sum(map(mul, p, strides)) - origin

    heads = product(*(range(a, b + 1) for a, b in zip(ilo[:-1], ihi[:-1])))
    rel = [sum(map(mul, q, strides)) + ilo[-1] for q in heads]
    n = len(outer)
    starts = tuple(r * n + s for r in range(depth) for s in rel)
    glo, ghi = tuple(map(sub, lo, ilo)), tuple(map(sub, hi, ihi))
    return starts, ihi[-1] - ilo[-1] + 1, flat, glo, ghi


def _runs_at(outer: Shape, inner: Shape, depth: int, g: Point) -> list[tuple[int, int]] | None:
    """The cell-addressing kernel: (start, stop) slices of the row-major
    symbols of a block on ``outer`` that list (inner + g) x rows[1..depth]
    in ``Block.symbols`` order, or None when inner + g does not fit.

    Two boxes give one slice per ``_box_runs`` run, other shapes one
    single-cell slice per point.
    """
    runs = _box_runs(outer, inner, depth)
    if runs is not None:
        starts, length, flat, lo, hi = runs
        if not (all(map(le, lo, g)) and all(map(le, g, hi))):
            return None
        a = flat(g)
        return [(a + s, a + s + length) for s in starts]
    cells = [outer.index.get(point_add(p, g)) for p in inner.sorted_points]
    if None in cells:
        return None
    n = len(outer)
    return [(r + i, r + i + 1) for r in range(0, depth * n, n) for i in cells]


def _read(symbols: Sequence[int], runs: list[tuple[int, int]]) -> tuple[int, ...]:
    """The entries at ``runs``, in order."""
    out: list[int] = []
    for a, b in runs:
        out += symbols[a:b]
    return tuple(out)


def _write(symbols: list, runs: list[tuple[int, int]], values: Sequence) -> None:
    """Overwrite the entries at ``runs`` with the leading ``values``."""
    j = 0
    for a, b in runs:
        symbols[a:b] = values[j : j + b - a]
        j += b - a


def subblock_at(block: Block, f: Shape, g: Sequence[int], depth: int) -> Block | None:
    """The pattern of ``block`` read at f + g, re-based to f; None if f + g
    does not fit inside the block shape."""
    gp = tuple(int(c) for c in g)
    if len(gp) != block.dim or f.dim != block.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= depth <= block.depth:
        raise ValueError(f"depth {depth} exceeds block depth {block.depth}")
    runs = _runs_at(block.shape, f, depth, gp)
    if runs is None:
        return None
    return Block(f, depth, block.sizes[:depth], _read(block.symbols, runs))


@dataclass(frozen=True)
class Corpus:
    """A finite list of full-depth blocks standing in for a system's language."""

    stack: AlphabetStack
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        dims = {b.dim for b in self.blocks}
        if len(dims) > 1:
            raise ValueError("corpus blocks must share a dimension")
        for b in self.blocks:
            if b.sizes != self.stack.sizes:
                raise ValueError("corpus block does not carry the full stack")

    @property
    def dim(self) -> int:
        if not self.blocks:
            raise ValueError("empty corpus has no dimension")
        return self.blocks[0].dim


@dataclass(frozen=True)
class BlockFamily:
    """Distinct blocks with domain base x rows[1..level], sorted by entries."""

    level: int
    base: Shape
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        for b in self.blocks:
            if b.shape != self.base or b.depth != self.level:
                raise ValueError("family member with wrong domain")
        keys = [b.symbols for b in self.blocks]
        if keys != sorted(set(keys)):
            raise ValueError("family members must be distinct and sorted")

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)


def enumerate_family(corpus: Corpus, k: int) -> BlockFamily:
    """All distinct patterns with domain F_k x rows[1..k] observed in the corpus.

    The keys are those of ``freq_table(block, F_k, k)`` for every corpus
    block, with F_k = [-k, k]^d, so a later frequency lookup on the same
    block and level reuses the cached count; the result is ordered
    lexicographically on entries.
    """
    if not corpus.blocks:
        raise ValueError("cannot enumerate a family from an empty corpus")
    if not 1 <= k <= corpus.stack.depth:
        raise ValueError(f"level {k} outside stack of depth {corpus.stack.depth}")
    from .frequency import freq_table  # frequency imports this module

    base = folner_box(k, corpus.dim)
    seen: set[tuple[int, ...]] = set()
    for block in corpus.blocks:
        seen.update(freq_table(block, base, k))
    sizes = corpus.stack.sizes[:k]
    blocks = tuple(Block(base, k, sizes, key) for key in sorted(seen))
    return BlockFamily(k, base, blocks)


def enumerate_full_family(
    stack: AlphabetStack,
    k: int,
    dim: int,
    forbidden: Sequence[Block] = (),
    cap: int = 10**6,
) -> BlockFamily:
    """Exhaustive family of all locally admissible patterns on F_k x rows[1..k].

    Candidates containing a translate of any forbidden pattern are dropped
    (a local check only).  Refuses to enumerate more than ``cap`` candidates.
    """
    if not 1 <= k <= stack.depth:
        raise ValueError(f"level {k} outside stack of depth {stack.depth}")
    base = folner_box(k, dim)
    total = 1
    for j in range(k):
        total *= stack.sizes[j] ** len(base)
        if total > cap:
            raise ValueError(f"exhaustive enumeration would exceed {cap} candidates")
    sizes = stack.sizes[:k]
    # product yields the row-major keys in lexicographic order.
    blocks = []
    for key in product(*(range(size) for size in sizes for _ in range(len(base)))):
        cand = Block(base, k, sizes, key)
        if forbidden and _contains_any(cand, forbidden):
            continue
        blocks.append(cand)
    return BlockFamily(k, base, tuple(blocks))


def _contains_any(block: Block, patterns: Sequence[Block]) -> bool:
    for pat in patterns:
        if pat.depth > block.depth:
            continue
        for g in _anchor_box(block.shape, pat.shape):
            sub = subblock_at(block, pat.shape, g, pat.depth)
            if sub is not None and sub.symbols == pat.symbols:
                return True
    return False


def sample_bernoulli(
    window: Shape,
    stack: AlphabetStack,
    probabilities: Sequence[Sequence[object]],
    seed: int,
) -> Block:
    """Seeded i.i.d. block: cell (p, j) drawn from the row-j distribution.

    The same seed always yields the same block (cells filled row-major in
    lexicographic point order).
    """
    thresholds = _cumulative(stack, probabilities)
    rng = random.Random(seed)
    symbols = tuple(_draw(rng, cum) for cum in thresholds for _ in range(len(window)))
    return Block(window, stack.depth, stack.sizes, symbols)


def _cumulative(
    stack: AlphabetStack, probabilities: Sequence[Sequence[object]]
) -> list[list[float]]:
    if len(probabilities) != stack.depth:
        raise ValueError("one probability vector per row is required")
    out: list[list[float]] = []
    for row, probs in enumerate(probabilities):
        if len(probs) != stack.sizes[row]:
            raise ValueError(f"row {row + 1} needs {stack.sizes[row]} probabilities")
        vals = [float(p) for p in probs]
        if any(v < 0 for v in vals):
            raise ValueError("probabilities must be non-negative")
        total = sum(vals)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"row {row + 1} probabilities sum to {total}, not 1")
        out.append(list(accumulate(vals)))
    return out


def _draw(rng: random.Random, cumulative: Sequence[float]) -> int:
    """Index of one categorical draw: the first cumulative weight above a
    uniform variate, or the last index when rounding leaves the variate at
    or above the final sum."""
    return min(bisect_right(cumulative, rng.random()), len(cumulative) - 1)


def sample_markov(
    window: Shape,
    stack: AlphabetStack,
    initial: Sequence[object],
    transition: Sequence[Sequence[object]],
    seed: int,
) -> Block:
    """Seeded Markov chain along a one-dimensional window (depth-1 stacks only)."""
    if window.dim != 1:
        raise ValueError("Markov sampling is only supported in dimension 1")
    if stack.depth != 1:
        raise ValueError("Markov sampling is only supported for depth-1 stacks")
    n = stack.sizes[0]
    init = [float(p) for p in initial]
    if len(init) != n or abs(sum(init) - 1.0) > 1e-9 or any(v < 0 for v in init):
        raise ValueError("malformed initial distribution")
    rows = [[float(p) for p in row] for row in transition]
    if len(rows) != n or any(
        len(r) != n or abs(sum(r) - 1.0) > 1e-9 or any(v < 0 for v in r) for r in rows
    ):
        raise ValueError("malformed transition matrix")
    rng = random.Random(seed)
    init_cum = list(accumulate(init))
    row_cums = [list(accumulate(r)) for r in rows]
    symbols: list[int] = []
    state: int | None = None
    for _ in window.sorted_points:
        state = _draw(rng, init_cum if state is None else row_cums[state])
        symbols.append(state)
    return Block(window, 1, stack.sizes, tuple(symbols))
