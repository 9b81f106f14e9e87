"""Array-form blocks over Z^d, corpora and pattern families.

A block assigns a symbol to every cell of shape x rows[1..k]; row j draws
its symbols from the j-th alphabet of a stack.  Blocks are immutable and
hashable so they can key measures and form families.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from codecs import charmap_decode
from functools import lru_cache
from itertools import accumulate, chain, product
from math import prod
from operator import index, le, lt, mul, sub
from typing import Callable, Iterator, Sequence

from .group import Point, Shape, _Record, _cached, folner_box, point_add


class AlphabetStack(_Record):
    """Alphabet sizes per row; row j uses symbols {0, ..., sizes[j-1] - 1}."""

    __slots__ = ("sizes",)
    sizes: tuple[int, ...]

    def __init__(self, sizes: tuple[int, ...]) -> None:
        if not sizes:
            raise ValueError("stack needs at least one row")
        if any(s < 1 for s in sizes):
            raise ValueError("alphabet sizes must be positive")
        self._set(sizes)

    @property
    def depth(self) -> int:
        return len(self.sizes)


class Block(_Record):
    """A symbol assignment on shape x rows[1..depth].

    ``symbols`` is stored row-major: row 1 over the lexicographically
    sorted shape points, then row 2, and so on.  ``sizes`` is the alphabet
    stack prefix the entries are validated against.  |B| conventionally
    means the cardinality of the shape, not of the full domain.
    """

    __slots__ = ("shape", "depth", "sizes", "symbols")
    shape: Shape
    depth: int
    sizes: tuple[int, ...]
    symbols: tuple[int, ...]

    def __init__(
        self, shape: Shape, depth: int, sizes: tuple[int, ...], symbols: tuple[int, ...]
    ) -> None:
        if depth < 0:
            raise ValueError("depth must be non-negative")
        if len(sizes) != depth:
            raise ValueError("one alphabet size per row is required")
        cells = len(shape)
        if len(symbols) != cells * depth:
            raise ValueError("entry count does not match shape x depth")
        for r, size in enumerate(sizes):
            check_alphabet(symbols[r * cells : (r + 1) * cells], size, r + 1)
        self._set(shape, depth, sizes, symbols)

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


BoxRuns = tuple[tuple[int, ...], int, Callable[[Point], int], Point, Point]


@lru_cache(maxsize=64)
def _box_runs(outer: Shape, inner: Shape, depth: int) -> BoxRuns | None:
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


def _box_offset(runs: BoxRuns, g: Point) -> int | None:
    """``flat(g)`` for the ``_box_runs`` of two boxes, or None when inner + g
    does not fit: the per-anchor half of the kernel."""
    _, _, flat, lo, hi = runs
    return flat(g) if all(map(le, lo, g)) and all(map(le, g, hi)) else None


def _box_read(symbols: tuple[int, ...], runs: BoxRuns, a: int) -> tuple[int, ...]:
    """The entries of the ``runs`` at offset ``a``, in order."""
    starts, length = runs[0], runs[1]
    if len(starts) == 1:
        return symbols[a + starts[0] : a + starts[0] + length]
    return tuple(chain.from_iterable(symbols[a + s : a + s + length] for s in starts))


def _box_write(symbols: list, runs: BoxRuns, a: int, values: Sequence) -> None:
    """Overwrite the entries of the ``runs`` at offset ``a`` with ``values``."""
    starts, length = runs[0], runs[1]
    for j, s in zip(range(0, len(values), length), starts):
        symbols[a + s : a + s + length] = values[j : j + length]


def _runs_at(outer: Shape, inner: Shape, depth: int, g: Point) -> list[tuple[int, int]] | None:
    """The cell-addressing kernel: (start, stop) slices of the row-major
    symbols of a block on ``outer`` that list (inner + g) x rows[1..depth]
    in ``Block.symbols`` order, or None when inner + g does not fit.

    Two boxes give one slice per ``_box_runs`` run, shifted by
    ``_box_offset``; other shapes one single-cell slice per point.
    """
    runs = _box_runs(outer, inner, depth)
    if runs is not None:
        a = _box_offset(runs, g)
        if a is None:
            return None
        return [(a + s, a + s + runs[1]) for s in runs[0]]
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
    gp = tuple(map(index, g))
    if len(gp) != block.dim or f.dim != block.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= depth <= block.depth:
        raise ValueError(f"depth {depth} exceeds block depth {block.depth}")
    runs = _runs_at(block.shape, f, depth, gp)
    if runs is None:
        return None
    return Block(f, depth, block.sizes[:depth], _read(block.symbols, runs))


class Corpus(_Record):
    """A finite list of full-depth blocks standing in for a system's language."""

    __slots__ = ("stack", "blocks")
    stack: AlphabetStack
    blocks: tuple[Block, ...]

    def __init__(self, stack: AlphabetStack, blocks: tuple[Block, ...]) -> None:
        dims = {b.dim for b in blocks}
        if len(dims) > 1:
            raise ValueError("corpus blocks must share a dimension")
        for b in blocks:
            if b.sizes != stack.sizes:
                raise ValueError("corpus block does not carry the full stack")
        self._set(stack, blocks)

    @property
    def dim(self) -> int:
        if not self.blocks:
            raise ValueError("empty corpus has no dimension")
        return self.blocks[0].dim


# Entry e of a row over at most 256 symbols maps to _DIGITS[e]: the digit
# int() reads for e below 36, a stand-in above.
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz" + "".join(map(chr, range(256, 476)))
# The fewest digits that sys.set_int_max_str_digits lets int() parse.
_PIECE = 640


def check_alphabet(
    row: Sequence[int], size: int, r: int, error: type[Exception] = ValueError
) -> str | None:
    """The alphabet check: ``error`` unless every entry of ``row``, row ``r``
    of a block or of patterns, lies in 0..size-1.  Where 0 < size <= 256
    and bytes() takes the row, one C pass maps entry e to _DIGITS[e],
    U+FFFD from e = size on, and the mapped text is returned for int();
    otherwise min and max check the row, and None is returned.  Not a type
    test: bytes() takes True."""
    text = None
    if 0 < size <= 256:
        try:
            text = charmap_decode(bytes(row), "replace", _DIGITS[:size])[0]
        except (TypeError, ValueError):
            pass  # an entry that is no integer or bool, or lies outside 0..255
    outside = "\ufffd" in text if text is not None else row and (min(row) < 0 or max(row) >= size)
    if outside:
        raise error(f"row {r} entry outside alphabet of size {size}")
    return text


def _parse(text: str, size: int) -> int:
    """int(text, size), 0 for no digits, in pieces of ``_PIECE`` digits."""
    if len(text) <= _PIECE:
        return int(text or "0", size)
    value = 0
    for i in range(0, len(text), _PIECE):
        piece = text[i : i + _PIECE]
        value = value * size ** len(piece) + int(piece, size)
    return value


def encode_pattern(symbols: Sequence[int], sizes: Sequence[int], cells: int) -> int:
    """The code of a pattern on ``cells`` cells x rows[1..len(sizes)]: its
    row-major ``symbols`` read as one mixed-radix number, most significant
    digit first, where row r's digits have radix ``sizes[r]``.  Patterns of
    one domain sort by code exactly as by symbol tuple."""
    code = 0
    for r, size in enumerate(sizes):
        for v in symbols[r * cells : (r + 1) * cells]:
            code = code * size + v
    return code


def _row_codes(row: Sequence[int], size: int, n: int, text: str | None) -> list[int]:
    """The codes of the ``n`` equal runs that make up ``row`` as patterns
    with alphabet (size,), given ``text``, the row's ``check_alphabet``
    digits: one int() per run of radix 2..36, ``encode_pattern`` else."""
    cells = len(row) // n if n else 0
    if text is None or not 2 <= size <= 36:
        return [encode_pattern(row[i * cells : (i + 1) * cells], (size,), cells) for i in range(n)]
    return [_parse(text[i * cells : (i + 1) * cells], size) for i in range(n)]


def decode_pattern(code: int, sizes: Sequence[int], cells: int) -> tuple[int, ...]:
    """The row-major symbols of the pattern with this code: the inverse of
    ``encode_pattern``."""
    out: list[int] = []
    for size in reversed(sizes):
        for _ in range(cells):
            code, v = divmod(code, size)
            out.append(v)
    out.reverse()
    return tuple(out)


class BlockFamily(_Record):
    """Distinct patterns with domain base x rows[1..level] over the alphabet
    prefix ``sizes``, kept as their codes (``encode_pattern``) in increasing
    order.  ``blocks`` builds the ``Block`` of each key on first read.
    Families compare by their keys' values, a list equal to a tuple, and
    are not hashable."""

    __slots__ = ("level", "base", "sizes", "keys", "_blocks")
    level: int
    base: Shape
    sizes: tuple[int, ...]
    keys: Sequence[int]

    def __init__(
        self, level: int, base: Shape, sizes: tuple[int, ...], keys: Sequence[int]
    ) -> None:
        if len(sizes) != level:
            raise ValueError("one alphabet size per row is required")
        if not all(map(lt, keys, keys[1:])):
            raise ValueError("family members must be distinct and sorted")
        total = prod(sizes) ** len(base)
        if keys and (keys[0] < 0 or keys[-1] >= total):
            raise ValueError(
                "family member with wrong domain or outside the alphabet: "
                f"codes lie in 0..{total - 1}"
            )
        self._set(level, base, sizes, keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockFamily):
            return NotImplemented
        return (self.level, self.base, self.sizes, tuple(self.keys)) == (
            other.level, other.base, other.sizes, tuple(other.keys)
        )

    __hash__ = None  # type: ignore[assignment]

    @_cached
    def blocks(self) -> tuple[Block, ...]:
        cells = len(self.base)
        return tuple(
            Block(self.base, self.level, self.sizes, decode_pattern(key, self.sizes, cells))
            for key in self.keys
        )

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)


def enumerate_family(corpus: Corpus, k: int) -> BlockFamily:
    """All distinct patterns with domain F_k x rows[1..k] observed in the corpus.

    The keys are those of ``freq_table(block, F_k, k)`` for every corpus
    block, with F_k = [-k, k]^d, so a later frequency lookup on the same
    block and level reuses the cached count; the result is in increasing
    code order, the lexicographic order on entries.
    """
    if not corpus.blocks:
        raise ValueError("cannot enumerate a family from an empty corpus")
    if not 1 <= k <= corpus.stack.depth:
        raise ValueError(f"level {k} outside stack of depth {corpus.stack.depth}")
    from .frequency import freq_table  # frequency imports this module

    base = folner_box(k, corpus.dim)
    seen: set[int] = set()
    for block in corpus.blocks:
        seen.update(freq_table(block, base, k).counts)
    return BlockFamily(k, base, corpus.stack.sizes[:k], tuple(sorted(seen)))


def enumerate_full_family(
    stack: AlphabetStack, k: int, dim: int, cap: int = 10**6
) -> BlockFamily:
    """Exhaustive family of all patterns on F_k x rows[1..k]: every code
    below the number of patterns.

    Refuses to enumerate more than ``cap`` candidates.
    """
    if not 1 <= k <= stack.depth:
        raise ValueError(f"level {k} outside stack of depth {stack.depth}")
    base = folner_box(k, dim)
    total = 1
    for j in range(k):
        total *= stack.sizes[j] ** len(base)
        if total > cap:
            raise ValueError(f"exhaustive enumeration would exceed {cap} candidates")
    return BlockFamily(k, base, stack.sizes[:k], range(total))


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
    uniform = random.Random(seed).random
    cells = range(len(window))
    symbols: list[int] = []
    for cum in _cumulative(stack, probabilities):
        # _draw inlined: bisecting all but the last weight is its min(..., n - 1).
        symbols += [bisect_right(cum, uniform(), 0, len(cum) - 1) for _ in cells]
    return Block(window, stack.depth, stack.sizes, tuple(symbols))


def _cumulative(
    stack: AlphabetStack, probabilities: Sequence[Sequence[object]]
) -> list[list[float]]:
    if len(probabilities) != stack.depth:
        raise ValueError("one probability vector per row is required")
    return [
        _categorical(probs, size, f"row {row}")
        for row, (probs, size) in enumerate(zip(probabilities, stack.sizes), start=1)
    ]


def _categorical(probs: Sequence[object], n: int, name: str) -> list[float]:
    """Cumulative weights of one distribution over n symbols: exactly n
    non-negative probabilities that sum to 1 within 1e-9."""
    if len(probs) != n:
        raise ValueError(f"{name} needs {n} probabilities")
    vals = [float(p) for p in probs]
    if any(v < 0 for v in vals):
        raise ValueError(f"{name}: probabilities must be non-negative")
    total = sum(vals)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name} probabilities sum to {total}, not 1")
    return list(accumulate(vals))


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
    init_cum = _categorical(initial, n, "initial distribution")
    if len(transition) != n:
        raise ValueError(f"transition matrix needs {n} rows")
    row_cums = [
        _categorical(row, n, f"transition row {i}") for i, row in enumerate(transition, start=1)
    ]
    rng = random.Random(seed)
    symbols: list[int] = []
    state: int | None = None
    for _ in range(len(window)):
        state = _draw(rng, init_cum if state is None else row_cums[state])
        symbols.append(state)
    return Block(window, 1, stack.sizes, tuple(symbols))
