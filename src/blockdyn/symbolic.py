"""Array-form blocks over Z^d, corpora and pattern families.

A block assigns a symbol to every cell of shape x rows[1..k]; row j draws
its symbols from the j-th alphabet of a stack.  Blocks are immutable and
hashable so they can key measures and form families.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from codecs import charmap_decode
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, product, repeat, starmap
from math import lcm, prod
from operator import index, le, lt, mul, sub
from typing import Iterable, Iterator, Sequence

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


class _BoxLayout:
    """The cells of (inner + g) x rows[1..depth] in the symbols of a block on
    the box ``outer``, for a box ``inner``.  A block on a box stores its
    symbols in C order, so they are one last-axis run of ``length``
    entries from ``a + s`` for s in ``starts``, one per row of the inner box,
    rows of the stack outermost, at the position a = flat(g); inner + g fits
    when lo <= g <= hi per axis."""

    __slots__ = ("starts", "length", "cells", "strides", "origin", "lo", "hi")

    def __init__(self, outer: Shape, inner: Shape, depth: int) -> None:
        (lo, hi), (ilo, ihi) = outer.bounds(), inner.bounds()
        strides = [1] * outer.dim
        for i in range(outer.dim - 1, 0, -1):
            strides[i - 1] = strides[i] * (hi[i] - lo[i] + 1)
        heads = product(*(range(a, b + 1) for a, b in zip(ilo[:-1], ihi[:-1])))
        rel = [sum(map(mul, q, strides)) + ilo[-1] for q in heads]
        self.cells = n = len(outer)
        self.starts = tuple(r * n + s for r in range(depth) for s in rel)
        self.length = ihi[-1] - ilo[-1] + 1
        self.strides, self.origin = strides, sum(map(mul, lo, strides))
        self.lo, self.hi = tuple(map(sub, lo, ilo)), tuple(map(sub, hi, ihi))

    def at(self, g: Point) -> int | None:
        if all(map(le, self.lo, g)) and all(map(le, g, self.hi)):
            return sum(map(mul, g, self.strides)) - self.origin
        return None

    def read(self, symbols: Sequence, a: int) -> Sequence:
        starts, length = self.starts, self.length
        if len(starts) == 1:
            return symbols[a + starts[0] : a + starts[0] + length]
        return tuple(chain.from_iterable(symbols[a + s : a + s + length] for s in starts))

    def write(self, symbols: list | bytearray, a: int, values: Sequence) -> None:
        length = self.length
        for j, s in zip(range(0, len(values), length), self.starts):
            symbols[a + s : a + s + length] = values[j : j + length]

    def runs(self, a: int) -> list[tuple[int, int]]:
        return [(a + s, a + s + self.length) for s in self.starts]

    def codes(
        self, symbols: Sequence[int], sizes: Sequence[int], anchors: list[range], centers: Iterable
    ) -> Iterator[int]:
        """The code of the pattern at g + c for every c in ``centers`` and g
        of the anchor box ``anchors`` (per-axis ranges), c outermost, where
        every inner + g + c fits and ``sizes`` are the rows' alphabets.  One
        rolling pass per row gives the code of every ``length`` consecutive
        entries of the row; a pattern's code is then one multiply-add per
        run, at every position from the first fitting anchor to the last."""
        starts, length, cells, strides = self.starts, self.length, self.cells, self.strides
        first, last = (sum(map(mul, p, strides)) - self.origin for p in (self.lo, self.hi))
        span = last - first + 1
        # rolled[r * cells + i]: the code of entries i - length + 1 .. i of row r
        rolled: list[int] = []
        for r, size in enumerate(sizes):
            top, c = size**length, 0
            rolled += [c := (c * size + x) % top for x in symbols[r * cells : (r + 1) * cells]]
        # codes[a - first]: the code at position a, no pattern's past the end
        # of a last-axis run of anchors
        codes: list[int] = []
        per_row = len(starts) // len(sizes)
        for i, s in enumerate(starts):
            a = first + s + length - 1
            run = rolled[a : a + span]
            top = sizes[i // per_row] ** length
            codes = run if i == 0 else [c * top + x for c, x in zip(codes, run)]
        # positions are affine in the point: the anchors at c are those at the
        # origin shifted by c's strides
        *heads, tail = anchors
        firsts = [sum(map(mul, (*head, tail.start), strides)) for head in product(*heads)]
        n, shifts = len(tail), [sum(map(mul, c, strides)) - self.origin - first for c in centers]
        return chain.from_iterable(codes[f + d : f + d + n] for d in shifts for f in firsts)


class _CellLayout:
    """The cells of (inner + g) x rows[1..depth] in the row-major symbols of
    a block on ``outer``, point by point: a position is the list of the
    cells' indices, in ``Block.symbols`` order."""

    __slots__ = ("index", "points", "rows")

    def __init__(self, outer: Shape, inner: Shape, depth: int) -> None:
        n = len(outer)
        self.index, self.points = outer.index, inner.sorted_points
        self.rows = range(0, depth * n, n)

    def at(self, g: Point) -> list[int] | None:
        cells = [self.index.get(point_add(p, g)) for p in self.points]
        if None in cells:
            return None
        return [r + i for r in self.rows for i in cells]

    def read(self, symbols: Sequence, at: list[int]) -> tuple:
        return tuple([symbols[i] for i in at])

    def write(self, symbols: list | bytearray, at: list[int], values: Sequence) -> None:
        for i, v in zip(at, values):
            symbols[i] = v

    def runs(self, at: list[int]) -> list[tuple[int, int]]:
        return [(i, i + 1) for i in at]


@lru_cache(maxsize=64)
def _layout(outer: Shape, inner: Shape, depth: int) -> _BoxLayout | _CellLayout:
    """The cell-addressing kernel: where (inner + g) x rows[1..depth] lies in
    the row-major symbols of a block on ``outer``, cached per triple.  Two
    boxes get a ``_BoxLayout``, any other pair a ``_CellLayout``.  Both give
    ``at(g)``, a position or None when inner + g does not fit, and at a
    position ``read(symbols, at)``, its entries in ``Block.symbols`` order,
    ``write(symbols, at, values)``, which overwrites them with the leading
    ``values``, and ``runs(at)``, their (start, stop) slices."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch")
    if outer.is_box() and inner.is_box():
        return _BoxLayout(outer, inner, depth)
    return _CellLayout(outer, inner, depth)


def subblock_at(block: Block, f: Shape, g: Sequence[int], depth: int) -> Block | None:
    """The pattern of ``block`` read at f + g, re-based to f; None if f + g
    does not fit inside the block shape."""
    gp = tuple(map(index, g))
    if len(gp) != block.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= depth <= block.depth:
        raise ValueError(f"depth {depth} exceeds block depth {block.depth}")
    layout = _layout(block.shape, f, depth)
    at = layout.at(gp)
    if at is None:
        return None
    return Block(f, depth, block.sizes[:depth], layout.read(block.symbols, at))


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
    if len(probabilities) != stack.depth:
        raise ValueError("one probability vector per row is required")
    rows = [
        _categorical(probs, size, f"row {row}")
        for row, (probs, size) in enumerate(zip(probabilities, stack.sizes), start=1)
    ]
    rng, cells = random.Random(seed), len(window)
    symbols: list[int] = []
    for cuts in rows:
        symbols += _draws(rng, cuts, cells)
    return Block(window, stack.depth, stack.sizes, tuple(symbols))


def _categorical(probs: Sequence[object], n: int, name: str) -> list[float]:
    """The cut points of one distribution over n symbols: exactly n
    non-negative probabilities whose exact sum is 1, a float counting at its
    exact value.  The cuts are the running float sums of all but the last
    probability, so a variate u draws ``bisect_right(cuts, u)``."""
    if len(probs) != n:
        raise ValueError(f"{name} needs {n} probabilities")
    try:
        exact = [Fraction(p) for p in probs]
    except (OverflowError, ValueError) as exc:  # an infinity or a NaN
        raise ValueError(f"{name}: {exc}") from exc
    # the numerators over the common denominator: a sum of Fractions would
    # reduce each partial sum
    den = lcm(*(p.denominator for p in exact))
    nums = [p.numerator * (den // p.denominator) for p in exact]
    if min(nums) < 0:
        raise ValueError(f"{name}: probabilities must be non-negative")
    if sum(nums) != den:
        raise ValueError(f"{name} probabilities sum to {Fraction(sum(nums), den)}, not 1")
    return list(accumulate(map(float, exact[:-1])))


def _draws(rng: random.Random, cuts: list[float], count: int) -> list[int]:
    """``count`` categorical draws over ``_categorical`` cut points, one
    variate of ``rng`` each, in one pass."""
    return list(map(bisect_right, repeat(cuts, count), starmap(rng.random, repeat((), count))))


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
    cuts = _categorical(initial, n, "initial distribution")
    if len(transition) != n:
        raise ValueError(f"transition matrix needs {n} rows")
    rows = [
        _categorical(row, n, f"transition row {i}") for i, row in enumerate(transition, start=1)
    ]
    uniform = random.Random(seed).random
    symbols: list[int] = []
    for _ in range(len(window)):
        state = bisect_right(cuts, uniform())
        symbols.append(state)
        cuts = rows[state]
    return Block(window, 1, stack.sizes, tuple(symbols))
