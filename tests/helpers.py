"""Block builders and reference readers shared by the tests.

Words spell one-row blocks in letters, 'a' -> 0, 'b' -> 1, ...; the
library itself stores small integers only.
"""

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from blockdyn.group import Point, Shape, point_add
from blockdyn.measures import CylinderMeasure
from blockdyn.quasitiling import Quasitiling
from blockdyn.symbolic import Block, decode_pattern, encode_pattern, subblock_at

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def block_from_word(word: str, start: int = 0, sizes: Sequence[int] = (2,)) -> Block:
    """One-row block on [start, start + len(word) - 1] spelled by ``word``."""
    symbols = tuple(_LETTERS.index(ch) for ch in word)
    window = Shape.interval(start, start + len(word) - 1)
    return Block(window, 1, tuple(sizes), symbols)


def block_to_word(block: Block, row: int = 1) -> str:
    return "".join(_LETTERS[s] for s in block.row(row))


def block_from_function(
    shape: Shape, depth: int, sizes: Sequence[int], fn: Callable[[Point, int], int]
) -> Block:
    """Block whose entry at cell (p, row), row in 1..depth, is fn(p, row)."""
    pts = shape.sorted_points
    symbols = tuple(fn(p, r) for r in range(1, depth + 1) for p in pts)
    return Block(shape, depth, tuple(sizes), symbols)


def code_of(pattern: Block) -> int:
    """The key of ``pattern`` in a frequency table, marginal or family."""
    return encode_pattern(pattern.symbols, pattern.sizes, len(pattern.shape))


def decoded(table: Mapping[int, object], sizes: Sequence[int], cells: int) -> dict:
    """A table keyed by the codes of patterns on ``cells`` cells x rows with
    alphabet ``sizes``, keyed by their symbol tuples instead, in key order."""
    return {decode_pattern(code, sizes, cells): v for code, v in table.items()}


def cylinder_mass(measure: CylinderMeasure, pattern: Block) -> Fraction:
    """The mass of the cylinder of ``pattern``, a pattern on a subset of the
    measure's base at a level up to its depth: one entry of a marginal."""
    marg = measure.marginal(pattern.shape, pattern.depth)
    return marg.get(code_of(pattern), Fraction(0))


def tile_copy_counts(
    config: Block, tiling: Quasitiling, base: Shape, level: int
) -> list[tuple[int, dict[tuple[int, ...], int]]]:
    """Per shape, the anchors g with base + g inside the shape, counted, and
    the patterns on base x rows[1..level] summed over its tiles: each tile
    copied out of ``config`` with ``subblock_at`` and read at every anchor."""
    out = []
    for shape, centers in zip(tiling.shapes, tiling.centers):
        anchors = [
            g for g in shape.sorted_points
            if all(point_add(p, g) in shape.points for p in base.points)
        ]
        counts: dict[tuple[int, ...], int] = {}
        for c in centers:
            tile = subblock_at(config, shape, c, level)
            for g in anchors:
                key = subblock_at(tile, base, g, level).symbols
                counts[key] = counts.get(key, 0) + 1
        out.append((len(anchors), counts))
    return out
