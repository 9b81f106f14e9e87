"""Patterns spelled a chunk of codes at a time.

``files._pattern_texts`` reads its codes in chunks of ``_SPELL_CHUNK``, one
run column at a time, and memoizes each run's text.  Whatever the chunk
boundaries, the alphabet, the size of a run code or the shape of the base,
its texts must equal the pattern's decoded symbols cut into runs, one row
at a time, each run joined by the separator.
"""

import random
from math import prod

import pytest

from blockdyn import files
from blockdyn.files import _SPELL_CHUNK, _pattern_texts
from blockdyn.group import Shape, folner_box
from blockdyn.symbolic import decode_pattern

COUNTS = [0, 1, _SPELL_CHUNK - 1, _SPELL_CHUNK, _SPELL_CHUNK + 1, 3 * _SPELL_CHUNK + 5]
BASES = {
    "2-D F_1": folner_box(1, 2),
    "1-D F_4": folner_box(4, 1),  # one run of 9 cells: run codes up to 511
    "not a box": Shape.of([(0, 0), (1, 1), (0, 2), (2, 1)]),
}
SEPS = ["", "-", files._FAMILY_ENTRY_SEP]


def oracle(code: int, sizes: tuple[int, ...], base: Shape, sep: str) -> tuple[str, ...]:
    """The pattern's symbols from ``decode_pattern``, one row at a time, cut
    into last-axis lines on a box and kept whole on any other base."""
    cells = len(base)
    symbols = decode_pattern(code, sizes, cells)
    if base.is_box():
        lo, hi = base.bounds()
        run = hi[-1] - lo[-1] + 1
    else:
        run = cells
    out = []
    for r in range(len(sizes)):
        row = symbols[r * cells : (r + 1) * cells]
        out.extend(sep.join(map(str, row[i : i + run])) for i in range(0, cells, run))
    return tuple(out)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("sizes", [(2,), (3, 12)])
@pytest.mark.parametrize("base", BASES.values(), ids=BASES.keys())
@pytest.mark.parametrize("sep", SEPS)
def test_texts_equal_the_decoded_rows(count, sizes, base, sep):
    rng = random.Random(f"{count}:{sizes}:{sep}")
    patterns = prod(size ** len(base) for size in sizes)
    # Repeats included, so a memoized run is read again in a later chunk.
    codes = [rng.randrange(patterns) for _ in range(count)]
    per_row, texts = _pattern_texts(sizes, base, sep)
    want = [oracle(code, sizes, base, sep) for code in codes]
    assert all(len(t) == per_row * len(sizes) for t in want)
    # A sequence and a one-pass iterator of the same codes spell alike, and
    # the memo carries over from one call to the next.
    assert list(texts(codes)) == want
    assert list(texts(iter(codes))) == want


def test_run_codes_above_256_are_spelled_whole():
    base = folner_box(4, 1)
    per_row, texts = _pattern_texts((2,), base, "")
    codes = [511, 256, 257, 0, 511]
    assert per_row == 1
    assert list(texts(codes)) == [(format(c, "09b"),) for c in codes]


def test_empty_input_and_a_base_of_no_cells():
    per_row, texts = _pattern_texts((3, 12), folner_box(1, 2), "-")
    assert list(texts([])) == list(texts(iter(()))) == []
    per_row, texts = _pattern_texts((2,), Shape.of([], dim=1), "")
    assert per_row == 0
    assert list(texts([0, 0])) == [(), ()]
