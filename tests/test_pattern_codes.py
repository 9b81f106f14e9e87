"""A pattern is its code: one mixed-radix integer keys every count table,
family and measure, from ``pattern_counts`` to the writers.

Counts keyed by codes, decoded, equal the testkit oracles on boxes and point
sets in one to three dimensions over unequal stacks with a radix-1 row.
Codes sort as their symbol tuples do.  The writers that spell patterns from
their codes still equal ``json.dumps``, and ``freq`` still spells each
pattern's symbols, with "-" between symbols above an alphabet of 10.
"""

import json
from fractions import Fraction
from math import prod

from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockdyn import cli, files
from blockdyn.frequency import freq, pattern_counts
from blockdyn.group import Shape, folner_box, point_add
from blockdyn.measures import block_measure
from blockdyn.symbolic import (
    AlphabetStack,
    Block,
    Corpus,
    decode_pattern,
    encode_pattern,
    enumerate_family,
)
from blockdyn.testkit import oracle_count_embeddings, oracle_freq

# Unequal alphabets with a radix-1 row, as one stack and as random ones.
STACKS = st.one_of(
    st.just((3, 1, 5)),
    st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
)


@st.composite
def shapes(draw, dim: int, max_side: int, box: bool) -> Shape:
    """A box of 1..max_side cells per axis at a corner in [-2, 2]^dim, or a
    non-empty point set inside such a box."""
    lo = [draw(st.integers(-2, 2)) for _ in range(dim)]
    hi = [a + draw(st.integers(0, max_side - 1)) for a in lo]
    shape = Shape.box(lo, hi)
    if box:
        return shape
    pts = draw(st.lists(st.sampled_from(shape.sorted_points), min_size=1, unique=True))
    return Shape.of(pts)


def random_block(draw, shape: Shape, sizes: tuple[int, ...]) -> Block:
    symbols = [draw(st.integers(0, size - 1)) for size in sizes for _ in range(len(shape))]
    return Block(shape, len(sizes), sizes, tuple(symbols))


@st.composite
def counting_cases(draw):
    dim = draw(st.integers(1, 3))
    outer = draw(shapes(dim, {1: 12, 2: 6, 3: 4}[dim], box=draw(st.integers(0, 3)) > 0))
    inner = draw(shapes(dim, {1: 4, 2: 3, 3: 2}[dim], box=draw(st.booleans())))
    sizes = draw(STACKS)
    block = random_block(draw, outer, sizes)
    return block, inner, draw(st.integers(1, len(sizes)))


@settings(max_examples=200, deadline=None)
@given(counting_cases())
def test_decoded_code_counts_equal_the_oracle(case):
    block, inner, depth = case
    sizes, cells = block.sizes[:depth], len(inner)
    counts = pattern_counts(block, inner, depth)
    total = oracle_count_embeddings(block.shape, inner)
    assert sum(counts.values()) == total
    patterns = [decode_pattern(code, sizes, cells) for code in counts]
    assert len(set(patterns)) == len(patterns)
    for code, symbols in zip(counts, patterns):
        assert encode_pattern(symbols, sizes, cells) == code
        pattern = Block(inner, depth, sizes, symbols)
        assert Fraction(counts[code], total) == oracle_freq(block, pattern)
        assert freq(block, pattern) == oracle_freq(block, pattern)
    # one pattern no anchor reads: code 0 when absent, else the top code
    absent = 0 if 0 not in counts else prod(sizes) ** cells - 1
    if absent not in counts and total:
        pattern = Block(inner, depth, sizes, decode_pattern(absent, sizes, cells))
        assert freq(block, pattern) == oracle_freq(block, pattern) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_codes_sort_as_their_symbol_tuples(data):
    sizes = data.draw(STACKS)
    cells = data.draw(st.integers(0, 4))
    digits = [st.integers(0, size - 1) for size in sizes for _ in range(cells)]
    tuples = data.draw(st.lists(st.tuples(*digits), max_size=12))
    codes = [encode_pattern(t, sizes, cells) for t in tuples]
    assert all(0 <= c < prod(sizes) ** cells for c in codes)
    assert [decode_pattern(c, sizes, cells) for c in sorted(codes)] == sorted(tuples)
    assert [decode_pattern(c, sizes, cells) for c in codes] == tuples


def rows(symbols: tuple[int, ...], depth: int) -> list[list[int]]:
    n = len(symbols) // depth
    return [list(symbols[r * n : (r + 1) * n]) for r in range(depth)]


@st.composite
def window_blocks(draw):
    """A block on a 1-D window of up to 30 cells or a 2-D one of up to 7 x 7,
    over unequal alphabets, some above 10."""
    dim = draw(st.integers(1, 2))
    side = 30 if dim == 1 else 7
    hi = [draw(st.integers(5, side - 1)) for _ in range(dim)]
    sizes = draw(st.one_of(STACKS, st.just((12, 1)), st.just((2, 11))))
    return random_block(draw, Shape.box([0] * dim, hi), sizes)


@settings(max_examples=60, deadline=None)
@example(Block(Shape.interval(0, 5), 3, (3, 1, 5), (0, 1, 2, 2, 1, 0) + (0,) * 6
               + (4, 0, 3, 1, 2, 4)))
@given(window_blocks())
def test_family_and_measure_files_equal_json_dumps(tmp_path_factory, block):
    out = tmp_path_factory.mktemp("codes")
    level = min(block.depth, 2)
    base = folner_box(level, block.dim)
    if not pattern_counts(block, base, level):
        return
    family = enumerate_family(Corpus(AlphabetStack(block.sizes), (block,)), level)
    files.write_family(out / "family.json", family)
    expected = {
        "kind": "family",
        "dim": block.dim,
        "level": level,
        "alphabet": list(family.sizes),
        "patterns": [rows(b.symbols, level) for b in family.blocks],
    }
    assert (out / "family.json").read_text() == json.dumps(
        expected, sort_keys=True, indent=1) + "\n"
    mu = block_measure(block, level)
    files.write_measure(out / "measure.json", mu)
    lo, hi = base.bounds()
    expected = {
        "kind": "measure",
        "dim": block.dim,
        "alphabet": list(mu.sizes),
        "depth": level,
        "base_min": list(lo),
        "base_max": list(hi),
        "masses": [{"mass": str(m), "pattern": rows(b.symbols, level)} for b, m in mu.items()],
    }
    assert (out / "measure.json").read_text() == json.dumps(
        expected, sort_keys=True, indent=1) + "\n"
    assert files.read_measure(out / "measure.json") == mu


def test_freq_spells_patterns_by_their_symbols_above_an_alphabet_of_10(tmp_path):
    """The CSV of ``freq`` from symbol tuples counted cell by cell, sorted:
    rows joined by "|", symbols by "" up to an alphabet of 10 and by "-"
    above it."""
    for sizes in [(12, 1, 3), (3, 1, 10), (2, 11)]:
        window = Shape.box((0, 0), (5, 6))
        symbols = tuple((7 * i + 3 * r) % size for r, size in enumerate(sizes)
                        for i in range(len(window)))
        block = Block(window, len(sizes), sizes, symbols)
        corpus = {"kind": "corpus", "dim": 2, "alphabet": list(sizes),
                  "blocks": [files.block_to_obj(block)]}
        run = tmp_path / "-".join(map(str, sizes))
        run.mkdir()
        (run / "corpus.json").write_text(json.dumps(corpus))
        cfg = {"dim": 2, "alphabet": list(sizes), "window": {"min": [0, 0], "max": [5, 6]},
               "corpus": ["corpus.json"]}
        (run / "config.json").write_text(json.dumps(cfg))
        for level in (1, 2):
            argv = ["--config", str(run / "config.json"), "--out", str(run / "out"),
                    "freq", "--level", str(level)]
            assert cli.main(argv) == 0
            base = folner_box(level, 2)
            pts = base.sorted_points
            counts: dict[tuple[int, ...], int] = {}
            for g in window.sorted_points:
                cells = [point_add(p, g) for p in pts]
                if all(q in window for q in cells):
                    key = tuple(block.get(q, r) for r in range(1, level + 1) for q in cells)
                    counts[key] = counts.get(key, 0) + 1
            n = sum(counts.values())
            sep = "" if all(s <= 10 for s in sizes[:level]) else "-"
            lines = ["block_index,level,pattern,N_B,N_F,fr_B"] + [
                f"0,{level},"
                + "|".join(sep.join(map(str, row)) for row in rows(key, level))
                + f",{c},{n},{Fraction(c, n)}"
                for key, c in sorted(counts.items())
            ]
            (csv,) = (run / "out").rglob(f"freq_k{level}_b0.csv")
            assert csv.read_text() == "\n".join(lines) + "\n"
