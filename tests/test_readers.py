"""The corpus and measure readers against an independent reader.

``files.read_corpus`` and ``files.read_measure`` type-test all entries in
one pass, check each row's alphabet in one pass, read pattern codes by one
radix parse per row and masses as integer pairs.  The oracle readers in
``helpers`` use ``json``, ``Fraction(str)`` and a per-digit encoding.  Both
give equal corpora and measures over radices 1 to 300, every mass spelling
``Fraction`` takes, zero and unreduced masses, rows longer than int()'s
digit limit and every file the benchmark writes; each rejection keeps its
message.

CI runs this file a second time under ``python -X int_max_str_digits=640``,
the lowest limit int() takes, so that long rows are read in pieces there.
"""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn import cli, files
from blockdyn.symbolic import _row_codes, check_alphabet, decode_pattern, encode_pattern
from helpers import oracle_read_corpus, oracle_read_measure

RADICES = [1, 2, 3, 10, 36, 37, 300]
STACKS = st.lists(st.sampled_from(RADICES), min_size=1, max_size=3).map(tuple)
# ASCII digits to ARABIC-INDIC DIGIT ZERO..NINE, which Fraction(str) reads too.
ARABIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@st.composite
def spellings(draw, f: Fraction) -> str:
    """A spelling of ``f`` that Fraction(str) reads as f: "p/q", unreduced,
    with spaces, a plus sign, an underscore, Unicode digits or as a
    decimal."""
    k = draw(st.integers(1, 3))
    p, q = f.numerator * k, f.denominator * k
    plain = f"{p}/{q}" if q > 1 or draw(st.booleans()) else str(p)
    kind = draw(st.sampled_from(["plain", "space", "plus", "underscore", "unicode", "decimal"]))
    m = next((m for m in range(8) if 10**m % f.denominator == 0), None)
    s = {
        "plain": plain,
        "space": f" {plain}\t",
        "plus": "+" + plain,
        "underscore": plain[:1] + "_" + plain[1:],
        "unicode": plain.translate(ARABIC),
        "decimal": None if m is None else f"{f.numerator * 10**m // f.denominator}e-{m}",
    }[kind]
    try:
        return s if Fraction(s) == f else plain
    except (TypeError, ValueError):  # no decimal form, or "1_/2"
        return plain


def patterns(draw, sizes: tuple[int, ...], cells: int, n: int) -> list[list[list[int]]]:
    """``n`` distinct patterns on ``cells`` cells x rows with alphabets ``sizes``."""
    row = lambda size: st.lists(st.integers(0, size - 1), min_size=cells, max_size=cells)
    one = st.tuples(*(row(size) for size in sizes)).map(lambda rows: list(map(list, rows)))
    return draw(st.lists(one, min_size=n, max_size=n, unique_by=lambda p: json.dumps(p)))


@st.composite
def measure_objs(draw) -> dict:
    sizes = draw(STACKS)
    dim = draw(st.integers(1, 2))
    lo = [draw(st.integers(-2, 2)) for _ in range(dim)]
    hi = [a + draw(st.integers(0, 2)) for a in lo]
    cells = 1
    for a, b in zip(lo, hi):
        cells *= b - a + 1
    space = 1
    for size in sizes:
        space *= size**cells
    n = draw(st.integers(1, min(space, 8)))
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    if not any(weights):
        weights[0] = 1
    masses = [Fraction(w, sum(weights)) for w in weights]
    return {
        "kind": "measure",
        "dim": dim,
        "alphabet": list(sizes),
        "depth": len(sizes),
        "base_min": lo,
        "base_max": hi,
        "masses": [
            {"mass": draw(spellings(m)), "pattern": p}
            for m, p in zip(masses, patterns(draw, sizes, cells, n))
        ],
    }


@st.composite
def corpus_objs(draw) -> dict:
    sizes = draw(STACKS)
    dim = draw(st.integers(1, 2))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        lo = [draw(st.integers(-3, 3)) for _ in range(dim)]
        hi = [a + draw(st.integers(0, 4)) for a in lo]
        cells = 1
        for a, b in zip(lo, hi):
            cells *= b - a + 1
        (rows,) = patterns(draw, sizes, cells, 1)
        blocks.append({"min": lo, "max": hi, "depth": len(sizes), "rows": rows})
    return {"kind": "corpus", "dim": dim, "alphabet": list(sizes), "blocks": blocks}


def assert_reads_agree(path: Path) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    if obj["kind"] == "corpus":
        corpus = files.read_corpus(path)
        read = [(*b.shape.bounds(), b.depth, b.symbols) for b in corpus.blocks]
        assert (corpus.stack.sizes, read) == oracle_read_corpus(path)
        assert all(b.sizes == corpus.stack.sizes for b in corpus.blocks)
    else:
        mu = files.read_measure(path)
        atoms = mu.atoms()
        masses = {key: Fraction(n, atoms.total) for key, n in atoms.counts.items()}
        assert (mu.depth, *mu.base.bounds(), mu.sizes, masses) == oracle_read_measure(path)


@settings(max_examples=150, deadline=None)
@given(obj=measure_objs())
def test_measures_read_as_the_oracle_reads_them(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("measure") / "mu.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert_reads_agree(path)


@settings(max_examples=100, deadline=None)
@given(obj=corpus_objs())
def test_corpora_read_as_the_oracle_reads_them(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("corpus") / "corpus.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert_reads_agree(path)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), size=st.sampled_from(RADICES), n=st.integers(0, 4), cells=st.integers(0, 40))
def test_row_codes_are_the_per_digit_codes(data, size, n, cells):
    """The codes the measure reader reads from ``n`` runs of one row, by
    int() for radix 2..36 and entry by entry otherwise, are the per-digit
    codes of ``encode_pattern``."""
    row = [data.draw(st.integers(0, size - 1)) for _ in range(n * cells)]
    text = check_alphabet(row, size, 1)
    runs = [tuple(row[i * cells : (i + 1) * cells]) for i in range(n)]
    assert _row_codes(row, size, n, text) == [encode_pattern(u, (size,), cells) for u in runs]


@pytest.mark.parametrize(
    "limit",
    [
        None,
        pytest.param(640, marks=pytest.mark.skipif(
            not hasattr(sys, "set_int_max_str_digits"),
            reason="int() has no digit limit before Python 3.10.7",
        )),
    ],
)
@pytest.mark.parametrize("sizes", [(3,), (2, 3), (10,), (36, 1)])
def test_rows_longer_than_the_int_digit_limit_read_in_pieces(tmp_path, limit, sizes):
    """A radix-3 row of 4,401 digits is more than int() parses at once, by
    default and at the lowest limit; its code still equals the per-digit
    one, and encoding and decoding invert each other."""
    cells = 4401
    rows = [[(7 * i + r) % size for i in range(cells)] for r, size in enumerate(sizes)]
    other = [[(v + 1) % size for v in row] for row, size in zip(rows, sizes)]
    if other == rows:  # every row has radix 1: one pattern only
        masses = [{"mass": "1", "pattern": rows}]
    else:
        masses = [{"mass": "1/3", "pattern": rows}, {"mass": "2/3", "pattern": other}]
    obj = {"kind": "measure", "dim": 1, "alphabet": list(sizes), "depth": len(sizes),
           "base_min": [0], "base_max": [cells - 1], "masses": masses}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    before = limit and sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        assert_reads_agree(path)
        symbols = tuple(v for row in rows for v in row)
        assert decode_pattern(encode_pattern(symbols, sizes, cells), sizes, cells) == symbols
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(before)


def test_every_benchmark_input_reads_as_the_oracle_reads_it(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    paths = []
    for seed in (1, 2, 3):
        for workload in (inputs.census, inputs.construct):
            workdir = tmp_path / f"{workload.__name__}-{seed}"
            workdir.mkdir()
            workload(seed, workdir)
            paths += sorted(workdir.rglob("*.json"))
    data = [p for p in paths if p.name != "config.json"]
    assert len(data) == 3 * (2 * 4 + 4)
    for path in data:
        assert_reads_agree(path)


MEASURE = {"kind": "measure", "dim": 1, "alphabet": [2], "depth": 1,
           "base_min": [0], "base_max": [1]}
CORPUS = {"kind": "corpus", "dim": 1, "alphabet": [2]}
# More digits than int() parses by default; Fraction(str) rejects it too.
LONG = "1" * 5000 + "/2"


def _entry(pattern, mass="1/2"):
    return {"pattern": pattern, "mass": mass}


def _block(rows):
    return {"min": [0], "max": [1], "depth": 1, "rows": rows}


@pytest.mark.parametrize(
    "obj, message",
    [
        (dict(MEASURE, masses=[_entry([[0, 2]]), _entry([[0, 0]])]),
         "ConfigError('row 1 entry outside alphabet of size 2')"),
        (dict(MEASURE, alphabet=[2, 3], depth=2,
              masses=[_entry([[0, 1], [0, 3]]), _entry([[0, 0], [0, 0]])]),
         "ConfigError('row 2 entry outside alphabet of size 3')"),
        (dict(MEASURE, masses=[_entry([[0, -1]]), _entry([[0, 0]])]),
         "ConfigError('row 1 entry outside alphabet of size 2')"),
        (dict(MEASURE, masses=[_entry([[0, True]]), _entry([[0, 0]])]),
         "ConfigError('block and measure entries must be integers, got bool')"),
        (dict(MEASURE, masses=[_entry([[0, 1.0]]), _entry([[0, 0]])]),
         "ConfigError('block and measure entries must be integers, got float')"),
        (dict(MEASURE, masses=[_entry([[0, 1, 1]]), _entry([[0, 0]])]),
         "ConfigError('need 2 rows of exactly 2 entries, one per cell')"),
        (dict(MEASURE, masses=[_entry([[0, 1], [0, 0]]), _entry([[0, 0]])]),
         "ConfigError('every pattern needs 1 rows')"),
        (dict(MEASURE, masses=[_entry([[0, 1]]), _entry([[0, 1]])]),
         "ConfigError('pattern [[0, 1]] is listed more than once')"),
        (dict(MEASURE, masses=[_entry([[0, 1]], "1/0"), _entry([[0, 0]])]),
         "ConfigError(\"not a rational: '1/0'\")"),
        (dict(MEASURE, masses=[_entry([[0, 1]], "1/"), _entry([[0, 0]])]),
         "ConfigError(\"not a rational: '1/'\")"),
        (dict(MEASURE, masses=[_entry([[0, 1]], "1/\u00b2"), _entry([[0, 0]])]),
         "ConfigError(\"not a rational: '1/\u00b2'\")"),
        (dict(MEASURE, masses=[_entry([[0, 1]], LONG), _entry([[0, 0]])]),
         repr(files.ConfigError(f"not a rational: {LONG!r}"))),
        (dict(MEASURE, masses=[_entry([[0, 1]], "-1/2"), _entry([[0, 0]], "3/2")]),
         "ValueError('negative mass')"),
        (dict(MEASURE, masses=[_entry([[0, 1]]), _entry([[0, 0]], "1/3")]),
         "ValueError('masses must sum to exactly 1')"),
        (dict(MEASURE, masses=[_entry([[0, 1]], "0"), _entry([[0, 0]], "0/3")]),
         "ValueError('a measure needs positive mass somewhere')"),
        (dict(CORPUS, blocks=[_block([[0, 2]])]),
         "ConfigError('malformed block entry: row 1 entry outside alphabet of size 2')"),
        (dict(CORPUS, blocks=[_block([[-1, 0]])]),
         "ConfigError('malformed block entry: row 1 entry outside alphabet of size 2')"),
        (dict(CORPUS, blocks=[_block([[True, 0]])]),
         "ConfigError('block and measure entries must be integers, got bool')"),
        (dict(CORPUS, blocks=[_block([[0.0, 0]])]),
         "ConfigError('block and measure entries must be integers, got float')"),
        (dict(CORPUS, blocks=[_block([[0, 0, 1]])]),
         "ConfigError('need 1 rows of exactly 2 entries, one per cell')"),
        ({k: v for k, v in MEASURE.items() if k != "dim"} | {"masses": [_entry([[0, 1]], "1")]},
         "KeyError('dim')"),
        ({k: v for k, v in CORPUS.items() if k != "dim"} | {"blocks": [_block([[0, 1]])]},
         "KeyError('dim')"),
    ],
    ids=[
        "out-of-range", "out-of-range-row-2", "negative-entry", "bool-entry", "float-entry",
        "ragged-row", "missing-row", "duplicate-pattern", "zero-denominator", "bad-spelling",
        "superscript-digit", "more-digits-than-int-parses", "negative-mass", "sum-not-1", "no-positive-mass", "corpus-out-of-range",
        "corpus-negative-entry", "corpus-bool-entry", "corpus-float-entry", "corpus-ragged-row",
        "missing-dim", "corpus-missing-dim",
    ],
)
def test_each_rejection_keeps_its_message(tmp_path, obj, message):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    read = files.read_corpus if obj["kind"] == "corpus" else files.read_measure
    with pytest.raises(files.ConfigError) as info:
        read(path)
    assert str(info.value) == f"malformed {obj['kind']} file {path}: {message}"


@pytest.mark.parametrize(
    "digits, limit",
    [
        (5000, None),
        pytest.param(700, 640, marks=pytest.mark.skipif(
            not hasattr(sys, "set_int_max_str_digits"),
            reason="int() has no digit limit before Python 3.10.7",
        )),
    ],
)
@pytest.mark.parametrize("bad", ["config.json", "corpus.json", "measure.json"])
def test_an_integer_past_the_digit_limit_exits_2_and_names_its_file(
    tmp_path, capsys, digits, limit, bad
):
    """json raises a plain ValueError, not a JSONDecodeError, on an integer
    literal longer than int()'s digit limit: by default 4,300 digits, and
    640 at the lowest limit."""
    texts = {
        "config.json": json.dumps({
            "dim": 1, "alphabet": [2], "window": {"min": [0], "max": [1]},
            "corpus": ["corpus.json"],
        }),
        "corpus.json": json.dumps(dict(CORPUS, blocks=[_block([[0, 1]])])),
        "measure.json": json.dumps(dict(MEASURE, masses=[_entry([[0, 1]], "1")])),
    }
    # The integer stands in for a field its file reads first.
    texts[bad] = texts[bad].replace('"dim": 1', '"dim": ' + "1" * digits)
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out"),
            "dist", "--block", "0", "--nu", str(tmp_path / "measure.json")]
    before = limit and sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        assert cli.main(argv) == 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(before)
    assert f"error: invalid JSON in {tmp_path / bad}: " in capsys.readouterr().err
