"""Same-layout record lists written from one template.

A family's patterns and a measure's masses share one layout per file, so
the canonical encoder renders that layout once as a %-format and fills it
per record.  The result must still be ``json.dumps(obj, sort_keys=True,
indent=1)`` to the byte, the writer must stream it, and ``freq`` must spell
its patterns without building a ``Block`` each.
"""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn import cli, files, symbolic
from blockdyn.files import _HOLE, _Records, canonical_json, ratio_str
from blockdyn.group import Shape
from blockdyn.measures import block_measure
from blockdyn.symbolic import AlphabetStack, Block, Corpus, enumerate_family

# Text with "%", quotes, backslashes and non-ASCII characters, as layout
# keys, fixed layout strings and varying leaves alike.
TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('%%s"\\\né€\U0001f600'), st.characters()), max_size=6
)
FIXED = st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000), TEXT)
LEAF = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30), TEXT)


def layouts(depth: int):
    """A layout of containers nested at most ``depth`` deep, with holes and
    fixed values as leaves."""
    leaf = st.one_of(st.just(_HOLE), st.just(_HOLE), FIXED)  # holes drawn twice as often
    if depth == 0:
        return leaf
    inner = layouts(depth - 1)
    return st.one_of(
        leaf,
        st.lists(inner, max_size=4),
        st.dictionaries(TEXT, inner, max_size=3),
    )


def holes(layout) -> int:
    if layout is _HOLE:
        return 1
    if isinstance(layout, list):
        return sum(map(holes, layout))
    if isinstance(layout, dict):
        return sum(holes(v) for v in layout.values())
    return 0


def fill(layout, leaves):
    """``layout`` with its holes replaced by the next of ``leaves``, in the
    order of the canonical text: dict values by sorted key."""
    if layout is _HOLE:
        return next(leaves)
    if isinstance(layout, list):
        return [fill(v, leaves) for v in layout]
    if isinstance(layout, dict):
        return {k: fill(layout[k], leaves) for k in sorted(layout)}
    return layout


@settings(max_examples=300, deadline=None)
@given(data=st.data(), depth=st.integers(1, 3))
def test_records_equal_json_dumps(data, depth):
    layout = data.draw(layouts(depth))
    n = holes(layout)
    values = data.draw(st.lists(st.tuples(*[LEAF] * n), max_size=4))
    # A varying leaf is handed over as its JSON text, or as an int.
    encoded = [tuple(v if isinstance(v, int) else json.dumps(v) for v in leaves)
               for leaves in values]
    expected = [fill(layout, iter(leaves)) for leaves in values]
    for wrap in (lambda x: x, lambda x: {"b": 1, "a": [x], "%": "%s"}):
        got = canonical_json(wrap(_Records(layout, iter(encoded))))
        assert got == json.dumps(wrap(expected), sort_keys=True, indent=1) + "\n"


def test_records_edge_layouts():
    cases = [
        ([[_HOLE] * 3] * 2, [(1, -20, 300, 4, 5, 6), (0, 0, 0, 0, 0, 0)]),
        ({"mass": _HOLE, "pattern": [[_HOLE]]}, [('"1/2"', 7)]),
        ({"%d%%": "100%", "é": [_HOLE, "%s"]}, [('"%s"',), ('"\\u00e9%"',)]),
        ([], [(), ()]),
        ({}, []),
        (_HOLE, [(-1,), (10**20,)]),
    ]
    for layout, values in cases:
        expected = [fill(layout, iter(json.loads(str(v)) if isinstance(v, str) else v
                                      for v in leaves)) for leaves in values]
        assert canonical_json(_Records(layout, values)) == json.dumps(
            expected, sort_keys=True, indent=1) + "\n"


@given(n=st.integers(-(10**20), 10**20), d=st.integers(-(10**20), 10**20).filter(bool))
def test_ratio_str_equals_str_of_fraction(n, d):
    assert ratio_str(n, d) == str(Fraction(n, d))


def test_ratio_str_edge_values():
    for n, d in [(0, 1), (0, 7), (0, -7), (7, 7), (-7, 7), (7, -7), (6, 4), (-6, -4), (1, 76)]:
        assert ratio_str(n, d) == str(Fraction(n, d))


def planar_block():
    """A seeded 40 x 40 block over (2, 2): about 1,300 level-2 patterns on
    the 5 x 5 box, nearly all distinct."""
    rng = random.Random("planar")
    window = Shape.box((0, 0), (39, 39))
    symbols = tuple(rng.randrange(2) for _ in range(2 * len(window)))
    return Block(window, 2, (2, 2), symbols)


def planar_measure():
    """The level-2 empirical measure of ``planar_block``."""
    return block_measure(planar_block(), 2)


def test_writing_a_measure_streams_its_text(tmp_path):
    mu = planar_measure()
    path = tmp_path / "mu.json"
    tracemalloc.start()
    try:
        files.write_measure(path, mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 500_000
    # The parent's list of entry dicts and row slices alone took more than
    # the file; a streaming writer holds one record at a time.
    assert peak < size / 10, (peak, size)
    assert files.read_measure(path) == mu


def test_writing_a_family_streams_its_text(tmp_path):
    block = planar_block()
    family = enumerate_family(Corpus(AlphabetStack((2, 2)), (block,)), 2)
    path = tmp_path / "family.json"
    tracemalloc.start()
    try:
        files.write_family(path, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 400_000
    # Codes are spelled a chunk at a time, so the writer holds a chunk's
    # texts and one record's, never a column of the file.
    assert peak < size / 10, (peak, size)
    assert path.read_text() == canonical_json(family_obj(family))


def family_obj(family):
    """The family file's object, built from the family's decoded blocks."""
    return {
        "kind": "family",
        "dim": family.base.dim,
        "level": family.level,
        "alphabet": list(family.sizes),
        "patterns": [files.block_to_obj(b)["rows"] for b in family.blocks],
    }


def test_write_csv_refuses_a_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="row 1 "):
        files.write_csv(path, ["a", "b"], [(1, 2), (3,), (4, 5)])
    with pytest.raises(ValueError, match="row 0 "):
        files.write_csv(path, ["a", "b"], [[1, 2, 3]])
    assert not path.exists()
    files.write_csv(path, ["a", "b"], [(1, "x"), [Fraction(1, 3), None]])
    assert path.read_text() == "a,b\n1,x\n1/3,None\n"


def test_freq_builds_no_block_per_pattern(tmp_path, monkeypatch):
    rng = random.Random("freq")
    rows = [[rng.randrange(2) for _ in range(400)], [rng.randrange(12) for _ in range(400)]]
    corpus = {"kind": "corpus", "dim": 1, "alphabet": [2, 12],
              "blocks": [{"min": [0], "max": [399], "depth": 2, "rows": rows}]}
    (tmp_path / "corpus.json").write_text(json.dumps(corpus))
    cfg = {"dim": 1, "alphabet": [2, 12], "window": {"min": [0], "max": [399]},
           "corpus": ["corpus.json"]}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    built = []
    init = symbolic.Block.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(symbolic.Block, "__init__", counted)
    loaded = files.ExperimentConfig.load(tmp_path / "config.json").load_corpus()
    at_load = len(built)
    assert at_load == len(loaded.blocks) == 1
    built.clear()
    argv = ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out"),
            "freq", "--level", "2"]
    assert cli.main(argv) == 0
    assert len(built) == at_load
    (csv,) = (tmp_path / "out").rglob("freq_k2_b0.csv")
    lines = csv.read_text().splitlines()
    assert len(lines) > 300 and all("-" in line.split(",")[2] for line in lines[1:])
