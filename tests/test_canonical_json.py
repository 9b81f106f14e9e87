"""The canonical JSON encoder and the files the CLI writes with it.

``files.canonical_json`` and ``files.write_json`` must produce exactly the
bytes of ``json.dumps(obj, sort_keys=True, indent=1)`` plus a newline, for
every value the file formats hold, and raise TypeError on anything else
without touching the target file.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn import cli, files
from blockdyn.files import canonical_json
from test_files_cli import seeded_corpus, write_config, write_vertices

# Non-ASCII, quotes, backslashes and control characters next to any
# character hypothesis draws.
TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x07\x1f\x7f\n\té€\U0001f600'),
                       st.characters()),
    max_size=8,
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(),
    st.integers(-(10**300), 10**300),
    TEXT,
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=40,
)


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


@settings(max_examples=200, deadline=None)
@given(obj=VALUES)
def test_canonical_json_equals_json_dumps(obj):
    assert canonical_json(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [{}, [], (), "", 0, True, False, None, [[]], {"": {}}, [1, [2, []], {"a": ()}, 3],
     {"b": [True, 1, False, 0], "a": "é\"\\\n", "c": None}],
)
def test_canonical_json_edge_values(obj, tmp_path):
    assert canonical_json(obj) == reference(obj)
    files.write_json(tmp_path / "x.json", obj)
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == reference(obj)


BAD = {
    "float": {"a": [1, 2], "b": 1.0},
    "set": [0, {1, 2}],
    "int key": {"a": 1, 2: "b"},
    # a long run is streamed before the float is reached
    "late float": {"a": list(range(10_000)), "z": [0.5]},
}


@pytest.mark.parametrize("name", sorted(BAD))
def test_values_without_an_encoding_raise_and_leave_the_target_as_it_was(tmp_path, name):
    obj = BAD[name]
    with pytest.raises(TypeError):
        canonical_json(obj)
    new = tmp_path / "new" / "x.json"
    with pytest.raises(TypeError):
        files.write_json(new, obj)
    assert not new.exists()
    old = tmp_path / "old.json"
    old.write_text('{"kept": 1}\n')
    with pytest.raises(TypeError):
        files.write_json(old, obj)
    assert old.read_text() == '{"kept": 1}\n'
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["old.json"]


def test_every_json_the_cli_writes_is_canonical(tmp_path):
    vertices = write_vertices(tmp_path)
    seeded_corpus(tmp_path)
    p = write_config(
        tmp_path,
        target_vertices=vertices,
        tile_sides=[3, 2],
        schedule={"eps1": "1/2", "depths": [1, 1], "folner_indices": [1, 4],
                  "tile_sides": [3, 9]},
        representatives={"source": "vertex", "vertex": 0, "count": 4},
    )
    out = tmp_path / "out"
    for argv in (["blocks", "--level", "1"], ["measure", "--depth", "1"], ["tile"],
                 ["construct"]):
        assert cli.main(["--config", str(p), "--out", str(out)] + argv) == 0
    written = sorted(out.rglob("*.json"))
    assert {w.name for w in written} >= {
        "family_k1.json", "measure_b0_j1.json", "tiling.json", "run_manifest.json",
        "changes_t1.json", "changes_t2.json", "final_block.json",
    }
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == reference(json.loads(text)), path.name


def test_a_measure_lists_each_pattern_once(tmp_path, capsys):
    seeded_corpus(tmp_path)
    p = write_config(tmp_path)
    mu = {"kind": "measure", "dim": 1, "alphabet": [2], "depth": 1,
          "base_min": [0], "base_max": [0],
          "masses": [{"pattern": [[0]], "mass": "1/4"},
                     {"pattern": [[0]], "mass": "1/2"},
                     {"pattern": [[1]], "mass": "1/2"}]}
    (tmp_path / "nu.json").write_text(canonical_json(mu))
    with pytest.raises(files.ConfigError, match=r"pattern \[\[0\]\] is listed more than once"):
        files.read_measure(tmp_path / "nu.json")
    argv = ["--config", str(p), "--out", str(tmp_path / "out"), "dist", "--block", "0",
            "--nu", str(tmp_path / "nu.json")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "listed more than once" in capsys.readouterr().err


@pytest.mark.parametrize(
    "masses,ok",
    [
        ({"0": "0", "1": "1"}, True),      # a zero mass is dropped
        ({"0": "-1/2", "1": "3/2"}, False),  # a negative mass
        ({"0": "1/2", "1": "3/4"}, False),   # a total other than 1
        ({"0": "0", "1": "0"}, False),       # no positive mass
        ({"0": "1/2", "2": "1/2"}, False),   # symbols outside the alphabet
        ({"0": "1/2", "-1": "1/2"}, False),
    ],
)
def test_measure_masses_keep_their_rules(tmp_path, masses, ok):
    mu = {"kind": "measure", "dim": 1, "alphabet": [2], "depth": 1,
          "base_min": [0], "base_max": [0],
          "masses": [{"pattern": [[int(s)]], "mass": m} for s, m in masses.items()]}
    (tmp_path / "nu.json").write_text(canonical_json(mu))
    if ok:
        assert dict(files.read_measure(tmp_path / "nu.json").atoms()) == {(1,): Fraction(1)}
    else:
        with pytest.raises(files.ConfigError):
            files.read_measure(tmp_path / "nu.json")
