"""Mutated corpus, measure, tiling and configuration files exit 0, 2 or 3.

Each example writes a small valid fixture set (a 27-cell corpus, two
vertex measures, a tiling and a configuration with every section), applies
one to three random edits to one of the files (replace a value, delete a
key or item, append an item, drop the last item) and runs one command on
it.  The CLI maps parse errors to 2 and precondition violations to 3; any
other exception fails the test with its traceback.  Tilings have no
command of their own, so they are read and checked through the library
with the same mapping.  ``verify`` reads its configuration and corpus as
the other commands do and is left out because its suites take seconds.

Replacement integers stay small (-2..30): sizes come from the files, and a
configured window or block above ``files.MAX_BOX_CELLS`` is covered by
``test_files_cli.test_oversized_boxes_exit_2_before_any_allocation``.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from blockdyn import cli, files
from blockdyn.files import ConfigError
from blockdyn.group import Shape
from blockdyn.quasitiling import Quasitiling, decode_symbolic, encode_symbolic, verify
from test_files_cli import seeded_corpus, write_config, write_vertices

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 30),
    st.sampled_from(["", "x", "1/2", "0/0", "-1", "corpus.json"]),
    st.just(1.5),
    st.just([]),
    st.just({}),
    st.just([[0, 1]]),
)

COMMANDS = [
    ["gen"],
    ["blocks", "--level", "1"],
    ["freq", "--level", "1"],
    ["measure", "--depth", "1"],
    ["dist", "--block", "0", "--nu", "v1.json"],
    ["dist", "--mu", "v1.json", "--nu", "v0.json"],
    ["dist", "--block", "0", "--hull"],
    ["tile"],
    ["construct"],
]


def slots(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from slots(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from slots(v, path + (i,))


def mutate(data, obj):
    def leaf():
        return copy.deepcopy(data.draw(LEAVES))  # st.just shares its value

    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(slots(obj))))
        op = data.draw(st.sampled_from(["replace", "delete", "append", "truncate"]))
        if not path:
            if op == "replace":
                obj = leaf()
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        if op == "replace":
            parent[path[-1]] = leaf()
        elif op == "delete":
            del parent[path[-1]]
        elif op == "append" and isinstance(value, list):
            value.append(copy.deepcopy(value[0]) if value else leaf())
        elif op == "truncate" and isinstance(value, list) and value:
            value.pop()
    return obj


def write_fixtures(d: Path) -> Path:
    seeded_corpus(d)
    write_vertices(d)
    files.write_tiling(
        d / "tiling.json",
        Quasitiling(
            Shape.interval(0, 26),
            (Shape.interval(0, 2), Shape.of([(0,), (2,)])),
            (frozenset({(0,), (9,)}), frozenset({(4,)})),
        ),
    )
    return write_config(
        d,
        target_vertices=["v0.json", "v1.json"],
        schedule={"eps1": "1/2", "depths": [1, 1], "folner_indices": [1, 4], "tile_sides": [3, 9]},
        representatives={"source": "vertex", "vertex": 0, "count": 2},
        tile_sides=[5, 2],
    )


def check_tiling(path: Path) -> int:
    try:
        tiling = files.read_tiling(path)
        verify(tiling)
        decode_symbolic(encode_symbolic(tiling), tiling.shapes)
    except ConfigError:
        return 2
    except ValueError:
        return 3
    return 0


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_mutated_files_exit_0_2_or_3(data):
    name = data.draw(st.sampled_from(["config.json", "corpus.json", "v0.json", "tiling.json"]))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        config = write_fixtures(d)
        target = d / name
        target.write_text(json.dumps(mutate(data, json.loads(target.read_text()))))
        if name == "tiling.json":
            assert check_tiling(target) in (0, 2, 3)
            return
        command = data.draw(st.sampled_from(COMMANDS))
        args = [str(d / a) if a.endswith(".json") else a for a in command]
        assert cli.main(["--config", str(config), "--out", str(d / "out")] + args) in (0, 2, 3)
