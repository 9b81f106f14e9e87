"""What a job imports, and the package's public surface.

Each check runs in a fresh interpreter: pytest has imported every module
already, so in its own process nothing would show.  The interpreter runs
with -S, so modules that a site hook imports do not hide one that blockdyn
imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import blockdyn
from test_files_cli import seeded_corpus, write_config, write_vertices

SRC = Path(blockdyn.__file__).resolve().parents[1]

# blockdyn.__all__ before its names were imported lazily.
PUBLIC = [
    "AlphabetStack", "Block", "BlockFamily", "ConvexTarget", "Corpus", "CylinderMeasure",
    "DistanceInterval", "HullDistance", "Quasitiling", "Shape", "StageSchedule",
    "apply_changes", "block_measure", "congruent", "count_embeddings", "decode_pattern",
    "decode_symbolic", "dist", "dist_block", "dist_k", "dist_to_hull", "encode_pattern",
    "encode_symbolic", "enumerate_family", "enumerate_full_family", "far_mass", "folner_box",
    "freq", "freq_table", "greedy_tile", "invariance_ratio", "mix", "run", "sample_bernoulli",
    "select_representative", "shape_product", "stage_transform", "subblock_at", "tail_depth",
    "translate", "verify",
]


def fresh(script: str, *args: str) -> object:
    """The JSON that ``script`` prints as its last line, run in a fresh
    interpreter that imports blockdyn from the source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def construct_config(tmp_path: Path) -> Path:
    """A benchmark-style construct configuration: a schedule, a corpus and
    target vertices."""
    config = write_config(
        tmp_path,
        target_vertices=write_vertices(tmp_path),
        schedule={
            "eps1": "1/2", "depths": [1, 1], "folner_indices": [1, 4], "tile_sides": [3, 9]
        },
        representatives={"source": "vertex", "vertex": 0, "count": 4},
    )
    seeded_corpus(tmp_path)
    return config


SETUP = """
import json, sys
from pathlib import Path

from blockdyn import files

cfg = files.ExperimentConfig.load(Path(sys.argv[1]))
assert cfg.schedule is not None and len(cfg.schedule.stages) == 2
cfg.load_corpus()
for v in cfg.vertex_paths:
    files.read_measure(v)
files.read_corpus(Path(files.__file__).parent / "data" / "micro_corpus.json")
print(json.dumps(sorted(sys.modules)))
"""


def test_reading_the_inputs_loads_no_stage_tiling_or_dataclass_code(tmp_path):
    loaded = set(fresh(SETUP, str(construct_config(tmp_path))))
    unwanted = {
        "blockdyn.construction", "blockdyn.quasitiling", "blockdyn.verification",
        "blockdyn.cli", "dataclasses", "inspect",
    }
    assert loaded & unwanted == set()
    assert {"blockdyn.files", "blockdyn.measures", "blockdyn.symbolic"} <= loaded


JOBS = """
import contextlib, io, json, sys

from blockdyn import cli

config, out = sys.argv[1:]
UNWANTED = ("dataclasses", "inspect", "blockdyn.testkit")
jobs = {}
for command, argv in {
    "gen": ["--config", config, "gen"],
    "blocks": ["--config", config, "blocks", "--level", "1"],
    "freq": ["--config", config, "freq", "--level", "1"],
    "measure": ["--config", config, "measure", "--depth", "1"],
    "dist": ["--config", config, "dist", "--block", "0", "--hull"],
    "tile": ["--config", config, "tile", "--sides", "3"],
    "construct": ["--config", config, "construct"],
    "verify": ["--seed", "3", "verify"],
}.items():
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--out", out] + argv) == 0, command
    first = sorted(set(sys.modules) - before)
    jobs[command] = [first, [m for m in UNWANTED if m in sys.modules]]
print(json.dumps(jobs))
"""


def test_cli_main_imports_no_blockdyn_module(tmp_path):
    """Each of the 8 subcommands in turn, in one fresh interpreter.  ``cli``
    imports every module at its top, so a job's timed call of ``cli.main``
    contains no first import of blockdyn code.  Every value is a
    ``group._Record``, so no job loads ``dataclasses`` or the ``inspect`` it
    imports, and production code never imports the test oracles."""
    config = construct_config(tmp_path)
    jobs = fresh(JOBS, str(config), str(tmp_path / "out"))
    commands = ["blocks", "construct", "dist", "freq", "gen", "measure", "tile", "verify"]
    assert sorted(jobs) == commands
    for command, (first, unwanted) in jobs.items():
        assert [m for m in first if m.split(".")[0] == "blockdyn"] == [], command
        assert unwanted == [], command


def test_public_names_are_pinned():
    assert blockdyn.__all__ == PUBLIC


STAR = """
import json, sys

import blockdyn
loaded_by_import = sorted(m for m in sys.modules if m.startswith("blockdyn."))
names = {}
exec("from blockdyn import *", names)
del names["__builtins__"]
# Every public name is a class or function; its home is the module that
# defines it.
own = [n for n, v in names.items() if v is getattr(sys.modules[v.__module__], n)]
try:
    blockdyn.no_such_name
    unknown = "bound"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([loaded_by_import, sorted(names), sorted(own), unknown]))
"""


def test_the_star_import_binds_each_module_s_own_object():
    loaded_by_import, bound, own, unknown = fresh(STAR)
    assert loaded_by_import == []
    assert bound == own == sorted(PUBLIC)
    assert unknown == "module 'blockdyn' has no attribute 'no_such_name'"
