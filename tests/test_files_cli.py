import json
from fractions import Fraction
from functools import cached_property
from math import prod
from pathlib import Path

import pytest

from blockdyn import cli, files
from blockdyn.files import (
    ConfigError,
    ExperimentConfig,
    block_from_word,
    block_to_word,
    canonical_json,
    frac_str,
    parse_frac,
)
from blockdyn.group import Shape, folner_box
from blockdyn.measures import CylinderMeasure, block_measure
from blockdyn.quasitiling import Quasitiling
from blockdyn.symbolic import AlphabetStack, Block, Corpus, sample_bernoulli


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_word_helpers_round_trip():
    b = block_from_word("abbab", start=-2)
    assert block_to_word(b) == "abbab"
    assert b.shape == Shape.interval(-2, 2)


def test_fraction_serialization():
    assert frac_str(Fraction(2, 4)) == "1/2"
    assert parse_frac("1/2") == Fraction(1, 2)
    assert parse_frac("3") == Fraction(3)
    with pytest.raises(ConfigError):
        parse_frac("not-a-number")


def test_corpus_round_trip(tmp_path):
    stack = AlphabetStack((2, 3))
    block = sample_bernoulli(
        Shape.interval(-5, 5), stack, [[0.5, 0.5], [0.2, 0.5, 0.3]], seed=1
    )
    corpus = Corpus(stack, (block,))
    p = tmp_path / "corpus.json"
    files.write_corpus(p, corpus)
    again = files.read_corpus(p)
    assert again == corpus
    # byte stability
    files.write_corpus(tmp_path / "c2.json", again)
    assert (tmp_path / "c2.json").read_bytes() == p.read_bytes()


def test_measure_round_trip(tmp_path):
    word = block_from_word("aababab", start=-3)
    mu = block_measure(word, 1)
    p = tmp_path / "mu.json"
    files.write_measure(p, mu)
    again = files.read_measure(p)
    assert again == mu
    raw = json.loads(p.read_text())
    assert raw["masses"][0]["mass"].count("/") <= 1


def test_tiling_round_trip(tmp_path):
    t = Quasitiling(
        Shape.interval(0, 9),
        (Shape.interval(0, 1), Shape.interval(0, 2)),
        (frozenset({(0,), (2,)}), frozenset({(6,)})),
    )
    p = tmp_path / "tiling.json"
    files.write_tiling(p, t)
    assert files.read_tiling(p) == t


def test_canonical_json_sorted_and_newline():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s.endswith("\n")
    assert s.index('"a"') < s.index('"b"')


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "dim": 1,
        "alphabet": [2],
        "window": {"min": [0], "max": [26]},
        "folner_levels": 1,
        "corpus": ["corpus.json"],
        "seed": 2026,
        "gen": {"kind": "bernoulli", "probs": [["1/4", "3/4"]], "count": 1},
    }
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(canonical_json(cfg))
    return p


def seeded_corpus(tmp_path: Path, seed: int = 33) -> Corpus:
    stack = AlphabetStack((2,))
    block = sample_bernoulli(
        Shape.interval(0, 26), stack, [[Fraction(1, 4), Fraction(3, 4)]], seed=seed
    )
    corpus = Corpus(stack, (block,))
    files.write_corpus(tmp_path / "corpus.json", corpus)
    return corpus


def write_vertices(tmp_path: Path) -> list[str]:
    f1 = folner_box(1, 1)
    names = []
    for i, sym in enumerate((0, 1)):
        m = CylinderMeasure(1, f1, {Block.constant(f1, 1, (2,), sym): Fraction(1)})
        name = f"v{i}.json"
        files.write_measure(tmp_path / name, m)
        names.append(name)
    return names


def test_config_loading_and_seed_override(tmp_path):
    p = write_config(tmp_path)
    cfg = ExperimentConfig.load(p)
    assert cfg.seed == 2026
    cfg2 = ExperimentConfig.load(p, seed_override=7)
    assert cfg2.seed == 7
    assert cfg.content_hash() != cfg2.content_hash()


def test_config_missing_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.load(tmp_path / "nope.json")


def test_cli_gen_blocks_freq_measure(tmp_path, capsys):
    p = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["--config", str(p), "--out", str(out), "gen"]) == 0
    rundir = next(out.glob("run-*"))
    corpus = files.read_corpus(rundir / "corpus.json")
    assert len(corpus.blocks) == 1

    seeded_corpus(tmp_path)
    assert cli.main(["--config", str(p), "--out", str(out), "blocks", "--level", "1"]) == 0
    assert (rundir / "family_k1.json").exists()

    assert cli.main(["--config", str(p), "--out", str(out), "freq", "--level", "1"]) == 0
    freq_csv = (rundir / "freq_k1_b0.csv").read_text()
    assert freq_csv.splitlines()[0] == "block_index,level,pattern,N_B,N_F,fr_B"

    assert cli.main(["--config", str(p), "--out", str(out), "measure", "--depth", "1"]) == 0
    mu = files.read_measure(rundir / "measure_b0_j1.json")
    assert sum(m for _, m in mu.items()) == 1


def test_cli_dist_and_tile(tmp_path):
    p = write_config(tmp_path)
    seeded_corpus(tmp_path)
    names = write_vertices(tmp_path)
    out = tmp_path / "out"
    assert (
        cli.main(
            ["--config", str(p), "--out", str(out), "measure", "--depth", "1"]
        )
        == 0
    )
    rundir = next(out.glob("run-*"))
    mu_path = rundir / "measure_b0_j1.json"
    code = cli.main(
        ["--config", str(p), "--out", str(out), "dist",
         "--mu", str(mu_path), "--nu", str(tmp_path / names[0])]
    )
    assert code == 0
    dist_csv = (rundir / "dist.csv").read_text()
    assert dist_csv.splitlines()[0] == "quantity,level,value"
    assert "d_k" in dist_csv and "lower" in dist_csv and "tail" in dist_csv

    # self distance lower part is zero
    code = cli.main(
        ["--config", str(p), "--out", str(out), "dist",
         "--mu", str(mu_path), "--nu", str(mu_path)]
    )
    assert code == 0
    rows = (rundir / "dist.csv").read_text().splitlines()
    lower_row = [r for r in rows if r.startswith("lower")][0]
    assert lower_row.split(",")[2] == "0"

    # block against measure goes through the frequency-based distance
    code = cli.main(
        ["--config", str(p), "--out", str(out), "dist",
         "--block", "0", "--nu", str(mu_path)]
    )
    assert code == 0
    rows = (rundir / "dist.csv").read_text().splitlines()
    lower_row = [r for r in rows if r.startswith("lower")][0]
    assert lower_row.split(",")[2] == "0"

    assert (
        cli.main(["--config", str(p), "--out", str(out), "tile", "--sides", "5"]) == 0
    )
    tile_csv = (rundir / "tile.csv").read_text()
    assert "covered_fraction" in tile_csv.splitlines()[0]
    tiling = files.read_tiling(rundir / "tiling.json")
    assert tiling.tile_count() == 5


def test_cli_tile_planar_full_cover(tmp_path):
    cfg = {
        "dim": 2,
        "alphabet": [2],
        "window": {"min": [0, 0], "max": [9, 9]},
        "seed": 1,
    }
    p = tmp_path / "config.json"
    p.write_text(canonical_json(cfg))
    out = tmp_path / "out"
    assert cli.main(["--config", str(p), "--out", str(out), "tile", "--sides", "5"]) == 0
    rundir = next(out.glob("run-*"))
    rows = (rundir / "tile.csv").read_text().splitlines()
    header = rows[0].split(",")
    row = rows[1].split(",")
    assert row[header.index("covered_fraction")] == "1"
    assert row[header.index("disjoint")] == "True"
    tiling = files.read_tiling(rundir / "tiling.json")
    assert tiling.tile_count() == 4


def test_cli_hull_distance(tmp_path):
    p = write_config(
        tmp_path, target_vertices=["v0.json", "v1.json"]
    )
    seeded_corpus(tmp_path)
    write_vertices(tmp_path)
    out = tmp_path / "out"
    code = cli.main(
        ["--config", str(p), "--out", str(out), "dist", "--block", "0", "--hull"]
    )
    assert code == 0
    rundir = next(out.glob("run-*"))
    content = (rundir / "dist.csv").read_text()
    assert "hull_lower" in content and "weight_0" in content


def test_cli_construct_and_determinism(tmp_path):
    p = write_config(
        tmp_path,
        target_vertices=["v0.json", "v1.json"],
        schedule={
            "eps1": "1/2",
            "depths": [1, 1, 1],
            "folner_indices": [1, 4, 13],
            "tile_sides": [3, 9, 27],
        },
        representatives={"source": "vertex", "vertex": 0, "count": 4},
    )
    seeded_corpus(tmp_path)
    write_vertices(tmp_path)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert cli.main(["--config", str(p), "--out", str(out1), "construct"]) == 0
    assert cli.main(["--config", str(p), "--out", str(out2), "construct"]) == 0
    t1 = tree_bytes(out1)
    t2 = tree_bytes(out2)
    assert t1 == t2
    rundir = next(out1.glob("run-*"))
    stages = (rundir / "stages.csv").read_text().splitlines()
    assert stages[0].startswith("stage,eps,delta")
    assert len(stages) == 4
    assert (rundir / "final_block.json").exists()
    assert (rundir / "changes_t1.json").exists()


def test_cli_verify_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "v1"
    out2 = tmp_path / "v2"
    assert cli.main(["--out", str(out1), "verify"]) == 0
    assert cli.main(["--out", str(out2), "verify"]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)
    rundir = out1 / "run-verify"
    for name in (
        "verify_block_measure_gap.csv",
        "verify_tiling_average_gap.csv",
        "verify_metric_axioms.csv",
    ):
        text = (rundir / name).read_text()
        lines = text.splitlines()
        assert lines[0] == "case,deviation,bound,slack,violation"
        assert all(line.endswith(",False") for line in lines[1:])


def test_cli_exit_codes(tmp_path):
    # parse error: malformed config
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["--config", str(bad), "gen"]) == 2
    # missing config for a command that needs one
    assert cli.main(["blocks", "--level", "1"]) == 2
    # precondition violation: level exceeding the stack depth
    p = write_config(tmp_path)
    seeded_corpus(tmp_path)
    out = tmp_path / "out"
    assert (
        cli.main(["--config", str(p), "--out", str(out), "blocks", "--level", "2"]) == 3
    )


@pytest.mark.parametrize(
    "command",
    [
        ["freq", "--level", "1"],
        ["measure", "--depth", "1"],
        ["dist", "--nu", "v1.json"],
        ["construct"],
    ],
)
def test_a_block_index_outside_the_corpus_exits_2_before_any_family(
    tmp_path, capsys, monkeypatch, command
):
    def no_family(corpus, k):
        raise AssertionError("a family was enumerated")

    p = write_config(tmp_path, target_vertices=["v0.json", "v1.json"], schedule=SCHEDULE)
    seeded_corpus(tmp_path)
    write_vertices(tmp_path)
    monkeypatch.setattr(cli, "enumerate_family", no_family)
    monkeypatch.chdir(tmp_path)
    argv = ["--config", str(p), "--out", str(tmp_path / "out")] + command + ["--block", "5"]
    assert cli.main(argv) == 2
    assert "corpus has no block 5" in capsys.readouterr().err


def test_rows_must_have_one_entry_per_cell(tmp_path):
    ragged = {"min": [0], "max": [2], "depth": 2, "rows": [[0, 1], [1, 0, 1, 1]]}
    corpus = {"kind": "corpus", "dim": 1, "alphabet": [2, 2], "blocks": [ragged]}
    (tmp_path / "corpus.json").write_text(canonical_json(corpus))
    with pytest.raises(ConfigError):
        files.read_corpus(tmp_path / "corpus.json")
    p = write_config(tmp_path, alphabet=[2, 2], window={"min": [0], "max": [2]})
    out = str(tmp_path / "out")
    assert cli.main(["--config", str(p), "--out", out, "blocks", "--level", "1"]) == 2

    seeded_corpus(tmp_path)
    (name,) = write_vertices(tmp_path)[:1]
    mu = json.loads((tmp_path / name).read_text())
    mu["masses"][0]["pattern"] = [[1, 1], [1]]  # three cells, split unevenly
    (tmp_path / name).write_text(canonical_json(mu))
    p = write_config(tmp_path)
    args = ["--config", str(p), "--out", out, "dist", "--block", "0", "--nu", str(tmp_path / name)]
    assert cli.main(args) == 2


def test_oversized_boxes_exit_2_before_any_allocation(tmp_path, monkeypatch):
    # A box is its corners, so building one allocates nothing; building its
    # cells does, and every cell list of a box is built from sorted_points.
    def boom(self):
        raise AssertionError("the points of a box were built")

    built = cached_property(boom)
    built.__set_name__(Shape, "sorted_points")
    monkeypatch.setattr(Shape, "sorted_points", built)
    huge = {"min": [0, 0], "max": [10**6 - 1, 10**6 - 1]}  # 10^12 cells
    p = write_config(tmp_path, dim=2, window=huge)
    out = str(tmp_path / "out")
    assert cli.main(["--config", str(p), "--out", out, "tile", "--sides", "2"]) == 2
    # a block entry at the limit whose rows are short fails on the row check
    side = files.MAX_BOX_CELLS
    entry = {"min": [0], "max": [side - 1], "depth": 1, "rows": [[0, 1]]}
    corpus = {"kind": "corpus", "dim": 1, "alphabet": [2], "blocks": [entry]}
    (tmp_path / "corpus.json").write_text(canonical_json(corpus))
    with pytest.raises(ConfigError):
        files.read_corpus(tmp_path / "corpus.json")
    entry["max"] = [side]
    (tmp_path / "corpus.json").write_text(canonical_json(corpus))
    with pytest.raises(ConfigError, match="exceeds the limit"):
        files.read_corpus(tmp_path / "corpus.json")


def test_tile_sides_over_the_cell_limit_exit_2_before_any_tile_is_built(tmp_path, monkeypatch):
    real_box = Shape.box.__func__

    def guarded(cls, lo, hi):
        if prod(b - a + 1 for a, b in zip(lo, hi)) > files.MAX_BOX_CELLS:
            raise AssertionError(f"Shape.box called for {lo}..{hi}")
        return real_box(cls, lo, hi)

    monkeypatch.setattr(Shape, "box", classmethod(guarded))
    planar = {"min": [0, 0], "max": [3, 3]}
    out = str(tmp_path / "out")
    p = write_config(tmp_path, dim=2, window=planar)
    assert cli.main(["--config", str(p), "--out", out, "tile", "--sides", str(10**6)]) == 2
    # side^dim = 1448^2 is at most the limit; 1449^2 is above it
    assert 1448**2 <= files.MAX_BOX_CELLS < 1449**2
    p = write_config(tmp_path, dim=2, window=planar, tile_sides=[2, 1449])
    assert cli.main(["--config", str(p), "--out", out, "tile"]) == 2
    schedule = {"eps1": "1/2", "depths": [1, 1], "folner_indices": [1, 4],
                "tile_sides": [2, 10**6]}
    p = write_config(tmp_path, dim=2, window=planar, schedule=schedule)
    with pytest.raises(ConfigError, match="exceeds the limit"):
        ExperimentConfig.load(p)
    assert cli.main(["--config", str(p), "--out", out, "construct"]) == 2
    assert cli.main(["--config", str(p), "--out", out, "tile", "--sides", "2"]) == 2
    p = write_config(tmp_path, dim=2, window=planar, tile_sides=[2, 3])
    assert cli.main(["--config", str(p), "--out", out, "tile"]) == 0


@pytest.mark.parametrize("entry", [0.9, 1.0, True, False, "1", None, [1]])
def test_block_and_measure_entries_must_be_json_integers(tmp_path, entry):
    out = str(tmp_path / "out")
    rows = [[0, 1, entry]]
    corpus = {"kind": "corpus", "dim": 1, "alphabet": [2],
              "blocks": [{"min": [0], "max": [2], "depth": 1, "rows": rows}]}
    (tmp_path / "corpus.json").write_text(json.dumps(corpus))
    with pytest.raises(ConfigError, match="must be integers"):
        files.read_corpus(tmp_path / "corpus.json")
    p = write_config(tmp_path, window={"min": [0], "max": [2]})
    assert cli.main(["--config", str(p), "--out", out, "blocks", "--level", "1"]) == 2

    seeded_corpus(tmp_path)
    name = write_vertices(tmp_path)[0]
    mu = json.loads((tmp_path / name).read_text())
    mu["masses"][0]["pattern"] = rows
    (tmp_path / name).write_text(json.dumps(mu))
    with pytest.raises(ConfigError, match="must be integers"):
        files.read_measure(tmp_path / name)
    p = write_config(tmp_path)
    args = ["--config", str(p), "--out", out, "dist", "--block", "0", "--nu", str(tmp_path / name)]
    assert cli.main(args) == 2


@pytest.mark.parametrize("alphabet,depth", [([2, 2], 1), ([2], 2), ([], 1)])
def test_measure_alphabet_must_list_one_size_per_row(tmp_path, capsys, alphabet, depth):
    seeded_corpus(tmp_path)
    name = write_vertices(tmp_path)[0]
    p = write_config(tmp_path)
    out = str(tmp_path / "out")
    args = ["--config", str(p), "--out", out, "dist", "--block", "0", "--nu", str(tmp_path / name)]
    assert cli.main(args) == 0
    mu = json.loads((tmp_path / name).read_text())
    mu["alphabet"], mu["depth"] = alphabet, depth
    (tmp_path / name).write_text(canonical_json(mu))
    message = f"alphabet lists {len(alphabet)} sizes but depth is {depth}"
    with pytest.raises(ConfigError, match=message):
        files.read_measure(tmp_path / name)
    capsys.readouterr()
    assert cli.main(args) == 2
    assert message in capsys.readouterr().err


def test_the_corpus_row_of_a_float_and_a_bool_no_longer_reads_as_symbols(tmp_path):
    corpus = {"kind": "corpus", "dim": 1, "alphabet": [2],
              "blocks": [{"min": [0], "max": [1], "depth": 1, "rows": [[0.9, True]]}]}
    (tmp_path / "corpus.json").write_text(json.dumps(corpus))
    with pytest.raises(ConfigError):
        files.read_corpus(tmp_path / "corpus.json")
    corpus["blocks"][0]["rows"] = [[0, 1]]
    (tmp_path / "corpus.json").write_text(canonical_json(corpus))
    (block,) = files.read_corpus(tmp_path / "corpus.json").blocks
    assert block.symbols == (0, 1) and all(type(s) is int for s in block.symbols)


def test_every_command_runs_without_block_get(tmp_path, monkeypatch):
    def no_get(self, p, row):
        raise AssertionError("Block.get called")

    p = write_config(
        tmp_path,
        target_vertices=["v0.json", "v1.json"],
        schedule={"eps1": "1/2", "depths": [1, 1], "folner_indices": [1, 4], "tile_sides": [3, 9]},
        representatives={"source": "vertex", "vertex": 0, "count": 2},
    )
    seeded_corpus(tmp_path)
    write_vertices(tmp_path)
    monkeypatch.setattr(Block, "get", no_get)
    base = ["--config", str(p), "--out", str(tmp_path / "out")]
    nu = str(tmp_path / "v1.json")
    for args in (
        ["gen"],
        ["blocks", "--level", "1"],
        ["freq", "--level", "1"],
        ["measure", "--depth", "1"],
        ["dist", "--block", "0", "--nu", nu],
        ["dist", "--mu", nu, "--nu", str(tmp_path / "v0.json")],
        ["dist", "--block", "0", "--hull"],
        ["tile", "--sides", "5", "2"],
        ["construct"],
        ["verify"],
    ):
        assert cli.main(base + args) == 0, args


SCHEDULE = {"eps1": "1/2", "depths": [1], "folner_indices": [1], "tile_sides": [3]}
VERTEX_REPS = {"source": "vertex", "vertex": 0, "count": 2}
BLOCKS, HULL, TILE = ["blocks", "--level", "1"], ["dist", "--block", "0", "--hull"], ["tile"]

# (file, path to the holder, key, command or None for a tiling read, config
# extras); a list value has its first entry replaced, a scalar itself.
INTEGER_FIELDS = {
    "block-depth": ("corpus.json", ["blocks", 0], "depth", BLOCKS, {}),
    "block-min": ("corpus.json", ["blocks", 0], "min", BLOCKS, {}),
    "corpus-alphabet": ("corpus.json", [], "alphabet", BLOCKS, {}),
    "measure-depth": ("v0.json", [], "depth", HULL, {}),
    "measure-base-min": ("v0.json", [], "base_min", HULL, {}),
    "measure-alphabet": ("v0.json", [], "alphabet", HULL, {}),
    "config-alphabet": ("config.json", [], "alphabet", BLOCKS, {}),
    "config-dim": ("config.json", [], "dim", BLOCKS, {}),
    "config-seed": ("config.json", [], "seed", ["gen"], {}),
    "config-window-min": ("config.json", ["window"], "min", BLOCKS, {}),
    "config-tile-sides": ("config.json", [], "tile_sides", TILE, {}),
    "schedule-depths": ("config.json", ["schedule"], "depths", ["construct"], {}),
    "schedule-folner-indices": (
        "config.json", ["schedule"], "folner_indices", ["construct"], {}
    ),
    "schedule-tile-sides": ("config.json", ["schedule"], "tile_sides", ["construct"], {}),
    "gen-count": ("config.json", ["gen"], "count", ["gen"], {}),
    "representatives-vertex": (
        "config.json", ["representatives"], "vertex", ["construct"],
        {"representatives": VERTEX_REPS},
    ),
    "representatives-count": (
        "config.json", ["representatives"], "count", ["construct"],
        {"representatives": VERTEX_REPS},
    ),
    "representatives-limit": (
        "config.json", ["representatives"], "limit", ["construct"],
        {"representatives": {"source": "corpus", "limit": 4}},
    ),
    "tiling-window-min": ("tiling.json", [], "window_min", None, {}),
    "tiling-shape-point": ("tiling.json", ["shapes", 0], 0, None, {}),
    "tiling-center": ("tiling.json", ["centers", 0], 0, None, {}),
}


@pytest.mark.parametrize("value", [1.5, 1.0, True, "1"], ids=["1.5", "1.0", "true", "str-1"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_every_integer_field_must_be_a_json_integer(tmp_path, capsys, field, value):
    name, holder_path, key, argv, extra = INTEGER_FIELDS[field]
    seeded_corpus(tmp_path)
    vertices = write_vertices(tmp_path)
    files.write_tiling(
        tmp_path / "tiling.json",
        Quasitiling(Shape.interval(0, 8), (Shape.interval(0, 2),), (frozenset({(0,), (3,)}),)),
    )
    overrides = dict(target_vertices=vertices, schedule=SCHEDULE, tile_sides=[3])
    config = write_config(tmp_path, **dict(overrides, **extra))
    path = tmp_path / name

    def run(out: str) -> int:
        if argv is None:
            files.read_tiling(path)
            return 0
        return cli.main(["--config", str(config), "--out", str(tmp_path / out)] + argv)

    assert run("good") == 0
    obj = json.loads(path.read_text())
    holder = obj
    for step in holder_path:
        holder = holder[step]
    if isinstance(holder[key], list):
        holder[key][0] = value
    else:
        holder[key] = value
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    if argv is None:
        with pytest.raises(ConfigError, match="must be integers"):
            run("bad")
        return
    assert run("bad") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be integers" in err
