import json
from fractions import Fraction
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
    def boom(cls, lo, hi):
        raise AssertionError("Shape.box called")

    monkeypatch.setattr(Shape, "box", classmethod(boom))
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
