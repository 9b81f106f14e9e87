"""Module and input boundaries: read-only caches, malformed data files and
the rule that production code never imports the test kit."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

import blockdyn
from blockdyn import cli
from blockdyn.files import block_from_word, canonical_json
from blockdyn.frequency import freq, freq_table
from blockdyn.group import Shape
from blockdyn.measures import block_measure
from blockdyn.symbolic import Block

WORD = block_from_word("aababab", start=-3)
ABA = block_from_word("aba", start=-1)


def test_freq_table_is_read_only():
    table = freq_table(WORD, ABA.shape, 1)
    with pytest.raises(TypeError):
        table[ABA.symbols] = Fraction(9)
    with pytest.raises(AttributeError):
        table.clear()
    with pytest.raises(TypeError):
        table.counts[ABA.symbols] = 9
    with pytest.raises(AttributeError):
        table.total = 9
    assert freq(WORD, ABA) == Fraction(2, 5)


def test_marginal_is_read_only():
    mu = block_measure(block_from_word("abbabaab"), 1)
    center_b = Block(Shape.of([(0,)]), 1, (2,), (1,))
    before = mu.value(center_b)
    marg = mu.marginal(center_b.shape, 1)
    with pytest.raises(TypeError):
        marg[center_b.symbols] = Fraction(9)
    with pytest.raises(AttributeError):
        marg.clear()
    with pytest.raises(TypeError):
        marg.counts[center_b.symbols] = 9
    with pytest.raises(AttributeError):
        marg.total = 9
    assert mu.value(center_b) == before == Fraction(1, 2)


def _config(tmp_path: Path) -> Path:
    cfg = {
        "dim": 1,
        "alphabet": [2],
        "window": {"min": [0], "max": [9]},
        "corpus": ["corpus.json"],
        "target_vertices": ["v0.json"],
    }
    p = tmp_path / "config.json"
    p.write_text(canonical_json(cfg))
    return p


GOOD_CORPUS = {
    "kind": "corpus",
    "dim": 1,
    "alphabet": [2],
    "blocks": [{"min": [0], "max": [4], "depth": 1, "rows": [[0, 1, 1, 0, 1]]}],
}
GOOD_MEASURE = {
    "kind": "measure",
    "dim": 1,
    "alphabet": [2],
    "depth": 1,
    "base_min": [-1],
    "base_max": [1],
    "masses": [{"pattern": [[0, 1, 0]], "mass": "1"}],
}


@pytest.mark.parametrize(
    "corpus, measure, argv",
    [
        (
            {k: v for k, v in GOOD_CORPUS.items() if k != "alphabet"},
            GOOD_MEASURE,
            ["blocks", "--level", "1"],
        ),
        ([GOOD_CORPUS], GOOD_MEASURE, ["blocks", "--level", "1"]),
        (
            GOOD_CORPUS,
            {k: v for k, v in GOOD_MEASURE.items() if k != "alphabet"},
            ["dist", "--block", "0", "--hull"],
        ),
    ],
    ids=["corpus-without-alphabet", "corpus-as-list", "measure-without-alphabet"],
)
def test_malformed_data_file_exits_2(tmp_path, capsys, corpus, measure, argv):
    (tmp_path / "corpus.json").write_text(json.dumps(corpus))
    (tmp_path / "v0.json").write_text(json.dumps(measure))
    out = tmp_path / "out"
    rc = cli.main(["--config", str(_config(tmp_path)), "--out", str(out)] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


BERNOULLI = {"kind": "bernoulli", "probs": [["1/2", "1/2"]]}
SCHEDULE = {"eps1": "1/2", "depths": [1], "folner_indices": [1], "tile_sides": [3]}


@pytest.mark.parametrize(
    "extra, argv",
    [
        ({"seed": 1, "gen": {"kind": "bernoulli"}}, ["gen"]),
        ({"seed": 1, "gen": dict(BERNOULLI, count="two")}, ["gen"]),
        ({"seed": "abc", "gen": BERNOULLI}, ["gen"]),
        ({"tile_sides": ["x"]}, ["tile"]),
        ({"seed": 1, "schedule": SCHEDULE, "representatives": ["vertex"]}, ["construct"]),
        (
            {"seed": 1, "schedule": SCHEDULE,
             "representatives": {"source": "vertex", "vertex": "a"}},
            ["construct"],
        ),
        (
            {"seed": 1, "schedule": SCHEDULE,
             "representatives": {"source": "vertex", "vertex": 5}},
            ["construct"],
        ),
    ],
    ids=[
        "gen-without-probs", "gen-count-not-int",
        "seed-not-int", "tile-sides-not-int", "representatives-as-list",
        "vertex-not-int", "vertex-out-of-range",
    ],
)
def test_malformed_config_section_exits_2(tmp_path, capsys, extra, argv):
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    config = _config(tmp_path)
    config.write_text(canonical_json(dict(json.loads(config.read_text()), **extra)))
    out = tmp_path / "out"
    rc = cli.main(["--config", str(config), "--out", str(out)] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_hull_distance_writes_no_gap_row(tmp_path):
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    out = tmp_path / "out"
    argv = ["--config", str(_config(tmp_path)), "--out", str(out), "dist", "--block", "0", "--hull"]
    assert cli.main(argv) == 0
    (csv,) = out.glob("run-*/dist.csv")
    rows = [line.split(",")[0] for line in csv.read_text().splitlines()[1:]]
    assert rows == ["hull_lower", "tail", "weight_0"]


def test_production_code_does_not_import_testkit():
    offenders = []
    for path in sorted(Path(blockdyn.__file__).parent.glob("*.py")):
        if path.name == "testkit.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n == "testkit" or n.endswith(".testkit") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_unknown_representatives_source_exits_2_and_a_missing_one_is_corpus(tmp_path, capsys):
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    config = _config(tmp_path)
    base = dict(json.loads(config.read_text()), seed=1, schedule=SCHEDULE)
    out = str(tmp_path / "out")
    for reps, rc in [({"source": "vertx"}, 2), ({"limit": 4}, 0), ({"source": "corpus"}, 0)]:
        config.write_text(canonical_json(dict(base, representatives=reps)))
        assert cli.main(["--config", str(config), "--out", out, "construct"]) == rc
    config.write_text(canonical_json(dict(base, representatives={"source": "vertx"})))
    capsys.readouterr()
    cli.main(["--config", str(config), "--out", out, "construct"])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(w in err for w in ("vertx", '"vertex"', '"corpus"'))


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_dist_with_no_family_level_exits_3(tmp_path, capsys, levels):
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    base = ["--config", str(_config(tmp_path)), "--out", str(tmp_path / "out"), "dist"]
    for argv in (["--block", "0", "--hull"], ["--block", "0", "--nu", str(tmp_path / "v0.json")]):
        assert cli.main(base + argv) == 0
        capsys.readouterr()
        assert cli.main(base + argv + ["--levels", levels]) == 3
        assert "at least one family level is required" in capsys.readouterr().err
