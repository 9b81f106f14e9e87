"""Module and input boundaries: read-only caches, malformed data files and
the rule that production code never imports the test kit."""

import ast
import copy
import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import blockdyn
from blockdyn import cli
from blockdyn.files import canonical_json
from blockdyn.frequency import freq, freq_table
from blockdyn.group import Shape, translate
from blockdyn.measures import block_measure
from blockdyn.symbolic import Block, subblock_at
from helpers import block_from_word, code_of, cylinder_mass

WORD = block_from_word("aababab", start=-3)
ABA = block_from_word("aba", start=-1)


def test_freq_table_is_read_only():
    table = freq_table(WORD, ABA.shape, 1)
    with pytest.raises(TypeError):
        table[code_of(ABA)] = Fraction(9)
    with pytest.raises(AttributeError):
        table.clear()
    with pytest.raises(TypeError):
        table.counts[code_of(ABA)] = 9
    with pytest.raises(AttributeError):
        table.total = 9
    assert freq(WORD, ABA) == Fraction(2, 5)


def test_marginal_is_read_only():
    mu = block_measure(block_from_word("abbabaab"), 1)
    center_b = Block(Shape.of([(0,)]), 1, (2,), (1,))
    before = cylinder_mass(mu, center_b)
    marg = mu.marginal(center_b.shape, 1)
    with pytest.raises(TypeError):
        marg[code_of(center_b)] = Fraction(9)
    with pytest.raises(AttributeError):
        marg.clear()
    with pytest.raises(TypeError):
        marg.counts[code_of(center_b)] = 9
    with pytest.raises(AttributeError):
        marg.total = 9
    assert cylinder_mass(mu, center_b) == before == Fraction(1, 2)


def test_a_measure_is_read_only_and_copies_as_a_new_measure():
    mu = block_measure(block_from_word("abbabaab"), 1)
    center = Shape.of([(0,)])
    marg = mu.marginal(center, 1)
    for name in ("depth", "base", "sizes", "_nums", "_den", "_marginals", "other"):
        with pytest.raises(AttributeError):
            setattr(mu, name, 5)
        with pytest.raises(AttributeError):
            delattr(mu, name)
    assert mu.depth == 1 and mu.marginal(center, 1) is marg
    with pytest.raises(TypeError):
        hash(mu)
    for copied in (copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))):
        twin = copied(mu)
        assert twin == mu and twin is not mu and repr(twin) == repr(mu)
        assert twin.marginal(center, 1) == marg and twin.atoms() == mu.atoms()
        with pytest.raises(AttributeError):
            twin.depth = 5


def _config(tmp_path: Path) -> Path:
    cfg = {
        "dim": 1,
        "alphabet": [2],
        "window": {"min": [0], "max": [4]},
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


# Each case names the field its error must name, so that a check which fires
# first cannot stand in for the one the case is about.
@pytest.mark.parametrize(
    "extra, argv, field",
    [
        ({"seed": 1, "gen": {"kind": "bernoulli"}}, ["gen"], "probs"),
        ({"seed": 1, "gen": dict(BERNOULLI, count="two")}, ["gen"], "count"),
        ({"seed": "abc", "gen": BERNOULLI}, ["gen"], "seed"),
        ({"tile_sides": ["x"]}, ["tile"], "tile_sides"),
        ({}, ["tile", "--sides", "0"], "--sides"),
        ({}, ["tile", "--sides", "3", "-2"], "--sides"),
        ({"tile_sides": [0]}, ["tile"], "tile_sides"),
        *(({}, ["tile", "--sides", "3", f"--eps={eps}"], "--eps") for eps in ("-1/2", "2", "3/2")),
        ({"seed": 1, "schedule": dict(SCHEDULE, folner_indices=[-1])}, ["construct"], "schedule"),
        (
            {"seed": 1, "schedule": SCHEDULE, "representatives": ["vertex"]},
            ["construct"],
            "representatives",
        ),
        (
            {"seed": 1, "schedule": SCHEDULE,
             "representatives": {"source": "vertex", "vertex": "a"}},
            ["construct"],
            "vertex",
        ),
        (
            {"seed": 1, "schedule": SCHEDULE,
             "representatives": {"source": "vertex", "vertex": 5}},
            ["construct"],
            "vertex 5",
        ),
        *(
            case
            for n in (0, -1)
            for case in (
                ({"seed": 1, "gen": dict(BERNOULLI, count=n)}, ["gen"], "count"),
                (
                    {"seed": 1, "schedule": SCHEDULE,
                     "representatives": {"source": "vertex", "count": n}},
                    ["construct"],
                    "count",
                ),
                (
                    {"seed": 1, "schedule": SCHEDULE,
                     "representatives": {"source": "corpus", "limit": n}},
                    ["construct"],
                    "limit",
                ),
            )
        ),
        # as a measure's masses must, a gen row sums to exactly 1
        *(
            ({"seed": 1, "gen": dict(BERNOULLI, probs=[row])}, ["gen"], f"row 1 {error}")
            for row, error in (
                (["1/3", "666666667/1000000000"], "probabilities sum to 3000000001/3000000000"),
                (["1/2", "1/4"], "probabilities sum to 3/4"),
                (["1/2", "1/2", "0"], "needs 2 probabilities"),
            )
        ),
    ],
    ids=[
        "gen-without-probs", "gen-count-not-int",
        "seed-not-int", "tile-sides-not-int",
        "tile-sides-0", "tile-sides--2", "tile-sides-config-0",
        "tile-eps--1/2", "tile-eps-2", "tile-eps-3/2", "schedule-folner-index--1",
        "representatives-as-list",
        "vertex-not-int", "vertex-out-of-range",
        "gen-count-0", "representatives-count-0", "representatives-limit-0",
        "gen-count--1", "representatives-count--1", "representatives-limit--1",
        "gen-row-sum-above-1", "gen-row-sum-3/4", "gen-row-of-3-on-a-binary-alphabet",
    ],
)
def test_malformed_config_section_exits_2(tmp_path, capsys, extra, argv, field):
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    config = _config(tmp_path)
    config.write_text(canonical_json(dict(json.loads(config.read_text()), **extra)))
    out = tmp_path / "out"
    rc = cli.main(["--config", str(config), "--out", str(out)] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
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


def test_library_code_writes_no_float_literal():
    """Probabilities, masses and distances are exact, so no module of the
    package, the test kit included, spells a number as a float."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(blockdyn.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert offenders == []


# The private names of ``symbolic`` that each module imports.  Cells are
# addressed only through ``_layout``, and only frequency's counting helper
# tells a box layout from a cell layout.
KERNEL_IMPORTS = {
    "construction": {"_categorical", "_draws", "_layout"},
    "files": {"_PIECE", "_row_codes"},
    "frequency": {"_BoxLayout", "_layout"},
    "measures": {"_layout"},
    "quasitiling": {"_layout"},
}


def test_modules_import_only_the_kernel_interface_from_symbolic():
    got: dict[str, set[str]] = {}
    for path in sorted((Path(blockdyn.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "symbolic":
                names = {a.name for a in node.names if a.name.startswith("_")}
                got.setdefault(path.stem, set()).update(names)
    assert {module: names for module, names in got.items() if names} == KERNEL_IMPORTS


def test_only_symbolic_bisects_cut_points_or_reads_a_variate():
    """``bisect_right`` and every ``.random`` attribute appear in
    ``symbolic`` alone, so each sampler draws through its one rule."""
    sites = set()
    for path in sorted(Path(blockdyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a name, an attribute, an import or a definition
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            if "bisect_right" in names or isinstance(node, ast.Attribute) and node.attr == "random":
                sites.add(path.stem)
    assert sites == {"symbolic"}


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


def test_construct_on_a_block_that_is_not_the_window_exits_2(tmp_path, capsys):
    # The corpus block is [0, 4]; construct runs on the configured window.
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    config = _config(tmp_path)
    base = dict(json.loads(config.read_text()), seed=1, schedule=SCHEDULE)
    out = str(tmp_path / "out")
    for hi, rc in [(9, 2), (3, 2), (4, 0)]:
        config.write_text(canonical_json(dict(base, window={"min": [0], "max": [hi]})))
        capsys.readouterr()
        assert cli.main(["--config", str(config), "--out", out, "construct"]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("error: corpus block 0 ")
            assert "((0,), (4,))" in err and f"((0,), ({hi},))" in err
            assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "operands, names",
    [
        (["--mu", "v0.json", "--block", "0", "--nu", "v0.json"], ("--mu", "--block")),
        (["--block", "0", "--hull", "--nu", "v0.json"], ("--nu", "--hull")),
    ],
    ids=["mu-and-block", "hull-and-nu"],
)
def test_dist_with_two_operands_for_one_side_exits_2(tmp_path, capsys, operands, names):
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    argv = [str(tmp_path / a) if a == "v0.json" else a for a in operands]
    base = ["--config", str(_config(tmp_path)), "--out", str(tmp_path / "out"), "dist"]
    assert cli.main(base + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(n in err for n in names)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["tile", "--sides", "3", "--eps", "2"], 2),
        (["dist", "--mu", "v0.json", "--block", "0", "--nu", "v0.json"], 2),
        (["dist", "--block", "0"], 2),
        (["freq", "--level", "-1"], 3),
    ],
    ids=["tile-eps-2", "dist-mu-and-block", "dist-without-nu", "freq-level--1"],
)
def test_a_job_that_fails_before_writing_leaves_no_run_directory(tmp_path, argv, code):
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    argv = [str(tmp_path / a) if a == "v0.json" else a for a in argv]
    out = tmp_path / "out"
    base = ["--config", str(_config(tmp_path)), "--out", str(out)]
    assert cli.main(base + argv) == code
    assert not out.exists() or not list(out.glob("run-*"))
    # the same job with valid options creates it with its first file
    assert cli.main(base + ["freq", "--level", "1"]) == 0
    (rundir,) = out.glob("run-*")
    assert [p.name for p in rundir.iterdir()] == ["freq_k1_b0.csv"]


def _exits_2_without_a_run_directory(tmp_path, capsys, argv, *names) -> None:
    out = tmp_path / "out"
    assert cli.main(["--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(n in err for n in names), err
    assert not out.exists() or not list(out.glob("run-*"))


@pytest.mark.parametrize("which", ["config", "nu"])
@pytest.mark.parametrize("what", ["directory", "not-utf-8"])
def test_an_unreadable_file_exits_2(tmp_path, capsys, which, what):
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    bad = tmp_path / "bad"
    if what == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b'{"kind": "measure", "dim": 1, "note": "\xff"}')
    config = bad if which == "config" else _config(tmp_path)
    nu = bad if which == "nu" else tmp_path / "v0.json"
    argv = ["--config", str(config), "dist", "--block", "0", "--nu", str(nu)]
    _exits_2_without_a_run_directory(tmp_path, capsys, argv, "cannot read", str(bad))


def _dim_case(tmp_path: Path, case: str) -> list[str]:
    """A 1-D configuration with one file whose dimension is wrong, and the
    job that reads it."""
    corpus, measure, argv = GOOD_CORPUS, GOOD_MEASURE, ["dist", "--block", "0", "--hull"]
    if case == "measure-dim-2-on-a-1d-base":
        measure, argv = dict(GOOD_MEASURE, dim=2), ["dist", "--block", "0", "--nu", "v0.json"]
    elif case == "2d-vertex":
        measure = dict(GOOD_MEASURE, dim=2, base_min=[-1, 0], base_max=[1, 0])
    else:
        block = {"min": [0, 0], "max": [2, 2], "depth": 1, "rows": [[0, 1, 0] * 3]}
        corpus = dict(GOOD_CORPUS, dim=2, blocks=[block])
        argv = ["blocks", "--level", "1"] if case == "2d-corpus-blocks" else ["freq", "--level", "1"]
    (tmp_path / "corpus.json").write_text(json.dumps(corpus))
    (tmp_path / "v0.json").write_text(json.dumps(measure))
    argv = [str(tmp_path / a) if a == "v0.json" else a for a in argv]
    return ["--config", str(_config(tmp_path))] + argv


@pytest.mark.parametrize(
    "case", ["measure-dim-2-on-a-1d-base", "2d-corpus-blocks", "2d-corpus-freq", "2d-vertex"]
)
def test_a_dim_that_differs_exits_2(tmp_path, capsys, case):
    _exits_2_without_a_run_directory(tmp_path, capsys, _dim_case(tmp_path, case), "dim")


@pytest.mark.parametrize(
    "argv", [["gen"], ["blocks", "--level", "1"], ["dist", "--block", "0", "--hull"], ["verify"]]
)
def test_a_bad_schedule_exits_2_at_load_for_every_command(tmp_path, capsys, argv):
    """The schedule is built where the configuration is read, not only by
    ``construct``."""
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    config = _config(tmp_path)
    bad = dict(json.loads(config.read_text()), seed=1, schedule=dict(SCHEDULE, eps1="0"))
    config.write_text(canonical_json(bad))
    argv = ["--config", str(config)] + argv
    _exits_2_without_a_run_directory(tmp_path, capsys, argv, "bad schedule", "eps")


@pytest.mark.parametrize(
    "key, value",
    [("corpus", "corpus.json"), ("target_vertices", {"v0.json": 1}), ("corpus", [1])],
    ids=["corpus-as-a-string", "target-vertices-as-an-object", "corpus-of-an-integer"],
)
def test_file_lists_that_are_not_lists_of_strings_exit_2(tmp_path, capsys, key, value):
    """A string is not read as a list of its characters, an object not as
    the list of its keys, and a number is not a file name."""
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    config = _config(tmp_path)
    config.write_text(canonical_json(dict(json.loads(config.read_text()), **{key: value})))
    argv = ["--config", str(config), "dist", "--block", "0", "--hull"]
    _exits_2_without_a_run_directory(
        tmp_path, capsys, argv, f"{key} must be a list of file names", json.dumps(value)
    )


@pytest.mark.parametrize("flag", ["--nu", "--mu"])
def test_a_dist_measure_off_the_config_dim_exits_2(tmp_path, capsys, flag):
    """A consistent 2-D measure under a 1-D configuration is named by its
    dimension, not met later as a base that does not fit."""
    (tmp_path / "corpus.json").write_text(json.dumps(GOOD_CORPUS))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    planar = tmp_path / "planar.json"
    planar.write_text(json.dumps(dict(GOOD_MEASURE, dim=2, base_min=[-1, 0], base_max=[1, 0])))
    v0 = str(tmp_path / "v0.json")
    operands = {
        "--nu": ["--block", "0", "--nu", str(planar)],
        "--mu": ["--mu", str(planar), "--nu", v0],
    }
    argv = ["--config", str(_config(tmp_path)), "dist"] + operands[flag]
    _exits_2_without_a_run_directory(tmp_path, capsys, argv, "dim", str(planar))


def test_a_corpus_block_off_the_file_dim_exits_2(tmp_path, capsys):
    block = {"min": [0, 0], "max": [2, 2], "depth": 1, "rows": [[0, 1, 0] * 3]}
    (tmp_path / "corpus.json").write_text(json.dumps(dict(GOOD_CORPUS, blocks=[block])))
    (tmp_path / "v0.json").write_text(json.dumps(GOOD_MEASURE))
    argv = ["--config", str(_config(tmp_path)), "blocks", "--level", "1"]
    _exits_2_without_a_run_directory(tmp_path, capsys, argv, "dim is 1 but block 0")


def test_testkit_offers_only_its_own_oracles():
    """A name that testkit imports from another blockdyn module is there for
    its oracles to use; one they never use is passed on as if it were an
    oracle, so a test importing it would check production code against
    itself."""
    tree = ast.parse((Path(blockdyn.__file__).parent / "testkit.py").read_text(encoding="utf-8"))
    imported = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(n for n in imported - used if not n.startswith("_")) == []


# Public names that no module and no benchmark script reads, kept on purpose.
KEEP = {
    "read_tiling": "the reader of the documented tiling file format",
    "freq": "the production side of the frequency oracle checks",
    "mix": "the mixture of measures that modelling the whole face builds on",
    "tail_depth": "the depth an eps needs, for certified stage intervals",
    "encode_symbolic": "the paper's symbolic coding of a tiling",
    "decode_symbolic": "the inverse of the symbolic coding",
    "translate": "the group action on shapes, whose coordinate checks README documents",
}


def test_every_public_name_is_read_by_the_program_or_kept_on_purpose():
    """A public function, class or method in ``src/blockdyn`` (outside
    ``testkit`` and ``__init__``) is read outside its own definition there
    or in ``perfbench``, or is in ``KEEP``, and every ``KEEP`` entry is
    still unread.  A function or class is read as a name or an attribute
    of that name, a method only as an attribute, so a method shares its
    reads with every equally named attribute but with no variable."""
    src = Path(blockdyn.__file__).parent
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    trees.update({p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(bench.glob("*.py"))})
    reads = [
        (path, node.id if isinstance(node, ast.Name) else node.attr, node.lineno, node)
        for path, tree in trees.items()
        if path.name != "__init__.py" or path.parent != src
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unread = []
    for path, tree in trees.items():
        if path.parent != src or path.name in ("__init__.py", "testkit.py"):
            continue
        defs = [(d.name, d) for d in tree.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
        defs += [
            (f"{c.name}.{m.name}", m)
            for c in tree.body
            if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
            for m in c.body
            if isinstance(m, ast.FunctionDef)
        ]
        for label, d in defs:
            owner, _, name = label.rpartition(".")
            if not name.startswith("_") and not any(
                n == name
                and not (owner and isinstance(node, ast.Name))
                and not (p == path and d.lineno <= line <= d.end_lineno)
                for p, n, line, node in reads
            ):
                unread.append(label)
    assert sorted(set(unread) - set(KEEP)) == []
    assert sorted(set(KEEP) - set(unread)) == []


@pytest.mark.parametrize("bad", [0.9, "1"])
def test_float_and_string_coordinates_raise_type_error(bad):
    block = Block(Shape.interval(0, 3), 1, (2,), (0, 1, 1, 0))
    cell = Shape.interval(0, 0)
    with pytest.raises(TypeError):
        Shape.of([(0,), (bad,)])
    with pytest.raises(TypeError):
        translate(cell, (bad,))
    with pytest.raises(TypeError):
        subblock_at(block, cell, (bad,), 1)


def test_int_and_bool_coordinates_read_as_before():
    block = Block(Shape.interval(0, 3), 1, (2,), (0, 1, 1, 0))
    cell = Shape.interval(0, 0)
    assert Shape.of([(0,), (True,), (2,)]) == Shape.interval(0, 2)
    assert translate(cell, (True,)) == translate(cell, (1,)) == Shape.interval(1, 1)
    assert subblock_at(block, cell, (True,), 1) == subblock_at(block, cell, (1,), 1)
    assert subblock_at(block, cell, (2,), 1).symbols == (1,)
