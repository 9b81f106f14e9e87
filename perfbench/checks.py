"""Output checks, run after the timed passes.

Each check reads one job's output directory and returns a list of
problems (empty when the output is correct).  The checks recompute what
they can from the generated inputs with the benchmark's own counting
(``inputs.window_counts``) or with the independent oracles of
``blockdyn.testkit``, never with the code paths that produced the output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from inputs import box, window_counts


def tree_digest(path: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def run_dir(out: Path) -> Path:
    dirs = sorted(out.glob("run-*"))
    if len(dirs) != 1:
        raise ValueError(f"expected one run directory in {out}, found {len(dirs)}")
    return dirs[0]


def read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


class CensusBlock:
    """One census config: its generated block and vertex files, read
    straight from the JSON the benchmark wrote."""

    def __init__(self, config: Path) -> None:
        cfg = json.loads(config.read_text())
        self.config = config
        self.dim = cfg["dim"]
        corpus = json.loads((config.parent / cfg["corpus"][0]).read_text())
        block = corpus["blocks"][0]
        self.side = block["max"][0] + 1
        self.rows = block["rows"]
        self.vertices = [
            json.loads((config.parent / v).read_text()) for v in cfg["target_vertices"]
        ]
        self.counts = {k: window_counts(self.dim, self.side, self.rows, k) for k in (1, 2)}

    def freqs(self, level: int) -> dict[tuple[int, ...], Fraction]:
        counts = self.counts[level]
        total = sum(counts.values())
        return {key: Fraction(c, total) for key, c in counts.items()}

    def vertex_marginal(self, vertex: dict, level: int) -> dict[tuple[int, ...], Fraction]:
        """Marginal of a depth-2 vertex on [-level, level]^dim x rows[1..level]."""
        depth = vertex["depth"]
        full = box([-depth] * self.dim, [depth] * self.dim)
        keep = set(box([-level] * self.dim, [level] * self.dim))
        cells = [i for i, p in enumerate(full) if p in keep]
        out: dict[tuple[int, ...], Fraction] = {}
        for entry in vertex["masses"]:
            key = tuple(entry["pattern"][r][c] for r in range(level) for c in cells)
            out[key] = out.get(key, Fraction(0)) + Fraction(entry["mass"])
        return out


def _pattern_key(s: str) -> tuple[int, ...]:
    return tuple(int(ch) for row in s.split("|") for ch in row)


def check_blocks(cb: CensusBlock, out: Path) -> list[str]:
    obj = json.loads((run_dir(out) / "family_k2.json").read_text())
    keys = [tuple(x for row in p for x in row) for p in obj["patterns"]]
    problems = []
    if keys != sorted(set(keys)):
        problems.append("family_k2 patterns are not distinct and sorted")
    if set(keys) != set(cb.counts[2]):
        problems.append("family_k2 differs from the patterns of the block")
    return problems


def check_freq(cb: CensusBlock, out: Path, seed: int, sample: int = 3) -> list[str]:
    """Every row against the benchmark's own counts; a seeded sample of
    rows, and the embedding count, against the testkit oracles."""
    from blockdyn import files, testkit
    from blockdyn.group import folner_box
    from blockdyn.symbolic import Block

    rows = read_csv(run_dir(out) / "freq_k2_b0.csv")
    problems = []
    counts = cb.counts[2]
    embeddings = sum(counts.values())
    got = {_pattern_key(r["pattern"]): r for r in rows}
    if len(got) != len(rows) or set(got) != set(counts):
        problems.append("freq_k2 rows differ from the patterns of the block")
    for key, r in got.items():
        n_b, n_f = Fraction(r["N_B"]), Fraction(r["N_F"])
        if n_b != counts.get(key) or n_f != embeddings:
            problems.append(f"freq_k2 counts wrong for {r['pattern']}")
            break
        if Fraction(r["fr_B"]) != Fraction(n_b, n_f):
            problems.append(f"freq_k2 fr_B wrong for {r['pattern']}")
            break
    block = files.read_corpus(cb.config.parent / "corpus.json").blocks[0]
    base = folner_box(2, cb.dim)
    if testkit.oracle_count_embeddings(block.shape, base) != embeddings:
        problems.append("freq_k2 N_F disagrees with oracle_count_embeddings")
    rng = random.Random(f"check-freq:{seed}:{cb.dim}")
    for r in rng.sample(sorted(rows, key=lambda r: r["pattern"]), min(sample, len(rows))):
        pattern = Block(base, 2, block.sizes[:2], _pattern_key(r["pattern"]))
        if testkit.oracle_count_occurrences(block, pattern) != Fraction(r["N_B"]):
            problems.append(f"freq_k2 N_B disagrees with the oracle for {r['pattern']}")
    return problems


def check_measure(cb: CensusBlock, out: Path) -> list[str]:
    obj = json.loads((run_dir(out) / "measure_b0_j2.json").read_text())
    masses = {
        tuple(x for row in e["pattern"] for x in row): Fraction(e["mass"])
        for e in obj["masses"]
    }
    problems = []
    if sum(masses.values()) != 1:
        problems.append("measure masses do not sum to exactly 1")
    if masses != cb.freqs(2):
        problems.append("measure masses differ from the block frequencies fr_B")
    return problems


def _values(out: Path) -> list[tuple[str, str, Fraction]]:
    rows = read_csv(run_dir(out) / "dist.csv")
    return [(r["quantity"], r["level"], Fraction(r["value"])) for r in rows]


def check_dist(cb: CensusBlock, out: Path) -> list[str]:
    """d_1, d_2, the truncated sum and the tail against v0."""
    vals = _values(out)
    d = {int(lv): v for q, lv, v in vals if q == "d_k"}
    named = {q: v for q, _, v in vals if q != "d_k"}
    expect = {}
    for level in (1, 2):
        fr = cb.freqs(level)
        nu = cb.vertex_marginal(cb.vertices[0], level)
        expect[level] = sum(
            (abs(fr[k] - nu.get(k, Fraction(0))) for k in fr), Fraction(0)
        ) / len(fr)
    problems = []
    if d != expect:
        problems.append("dist d_k differs from the recomputed per-level distance")
    if named.get("lower") != expect[1] / 2 + expect[2] / 4 or named.get("tail") != Fraction(1, 4):
        problems.append("dist lower/tail differ from the truncated series")
    return problems


# The census configs leave the hull solver's tolerance at its default,
# 1/1000.  The solver's pairwise descent can stall above the minimum (by up
# to 1.7e-4 on the census blocks of seeds 1-40); hull_lower may exceed the
# independently found minimum by at most this tolerance.
HULL_TOL = Fraction(1, 1000)


def hull_minimum(fr: dict[tuple[int, ...], Fraction], margs: list[dict[tuple[int, ...], Fraction]]) -> float:
    """The minimum over the weight simplex of the level-1 objective for
    three vertices, in floating point, found independently of the solver.

    With w_0 = s fixed, the objective along w_1 = u, w_2 = 1 - s - u is
    convex and piecewise linear in u, so its minimum over 0 <= u <= 1 - s
    lies at the weighted median of its breakpoints.  That inner minimum
    is convex in s, and a golden-section search over s finds it.
    """
    keys = sorted(fr)
    x = [float(fr[k]) for k in keys]
    v0, v1, v2 = ([float(mg.get(k, 0)) for k in keys] for mg in margs)
    slope = [b - c for b, c in zip(v1, v2)]
    total = sum(abs(b) for b in slope)

    def inner(s: float) -> float:
        resid = [xk - s * a - (1 - s) * c for xk, a, c in zip(x, v0, v2)]
        u, acc = 0.0, 0.0
        for t, wt in sorted((r / b, abs(b)) for r, b in zip(resid, slope) if b):
            u, acc = t, acc + wt
            if acc >= total / 2:
                break
        u = min(max(u, 0.0), 1 - s)
        return sum(abs(r - u * b) for r, b in zip(resid, slope))

    lo, hi, g = 0.0, 1.0, (5**0.5 - 1) / 2
    for _ in range(80):
        s1, s2 = hi - g * (hi - lo), lo + g * (hi - lo)
        if inner(s1) <= inner(s2):
            hi = s2
        else:
            lo = s1
    return min(inner(lo), inner(hi), inner(0.0), inner(1.0)) / (2 * len(keys))


def check_hull(cb: CensusBlock, out: Path) -> list[str]:
    """Weights on the simplex, the reported value equal to the level-1
    objective at those weights, no worse than the objective at the
    solver's own start points (the uniform weights and every vertex), and
    within the solver's tolerance of the minimum over the simplex."""
    vals = _values(out)
    named = {q: v for q, _, v in vals}
    m = len(cb.vertices)
    weights = [named.get(f"weight_{i}") for i in range(m)]
    if any(w is None or w < 0 for w in weights) or sum(w or 0 for w in weights) != 1:
        return ["hull weights are not a point of the simplex"]
    fr = cb.freqs(1)
    margs = [cb.vertex_marginal(v, 1) for v in cb.vertices]

    def objective(ws: list[Fraction]) -> Fraction:
        return sum(
            (
                abs(fr[k] - sum((w * mg.get(k, Fraction(0)) for w, mg in zip(ws, margs)), Fraction(0)))
                for k in fr
            ),
            Fraction(0),
        ) / (2 * len(fr))

    problems = []
    lower = named.get("hull_lower")
    if lower != objective(weights):
        problems.append("hull_lower differs from the objective at the reported weights")
    starts = [[Fraction(1, m)] * m] + [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    if lower is not None and any(lower > objective(s) for s in starts):
        problems.append("hull_lower exceeds the objective at a start point of the solver")
    if lower is not None and float(lower) > hull_minimum(fr, margs) + float(HULL_TOL):
        problems.append("hull_lower is more than tol above the minimum over the simplex")
    if named.get("tail") != Fraction(1, 2):
        problems.append("hull tail is not 2^-1")
    return problems


def check_construct(config: Path, out: Path, sides: list[int]) -> list[str]:
    """Undo every stage's change log, last stage first, from the final
    block; the result must be byte-equal to the generated initial corpus.
    Each stage's tile report must list the grid's tiles, mark exactly the
    tiles with d_lower above the stage's delta as replaced, replace at
    least one, and log one change per replaced tile."""
    from blockdyn import files
    from blockdyn.construction import ChangeRecord, apply_changes

    rd = run_dir(out)
    final = files.read_corpus(rd / "final_block.json")
    deltas = [Fraction(d) for d in json.loads((rd / "run_manifest.json").read_text())["delta"]]
    sizes = final.stack.sizes
    block = final.blocks[0]
    problems = []
    if len(deltas) != len(sides):
        problems.append(f"run manifest lists {len(deltas)} stages, expected {len(sides)}")
    logs = {}
    for t in range(len(sides), 0, -1):
        logs[t] = [
            ChangeRecord(
                center=tuple(ch["center"]),
                shape_index=ch["shape_index"],
                before=files.block_from_obj(ch["before"], sizes),
                after=files.block_from_obj(ch["after"], sizes),
            )
            for ch in json.loads((rd / f"changes_t{t}.json").read_text())
        ]
        block = apply_changes(block, logs[t], undo=True)
    restored = files.canonical_json(
        {
            "kind": "corpus",
            "dim": final.dim,
            "alphabet": list(sizes),
            "blocks": [files.block_to_obj(block)],
        }
    )
    if restored.encode() != (config.parent / "corpus.json").read_bytes():
        problems.append("undoing the change logs does not restore the initial block")
    cells = len(block)
    for t, (side, delta) in enumerate(zip(sides, deltas), start=1):
        rows = read_csv(rd / f"stage_t{t}_tiles.csv")
        if len(rows) != cells // side:
            problems.append(f"stage {t} tile report has the wrong tile count")
        if any((r["replaced"] == "True") != (Fraction(r["d_lower"]) > delta) for r in rows):
            problems.append(f"stage {t} replaced flags disagree with d_lower > delta")
        replaced = sum(r["replaced"] == "True" for r in rows)
        if replaced == 0:
            problems.append(f"stage {t} replaced no tile")
        if len(logs[t]) != replaced:
            problems.append(f"stage {t} logs {len(logs[t])} changes for {replaced} replaced tiles")
    return problems


VERIFY_FILES = (
    "verify_block_measure_gap.csv",
    "verify_tiling_average_gap.csv",
    "verify_metric_axioms.csv",
)


def verify_cases(out: Path) -> int:
    return sum(len(read_csv(out / "run-verify" / name)) for name in VERIFY_FILES)


def check_verify(out: Path, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    passes = [ln for ln in lines if ": PASS (" in ln]
    problems = []
    if len(lines) != 3 or len(passes) != 3:
        problems.append("verify did not print exactly three PASS lines")
    for name in VERIFY_FILES:
        rows = read_csv(out / "run-verify" / name)
        if any(r["violation"] != "False" for r in rows):
            problems.append(f"{name} lists a violation")
    stated = sum(int(ln.split("(")[1].split()[0]) for ln in passes)
    if stated != verify_cases(out):
        problems.append("verify case counts in stdout and CSVs differ")
    return problems
