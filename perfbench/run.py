"""blockdyn benchmark: batch CLI jobs, one fresh process per job.

    python3 perfbench/run.py --workload census|construct|verify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The inputs are generated from the seed (see inputs.py).  Each pass runs the
workload's ``blockdyn`` commands one at a time, each in a fresh Python
process that times ``blockdyn.cli.main`` (job.py), and passes repeat for
about S seconds.  Every time is scaled to a fixed machine speed by a
reference work sampled while it runs (see scaled_s).  Outputs are checked
after the passes (checks.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, taken from one traced pass and one counting pass run
after the untraced passes (tracer.py).  The lines before it give every
metric with its unit and sample count, and the census per-command times.

Exit codes: 0 measured (the JSON line says whether outputs were correct),
1 the program could not load the inputs, 2 bad arguments or no program to
measure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracer

ROOT = Path(__file__).resolve().parents[1]
JOB = Path(__file__).resolve().parent / "job.py"
SETUP_SAMPLES = 21
# Times are reported in seconds at a fixed machine speed: the speed at which
# one repetition of job.py's reference work takes REF_REP_S seconds, about
# the usual speed of a 2.1 GHz Xeon vCPU (see scaled_s).
REF_REP_S = 0.0006
# A traced job's self times may differ from its outside job time by this
# share plus this many seconds (the root span's own wrapper and the
# redirect of stdout lie outside every span).
CLOSURE_TOL = 0.01
CLOSURE_ABS_S = 0.005
# A run must end within 180 s; a job still running at this point of the
# run is killed and counted as failed.
RUN_BUDGET_S = 170
# Commands whose job times the cli.<command>.s per-layer metrics report.
COMMANDS = ("blocks", "freq", "measure", "dist", "hull", "construct", "verify")


@dataclass
class Job:
    name: str        # unique within the workload
    command: str     # one of COMMANDS
    argv: list[str]  # blockdyn arguments without --out
    cells: int = 0   # block cells the job works on (census work unit)


@dataclass
class Run:
    """All job results of one pass, keyed by job name."""

    label: str
    results: dict[str, dict] = field(default_factory=dict)
    outs: dict[str, Path] = field(default_factory=dict)

    def job_s(self) -> float:
        return sum(r["job_s"] for r in self.results.values())


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.configs = self.make_inputs()

    def make_inputs(self) -> list[Path]:
        raise NotImplementedError

    def setup_args(self) -> list[str]:
        return [str(c) for c in self.configs]

    def jobs(self) -> list[Job]:
        raise NotImplementedError

    def check(self, job: Job, run: Run) -> list[str]:
        raise NotImplementedError

    def work(self, run: Run) -> float:
        raise NotImplementedError


class Census(Workload):
    """Frequency and measure analyses of a 1-D and a 2-D block."""

    name = "census"

    def make_inputs(self) -> list[Path]:
        return inputs.census(self.seed, self.workdir / "in")

    def jobs(self) -> list[Job]:
        out = []
        for cfg in self.configs:
            d = cfg.parent.name
            cells = inputs.CENSUS_1D_CELLS if d == "d1" else inputs.CENSUS_2D_SIDE**2
            base = ["--config", str(cfg)]
            for command, args in [
                ("blocks", ["blocks", "--level", "2"]),
                ("freq", ["freq", "--level", "2"]),
                ("measure", ["measure", "--depth", "2"]),
                ("dist", ["dist", "--block", "0", "--nu", str(cfg.parent / "v0.json")]),
                ("hull", ["dist", "--block", "0", "--hull", "--levels", "1"]),
            ]:
                out.append(Job(f"{command}-{d}", command, base + args, cells))
        return out

    def check(self, job: Job, run: Run) -> list[str]:
        check = {
            "blocks": checks.check_blocks,
            "freq": functools.partial(checks.check_freq, seed=self.seed),
            "measure": checks.check_measure,
            "dist": checks.check_dist,
            "hull": checks.check_hull,
        }[job.command]
        return check(self.blocks[job.name.split("-")[1]], run.outs[job.name])

    @functools.cached_property
    def blocks(self) -> dict[str, checks.CensusBlock]:
        return {c.parent.name: checks.CensusBlock(c) for c in self.configs}

    def work(self, run: Run) -> float:
        return sum(j.cells for j in self.jobs())


class Construct(Workload):
    """One staged replacement run on a 1-D window."""

    name = "construct"

    def make_inputs(self) -> list[Path]:
        return inputs.construct(self.seed, self.workdir / "in")

    def jobs(self) -> list[Job]:
        return [Job("construct", "construct", ["--config", str(self.configs[0]), "construct"])]

    def check(self, job: Job, run: Run) -> list[str]:
        return checks.check_construct(self.configs[0], run.outs[job.name], inputs.CONSTRUCT_SIDES)

    def work(self, run: Run) -> float:
        return sum(inputs.CONSTRUCT_CELLS // side for side in inputs.CONSTRUCT_SIDES)


class Verify(Workload):
    """The three bound suites on the bundled micro corpus."""

    name = "verify"

    def make_inputs(self) -> list[Path]:
        return []

    def setup_args(self) -> list[str]:
        return ["micro"]

    def jobs(self) -> list[Job]:
        return [Job("verify", "verify", ["--seed", str(self.seed), "verify"])]

    def check(self, job: Job, run: Run) -> list[str]:
        return checks.check_verify(run.outs[job.name], run.results[job.name]["stdout"])

    def work(self, run: Run) -> float:
        try:
            return checks.verify_cases(run.outs["verify"])
        except OSError:  # no CSVs: the job failed and is counted as such
            return 0.0


WORKLOADS = {w.name: w for w in (Census, Construct, Verify)}


def child(wl: Workload, mode: str, result: Path, args: list[str]) -> dict:
    """Run job.py in a fresh interpreter and return its result record."""
    timeout = max(1.0, wl.deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(JOB), mode, str(result), *args],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"rc": "timeout", "job_s": timeout, "stdout": ""}
    if proc.returncode != 0 or not result.exists():
        return {"rc": f"job.py exit {proc.returncode}", "job_s": 0.0, "stdout": "",
                "stderr": proc.stderr[-2000:]}
    rec = json.loads(result.read_text())
    if rec["rc"] != 0 and proc.stderr:
        rec["stderr"] = proc.stderr[-2000:]
    return rec


def run_pass(wl: Workload, mode: str, label: str) -> Run:
    run = Run(label)
    base = wl.workdir / label
    base.mkdir(parents=True)
    for job in wl.jobs():
        out = base / job.name
        run.outs[job.name] = out
        run.results[job.name] = child(
            wl, mode, base / f"{job.name}.json", ["--out", str(out)] + job.argv
        )
    return run


def timed_passes(wl: Workload, seconds: float) -> list[Run]:
    """Passes until about ``seconds`` have elapsed: another pass starts only
    if it is expected to end less than half a pass after the deadline."""
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(run_pass(wl, "plain", f"pass{len(runs)}"))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) / 2 >= seconds:
            return runs


def judge(wl: Workload, runs: list[Run]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job of every pass.

    A job fails on a nonzero exit, on a failed output check, or when its
    output tree differs from the same job's output in the first pass.
    """
    attempted = failed = 0
    problems: list[str] = []
    first = runs[0]
    for job in wl.jobs():
        ref = first.results[job.name]
        ref_digest = checks.tree_digest(first.outs[job.name]) if ref["rc"] == 0 else None
        bad = []
        if ref["rc"] == 0:
            try:
                bad = wl.check(job, first)
            except Exception:  # a broken output or program fails the job, not the run
                bad = [f"check raised:\n{traceback.format_exc()}"]
        problems += [f"{job.name}: {p}" for p in bad]
        for run in runs:
            attempted += 1
            rec = run.results[job.name]
            if rec["rc"] != 0:
                failed += 1
                problems.append(f"{job.name} ({run.label}): exit {rec['rc']} {rec.get('stderr', '')}")
            elif bad or checks.tree_digest(run.outs[job.name]) != ref_digest:
                failed += 1
                if not bad:
                    problems.append(f"{job.name} ({run.label}): run tree differs from {first.label}")
    return attempted, failed, problems


def scaled_s(rec: dict, key: str = "job_s") -> float:
    """rec[key] in seconds at reference speed.

    A shared 2-vCPU VM's speed drifts by up to 1.5x within seconds, which
    no run length averages out; job.py samples a fixed reference work inside each
    timed step, and the step's time is multiplied by REF_REP_S over the
    reference's mean time per repetition.  A job that did not start has no
    samples and is left unscaled.
    """
    ref = rec.get("ref_rep_s")
    return rec[key] * REF_REP_S / ref if ref else rec[key]


def median_job(runs: list[Run], name: str) -> float:
    return statistics.median(scaled_s(r.results[name]) for r in runs)


def unscaled_pass_s(wl: Workload, runs: list[Run]) -> float:
    return sum(statistics.median(r.results[j.name]["job_s"] for r in runs) for j in wl.jobs())


def end_to_end(wl: Workload, runs: list[Run], setups: list[float]) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count)."""
    n = len(runs)
    wall = sum(median_job(runs, j.name) for j in wl.jobs())
    rss = statistics.median(
        max(rec.get("peak_rss_mb", 0.0) for rec in r.results.values()) for r in runs
    )
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (wall, n),  # the median pass, job by job
        "work_per_s": (_ratio(wl.work(runs[0]), wall), n),
        "peak_rss_mb": (rss, n),
    }


def per_command(wl: Workload, runs: list[Run]) -> dict[str, tuple[float, int]]:
    """cli.<command>.s: median job time per job, summed over the jobs of
    each command (0 for commands the workload does not run)."""
    out = {}
    for command in COMMANDS:
        names = [j.name for j in wl.jobs() if j.command == command]
        out[f"cli.{command}.s"] = (sum(median_job(runs, n) for n in names), len(runs))
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(wl: Workload, runs: list[Run], traced: Run, counted: Run) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from one traced and one counting pass, plus the
    closure problems: each traced job's self times, which add up to its
    root span by construction, must also add up to the job time taken by
    job.py's own timer around cli.main."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    notes: dict[str, float] = {}
    hits = misses = 0
    problems = []
    for name, rec in traced.results.items():
        tr = rec.get("trace")
        if tr is None:
            continue
        if tr["roots"] != ["cli.main"]:
            problems.append(f"{name}: traced spans are not rooted at cli.main")
        closure = sum(tr["self_s"].values())
        if abs(closure - rec["job_s"]) > CLOSURE_TOL * rec["job_s"] + CLOSURE_ABS_S:
            problems.append(f"{name}: self times {closure} do not add up to job time {rec['job_s']}")
        for src, dst in ((tr["self_s"], self_s), (tr["calls"], calls),
                         (tr["inclusive_s"], incl), (tr["notes"], notes)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        hits += tr["freq_table"]["hits"]
        misses += tr["freq_table"]["misses"]
    counts: dict[str, int] = {}
    for rec in counted.results.values():
        for k, v in rec.get("trace", {}).get("counts", {}).items():
            counts[k] = counts.get(k, 0) + v

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def c(name: str) -> int:
        return calls.get(name, 0)

    def note(name: str) -> float:
        return notes.get(name, 0)

    # Traced jobs are not sampled (job.py), so both sides are unscaled.
    untraced = unscaled_pass_s(wl, runs)
    m = {
        "frequency.pattern_counts.self_s": s("frequency.pattern_counts"),
        "frequency.pattern_counts.calls": c("frequency.pattern_counts"),
        "frequency.embedding_anchors.self_s": s("frequency.embedding_anchors"),
        "frequency.cells_per_s": _ratio(note("cells"), incl.get("frequency.pattern_counts", 0)),
        "frequency.freq_table.hit_ratio": _ratio(hits, hits + misses),
        "frequency.distinct_ratio": _ratio(
            sum(v for k, v in notes.items() if k.startswith("distinct.")),
            sum(v for k, v in notes.items() if k.startswith("embeddings.")),
        ),
        "frequency.distinct_ratio.level2.1d": _ratio(note("distinct.d1.k2"), note("embeddings.d1.k2")),
        "frequency.distinct_ratio.level2.2d": _ratio(note("distinct.d2.k2"), note("embeddings.d2.k2")),
        "symbolic.enumerate_family.self_s": s("symbolic.enumerate_family"),
        "symbolic.subblock_at.self_s": s("symbolic.subblock_at"),
        "symbolic.subblock_at.calls": c("symbolic.subblock_at"),
        "symbolic.sample_bernoulli.self_s": s("symbolic.sample_bernoulli"),
        "measures.dist_to_hull.self_s": s("measures.dist_to_hull"),
        "measures.dist_to_hull.calls": c("measures.dist_to_hull"),
        "measures.dist_to_hull.terms": note("hull_terms"),
        "measures.block_measure.self_s": s("measures.block_measure"),
        "measures.marginal.self_s": s("measures.CylinderMeasure.marginal"),
        "measures.marginal.calls": c("measures.CylinderMeasure.marginal"),
        "measures.dist_block.self_s": s("measures.dist_block"),
        "measures.dist_k.self_s": s("measures.dist_k"),
        "quasitiling.greedy_tile.self_s": s("quasitiling.greedy_tile"),
        "quasitiling.greedy_tile.calls": c("quasitiling.greedy_tile"),
        "quasitiling.greedy_tile.placed_ratio": _ratio(note("tiles_placed"), note("anchors_probed")),
        "quasitiling.congruent.self_s": s("quasitiling.congruent"),
        "quasitiling.verify.self_s": s("quasitiling.verify"),
        "construction.stage_transform.self_s": s("construction.stage_transform"),
        "construction.far_mass.s": incl.get("construction.far_mass", 0.0),
        "construction.select_representative.s": incl.get("construction.select_representative", 0.0),
        "construction.sample_from_measure.s": incl.get("construction.sample_from_measure", 0.0),
        "construction.tiles_evaluated": note("tiles_evaluated"),
        "construction.tiles_replaced": note("tiles_replaced"),
        "construction.tile_cache_hit_ratio": (
            1 - _ratio(note("hull_solves_in_tiles"), note("tile_lookups"))
            if note("tile_lookups") else 0.0
        ),
        "verification.block_measure_gap.s": incl.get("verification.block_measure_gap", 0.0),
        "verification.tiling_average_gap.s": incl.get("verification.tiling_average_gap", 0.0),
        "verification.metric_axioms.s": incl.get("verification.metric_axioms", 0.0),
        "verification.cases": note("cases"),
        "files.read.s": incl.get("files.read", 0.0),
        "files.write.s": incl.get("files.write", 0.0),
        "files.bytes_written": note("bytes_written"),
        "group.point_add.calls": counts.get("group.point_add", 0),
        "symbolic.Block.get.calls": counts.get("symbolic.Block.get", 0),
        "trace.job_s": traced.job_s(),
        "trace.overhead_ratio": _ratio(traced.job_s(), untraced),
    }
    for module in tracer.MODULES:
        m[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
    m.update({k: v for k, (v, _) in per_command(wl, runs).items()})
    return m, problems


def emit(spec: list[dict], metrics: dict[str, float], samples: dict[str, int],
         attempted: int, failed: int, problems: list[str]) -> None:
    for p in problems:
        print(f"problem: {p}")
    print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    out = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        value = metrics[name]
        n = samples.get(name)
        print(f"{name} {value:.6g} {unit}" + (f" (median of {n})" if n else ""))
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", type=Path,
                        help="also write every sample (job times per pass, set-up times) here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blockdyn" / "cli.py").is_file():
        print(f"no blockdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the checks use blockdyn's oracles
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        # The first process in a fresh checkout compiles the bytecode; keep
        # that out of every sample.
        child(wl, "setup", workdir / "warm.json", wl.setup_args())
        if args.trace:
            runs = timed_passes(wl, args.seconds)
            traced = run_pass(wl, "trace", "traced")
            counted = run_pass(wl, "count", "counted")
            attempted, failed, problems = judge(wl, runs + [traced, counted])
            metrics, closure = per_layer(wl, runs, traced, counted)
            emit(spec["per_layer"], metrics, {}, attempted, failed, problems + closure)
        else:
            setups = []
            for i in range(SETUP_SAMPLES):
                rec = child(wl, "setup", workdir / f"setup{i}.json", wl.setup_args())
                if rec["rc"] != 0:
                    print(f"set-up failed: {rec.get('stderr', rec['rc'])}", file=sys.stderr)
                    return 1
                setups.append(scaled_s(rec, "setup_s"))
            runs = timed_passes(wl, args.seconds)
            attempted, failed, problems = judge(wl, runs)
            measured = end_to_end(wl, runs, setups)
            samples = {k: n for k, (_, n) in measured.items()}
            metrics = {k: v for k, (v, _) in measured.items()}
            for k, (v, n) in per_command(wl, runs).items():
                if v:
                    print(f"{k} {v:.6g} s (median of {n})")
            print(f"wall_s unscaled {unscaled_pass_s(wl, runs):.6g} s (median of {len(runs)})")
            if args.details:
                args.details.write_text(json.dumps({
                    "setup_s": setups,
                    "passes": [{k: {"job_s": r["job_s"], "ref_rep_s": r.get("ref_rep_s")}
                                for k, r in run.results.items()} for run in runs],
                    "metrics": metrics,
                }))
            emit(spec["end_to_end"], metrics, samples, attempted, failed, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            workdir.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
