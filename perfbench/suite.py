"""Run every workload over a set of seeds and summarise the spread.

    python3 perfbench/suite.py --seeds 1-10 [--trace 0] [--save DIR]

Each seed is one round that runs every workload of BENCHMARK.json once
through run.py, for its run_seconds, the workloads rotated by one place
per round.  Interleaving spreads slow drift in machine speed over all
workloads alike, instead of letting it fall on whichever workload
happened to run its repetitions during a slow spell.  The summary gives, per workload and metric, the median over
rounds, the quartiles, the spread (q3 - q1) / median, the run count and
the metric's bound from BENCHMARK.json; ``--trace 1`` summarises the
per-layer metrics instead.  With ``--save DIR`` every run's samples and
the summary are written there as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(args.seeds):
        for w in workloads[i % len(workloads):] + workloads[: i % len(workloads)]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            if args.save and not args.trace:
                cmd += ["--details", str((args.save / f"{w}-{seed}.json").resolve())]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            res = json.loads(proc.stdout.splitlines()[-1])
            res["seed"] = seed
            results[w].append(res)
            brief = " ".join(f"{k}={v['value']:.4g}" for k, v in list(res["metrics"].items())[:6])
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {brief}", flush=True)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {}
    print(f"\n{'workload':10} {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} runs")
    for w, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{w:10} {'fail_ratio':40} {failed / max(attempted, 1):12.4g} "
              f"({failed} of {attempted} jobs; {sum(not r['correct'] for r in runs)} runs incorrect)")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            summary[f"{w}/{m['name']}"] = {"median": med, "q1": q1, "q3": q3,
                                           "spread": spread, "runs": len(values)}
            print(f"{w:10} {m['name'] + ' [' + m['unit'] + ']':40} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {'' if bound is None else bound:>6} {len(values)}")
    if args.save:
        (args.save / "summary.json").write_text(json.dumps(
            {"seconds": spec["run_seconds"], "seeds": args.seeds, "results": results, "summary": summary},
            indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
