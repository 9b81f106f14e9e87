"""One benchmark job in a fresh Python process.

    python3 perfbench/job.py MODE RESULT_JSON ARG...

MODE is one of
  setup  import blockdyn and load the files named by ARG... (config paths,
         or ``micro`` for the bundled corpus); time both steps together
  plain  run ``blockdyn.cli.main(ARG...)`` and time the call
  trace  the same with every public function of blockdyn wrapped in a span
         recorder (see tracer.py)
  count  the same with only the hot primitives point_add and Block.get
         counted

The result file receives one JSON object.  A job that raises records the
traceback and exit code -1 instead of crashing, so the caller can count it
as failed.  It also holds ``ref_rep_s``, the machine's speed during the
timed step: the mean time of one repetition of a fixed reference work,
sampled every SAMPLE_EVERY_S seconds inside the step in setup and plain
mode, and once after it (SpeedSampler).  run.py uses it to scale the
step's time to a fixed machine speed.  The step's time excludes the
samples.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# One sample of the reference work: one untimed repetition that brings its
# code and data back into the caches, then SLICE_REPS timed repetitions;
# about 3 ms on a 2.1 GHz Xeon vCPU, taken every SAMPLE_EVERY_S seconds
# (about 3% of the step's time).
SLICE_REPS = 4
SAMPLE_EVERY_S = 0.1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_s(reps: int) -> float:
    """Seconds for ``reps`` repetitions of a fixed piece of pure-Python work
    of the kind blockdyn does (tuple keys counted in a dict, Fraction sums,
    a sort).

    It uses no blockdyn code, so no change to the program can move it; it
    moves only with the speed of the machine.  The cyclic collector is off
    while it runs, so the heap a job has built does not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(reps):
            counts: dict[tuple[int, int, int], int] = {}
            acc = Fraction(0)
            for i in range(400):
                key = (i % 37, i % 11, i & 7)
                counts[key] = counts.get(key, 0) + 1
                if i % 8 == 0:
                    acc += Fraction(i + 1, 97 + i % 13)
            sorted(counts.items())
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times the enclosed step and samples the machine's speed while it runs.

    A shared VM's speed drifts by up to 1.5x within seconds, so a reference
    timed before and after a step of several seconds misses most of it.
    With ``inside`` set, a SIGALRM interval timer runs one slice of the
    reference work every SAMPLE_EVERY_S seconds of the step, in the step's
    own process and so on its CPU.  One more slice runs when the step
    ends, so that a step shorter than the interval still gets a sample.
    The untimed warm-up repetition keeps the job's own cache footprint
    out of the samples: without it, samples inside a job ran 8-48% slower
    than the same work outside, by an amount that depended on the job.
    """

    def __init__(self, inside: bool) -> None:
        self.inside = inside
        self.slices: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_s(1)
        self.slices.append(reference_s(SLICE_REPS))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> SpeedSampler:
        if self.inside:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.step_s = time.perf_counter() - self._t0 - self.spent
        self._sample()
        self.ref_rep_s = statistics.mean(self.slices) / SLICE_REPS


def setup(paths: list[str]) -> dict:
    with SpeedSampler(inside=True) as sampler:
        from importlib import resources

        from blockdyn import files

        for p in paths:
            if p == "micro":
                with resources.as_file(
                    resources.files("blockdyn").joinpath("data/micro_corpus.json")
                ) as f:
                    files.read_corpus(f)
                continue
            cfg = files.ExperimentConfig.load(Path(p))
            cfg.load_corpus()
            for v in cfg.vertex_paths:
                files.read_measure(v)
    return {"rc": 0, "setup_s": sampler.step_s, "ref_rep_s": sampler.ref_rep_s}


def run_cli(mode: str, argv: list[str]) -> dict:
    from blockdyn import cli, frequency

    freq_table = frequency.freq_table  # the cached original, before wrapping
    recorder = None
    if mode == "trace":
        import tracer

        recorder = tracer.install_spans()
    elif mode == "count":
        import tracer

        recorder = tracer.install_counters()
    out = io.StringIO()
    # No samples inside traced or counting jobs: a sample would be charged
    # as self time to the span it interrupts.
    sampler = SpeedSampler(inside=mode == "plain")
    try:
        with sampler, contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception:
        rc = -1
        print(traceback.format_exc(), file=sys.stderr)
    result = {
        "rc": rc,
        "job_s": sampler.step_s,
        "ref_rep_s": sampler.ref_rep_s,
        "stdout": out.getvalue(),
    }
    if recorder is not None:
        result["trace"] = recorder.summary()
        if mode == "trace":
            info = freq_table.cache_info()
            result["trace"]["freq_table"] = {"hits": info.hits, "misses": info.misses}
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def main() -> int:
    mode, result_path, *args = sys.argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    result = setup(args) if mode == "setup" else run_cli(mode, args)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
