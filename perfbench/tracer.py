"""Outside-in span recording for blockdyn, installed into a job process.

``install_spans`` wraps every public function and every public method of
the blockdyn modules in a span recorder.  A span is (name, start, end,
parent); spans stay in memory until the job ends and ``summary`` folds
them into self times, call counts and a few per-call notes.  The modules
import each other with ``from .x import y``, so a wrapper is rebound under
every name in every blockdyn module that holds the original object.

The two hot primitives ``group.point_add`` and ``symbolic.Block.get`` are
called millions of times; wrapping them inflates their callers' self time,
so they are left out of the span pass and counted in a pass of their own
(``install_counters``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

MODULES = (
    "cli", "files", "frequency", "symbolic", "measures", "quasitiling",
    "construction", "verification", "group", "testkit",
)
HOT = ("group.point_add", "symbolic.Block.get")

# Named groups of spans whose inclusive time is reported: a span counts
# only when no ancestor belongs to the same group, so nesting (read_corpus
# calling read_json) is not counted twice.
GROUPS = {
    "files.read": (
        "files.read_json", "files.read_corpus", "files.read_measure",
        "files.read_tiling", "files.ExperimentConfig.load",
        "files.ExperimentConfig.load_corpus",
    ),
    "files.write": (
        "files.write_json", "files.write_csv", "files.write_corpus",
        "files.write_measure", "files.write_tiling", "files.write_family",
    ),
    "frequency.pattern_counts": ("frequency.pattern_counts",),
    "construction.far_mass": ("construction.far_mass",),
    "construction.select_representative": ("construction.select_representative",),
    "construction.sample_from_measure": ("construction.sample_from_measure",),
    "construction.tile_scope": ("construction.stage_transform", "construction.far_mass"),
    "verification.block_measure_gap": ("verification.block_measure_gap_suite",),
    "verification.tiling_average_gap": ("verification.tiling_average_gap_suite",),
    "verification.metric_axioms": ("verification.metric_axioms_suite",),
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _note_pattern_counts(notes, args, kwargs, out):
    block = _arg(args, kwargs, 0, "block")
    key = f"d{block.dim}.k{_arg(args, kwargs, 2, 'depth')}"
    notes[f"distinct.{key}"] += len(out)
    notes[f"embeddings.{key}"] += sum(out.values())
    notes["cells"] += len(block.shape)


def _note_dist_to_hull(notes, args, kwargs, out):
    notes["hull_terms"] += sum(len(f) for f in _arg(args, kwargs, 2, "families"))


def _anchor_count(window, shape) -> int:
    (wlo, whi), (slo, shi) = window.bounds(), shape.bounds()
    n = 1
    for a, b, c, d in zip(wlo, whi, slo, shi):
        n *= max(0, (b - a) - (d - c) + 1)
    return n


def _note_greedy_tile(notes, args, kwargs, out):
    window = _arg(args, kwargs, 0, "window")
    notes["tiles_placed"] += out.tiling.tile_count()
    notes["anchors_probed"] += sum(
        _anchor_count(window, s) for s in _arg(args, kwargs, 1, "shapes")
    )


def _note_stage_transform(notes, args, kwargs, out):
    tiles = _arg(args, kwargs, 1, "tiling").tile_count()
    notes["tiles_evaluated"] += tiles
    notes["tile_lookups"] += tiles
    notes["tiles_replaced"] += len(out[1].changes)


def _note_far_mass(notes, args, kwargs, out):
    notes["tile_lookups"] += _arg(args, kwargs, 1, "tiling").tile_count()


def _note_suite(notes, args, kwargs, out):
    notes["cases"] += len(out.cases)


def _note_write(notes, args, kwargs, out):
    notes["bytes_written"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


NOTES = {
    "frequency.pattern_counts": _note_pattern_counts,
    "measures.dist_to_hull": _note_dist_to_hull,
    "quasitiling.greedy_tile": _note_greedy_tile,
    "construction.stage_transform": _note_stage_transform,
    "construction.far_mass": _note_far_mass,
    "verification.block_measure_gap_suite": _note_suite,
    "verification.tiling_average_gap_suite": _note_suite,
    "verification.metric_axioms_suite": _note_suite,
    "files.write_json": _note_write,
    "files.write_csv": _note_write,
}


class Recorder:
    """The spans or counts taken in one job process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = [-1]
        self.notes: Counter = Counter()
        self.counts: dict[str, int] = {}

    def span_wrapper(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note = NOTES.get(name)
        notes = self.notes

        if inspect.isgeneratorfunction(fn):
            # Each resumption is its own span, so the body's time lands
            # inside whichever caller pulls the next item.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(i)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        spans[i] = (idx, t0, t1, parent)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (idx, t0, t1, parent)
            if note is not None:
                note(notes, args, kwargs, out)
            return out

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def summary(self) -> dict:
        """Self time and calls per span name, inclusive time per group, the
        per-call notes and the names of the root spans."""
        if not self.names:
            return {"counts": dict(self.counts)}
        names = self.names
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        group_bits = [0] * len(names)
        group_names = list(GROUPS)
        for bit, group in enumerate(group_names):
            for member in GROUPS[group]:
                if member in names:
                    group_bits[names.index(member)] |= 1 << bit
        above = [0] * n  # groups held by strict ancestors
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        inclusive = {g: 0.0 for g in group_names}
        roots = []
        for i, (idx, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                pidx = spans[parent][0]
                above[i] = above[parent] | group_bits[pidx]
            else:
                roots.append(i)
        for i, (idx, t0, t1, parent) in enumerate(spans):
            name = names[idx]
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            calls[name] = calls.get(name, 0) + 1
            bits = group_bits[idx]
            for bit, group in enumerate(group_names):
                if bits >> bit & 1 and not above[i] >> bit & 1:
                    inclusive[group] += t1 - t0
        tile_bit = 1 << group_names.index("construction.tile_scope")
        hull_idx = names.index("measures.dist_to_hull")
        hull_in_tiles = sum(
            1 for i, s in enumerate(spans) if s[0] == hull_idx and above[i] & tile_bit
        )
        return {
            "roots": [names[spans[i][0]] for i in roots],
            "self_s": self_s,
            "calls": calls,
            "inclusive_s": inclusive,
            "notes": dict(self.notes, hull_solves_in_tiles=hull_in_tiles),
        }


def _blockdyn_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "blockdyn" or name.startswith("blockdyn."))
    ]


def _public_functions(mod):
    """(qualified name, owner, attribute, function) for the module's own
    public functions and public methods of its own classes."""
    short = mod.__name__.split(".")[-1]
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for mattr, mobj in list(vars(obj).items()):
                if mattr.startswith("_"):
                    continue
                qual = f"{short}.{obj.__name__}.{mattr}"
                if isinstance(mobj, (classmethod, staticmethod)):
                    yield qual, obj, mattr, mobj
                elif inspect.isfunction(mobj):
                    yield qual, obj, mattr, mobj
        elif callable(obj):
            yield f"{short}.{attr}", mod, attr, obj


def _install(make) -> Recorder:
    """Replace each public function with ``make(recorder, name, fn)`` (or
    skip it when that returns None), in every module that holds it."""
    rec = Recorder()
    mods = [importlib.import_module(f"blockdyn.{m}") for m in MODULES]
    everywhere = _blockdyn_modules()
    for mod in mods:
        for qual, owner, attr, obj in list(_public_functions(mod)):
            if isinstance(obj, (classmethod, staticmethod)):
                inner = make(rec, qual, obj.__func__)
                if inner is not None:
                    setattr(owner, attr, type(obj)(inner))
                continue
            new = make(rec, qual, obj)
            if new is None:
                continue
            if owner is not mod:
                setattr(owner, attr, new)
                continue
            for other in everywhere:
                for name, value in list(vars(other).items()):
                    if value is obj:
                        setattr(other, name, new)
    return rec


def install_spans() -> Recorder:
    return _install(
        lambda rec, name, fn: None if name in HOT else rec.span_wrapper(name, fn)
    )


def install_counters() -> Recorder:
    return _install(
        lambda rec, name, fn: rec.count_wrapper(name, fn) if name in HOT else None
    )
