"""Staged block replacement on a finite window.

Each stage tiles the window with boxes, measures how far every tile's
content is from a convex target, and overwrites the far tiles' leading
rows with a per-shape representative block.  Every change is logged, so a
stage is exactly invertible from its report.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import chain, islice
from math import lcm
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .frequency import _anchor_ranges, _box_codes, _run_firsts
from .frequency import corpus_subblocks, embedding_anchors, freq_table, tiling_average_gap_bound
from .group import Point, Shape, _Record, folner_box, point_add
from .measures import ConvexTarget, CylinderMeasure, HullDistance, block_measure, dist_to_hull
from .quasitiling import Quasitiling, congruent, greedy_tile, verify
from .symbolic import Block, BlockFamily, BoxRuns, Corpus, _box_offset, _box_read, _box_runs
from .symbolic import _box_write, _categorical, _draw, _read, _runs_at, _write, decode_pattern
from .symbolic import encode_pattern, subblock_at

if TYPE_CHECKING:
    from .files import StageSchedule


class _WritableRecord(_Record):
    """A record made once per tile or change of a stage, 5,294 of them in a
    benchmark construct run: its fields are plain slot stores, about half
    the cost of the base's constructor, so it stays writable and, being
    writable, unhashable."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]


class TileRecord(_WritableRecord):
    __slots__ = ("center", "shape_index", "distance_lower", "replaced")

    def __init__(
        self, center: Point, shape_index: int, distance_lower: Fraction, replaced: bool
    ) -> None:
        self.center, self.shape_index = center, shape_index
        self.distance_lower, self.replaced = distance_lower, replaced


class ChangeRecord(_WritableRecord):
    """Enough to undo one tile replacement: both blocks are re-based to the
    tile's shape, so applying ``before`` at the center restores the input."""

    __slots__ = ("center", "shape_index", "before", "after")

    def __init__(self, center: Point, shape_index: int, before: Block, after: Block) -> None:
        self.center, self.shape_index, self.before, self.after = (
            center, shape_index, before, after
        )


class StageReport(_Record):
    __slots__ = (
        "stage", "eps", "delta", "depth", "covered_fraction", "far_mass_before",
        "far_mass_after", "replaced_fraction", "tiles", "changes", "window_distance_before",
        "window_distance_after", "concat_deviation", "concat_bound",
    )
    _defaults = (None, None, None, None)
    stage: int
    eps: Fraction
    delta: Fraction
    depth: int
    covered_fraction: Fraction
    far_mass_before: Fraction
    far_mass_after: Fraction
    replaced_fraction: Fraction
    tiles: tuple[TileRecord, ...]
    changes: tuple[ChangeRecord, ...]
    window_distance_before: Fraction | None
    window_distance_after: Fraction | None
    concat_deviation: Fraction | None
    concat_bound: Fraction | None


def select_representative(
    shape: Shape,
    target: ConvexTarget,
    candidates: Sequence[Block],
    families: Sequence[BlockFamily],
) -> tuple[Block, HullDistance]:
    """The candidate whose empirical measure is closest to the target hull.

    Ties break lexicographically on block entries, so the choice is
    deterministic for a fixed candidate list.
    """
    if not candidates:
        raise ValueError("empty candidate list")
    if any(cand.shape != shape for cand in candidates):
        raise ValueError("candidate with a different shape")
    return min(
        (
            (cand, dist_to_hull(block_measure(cand, target.depth), target, families))
            for cand in candidates
        ),
        key=lambda scored: (scored[1].value, scored[0].symbols),
    )


def far_mass(
    config: Block,
    tiling: Quasitiling,
    target: ConvexTarget,
    delta: Fraction,
    families: Sequence[BlockFamily],
) -> Fraction:
    """Fraction of window cells covered by tiles whose block is certified
    farther than delta from the target hull: one solve per tile, no cache."""
    delta = Fraction(delta)
    total = 0
    for shape, centers in zip(tiling.shapes, tiling.centers):
        for c in centers:
            sub = subblock_at(config, shape, c, target.depth)
            if sub is None:
                raise ValueError(f"tile at {c} escapes the configuration")
            if dist_to_hull(sub, target, families).value > delta:
                total += len(shape)
    return Fraction(total, len(tiling.window))


def stage_transform(
    config: Block,
    tiling: Quasitiling,
    target: ConvexTarget,
    delta: Fraction,
    representatives: Mapping[Shape, Block],
    families: Sequence[BlockFamily],
) -> tuple[Block, StageReport]:
    """Overwrite the leading rows of every far tile with its shape's
    representative; leave everything else untouched.

    The change log records each replaced tile's previous content, so
    replaying it backwards restores the input exactly.
    """
    delta = Fraction(delta)
    report0 = verify(tiling)
    if not report0.disjoint:
        raise ValueError("stage tilings must be disjoint")
    reps: dict[Shape, Block] = dict(representatives)
    depths = {b.depth for b in reps.values()}
    if len(depths) != 1:
        raise ValueError("representatives must share a depth")
    k = depths.pop()
    if k > config.depth:
        raise ValueError("representative depth exceeds the configuration depth")
    if k < target.depth:
        raise ValueError("representative depth below the target depth")
    for i, shape in enumerate(tiling.shapes):
        if not tiling.centers[i]:
            continue
        if shape not in reps:
            raise ValueError("missing representative for a tiling shape")
        if reps[shape].shape != shape:
            raise ValueError("representative does not live on its shape")

    # The stage's one hull-distance memo, keyed by (shape index, content),
    # holds the distance, whether it is above delta, and the one Block of that
    # content; blocks are immutable, so a change record shares it.  Tiles are
    # disjoint and writes touch only replaced tiles, so a kept tile keeps its
    # distance (at most delta) and a replaced one reads back as exactly its
    # representative: the far mass after the stage reads the representative's
    # entry.
    memo: dict[tuple[int, tuple[int, ...]], tuple[Fraction, bool, Block]] = {}
    sizes = config.sizes[:k]

    def lower(
        i: int, content: tuple[int, ...], block: Block | None = None
    ) -> tuple[Fraction, bool, Block]:
        entry = memo.get((i, content))
        if entry is None:
            if block is None:
                block = Block(tiling.shapes[i], k, sizes, content)
            d = dist_to_hull(block, target, families).value
            entry = memo[i, content] = (d, d > delta, block)
        return entry

    tile_records = []
    changes = []
    far_tiles = [0] * len(tiling.shapes)
    window, symbols = config.shape, config.symbols
    # One kernel lookup per shape; a box tile is then read at its offset.
    lookups = [_box_runs(window, shape, k) for shape in tiling.shapes]
    shape_reps = [reps.get(shape) for shape in tiling.shapes]
    for c, i in tiling.tiles():
        runs = lookups[i]
        at = _runs_at(window, tiling.shapes[i], k, c) if runs is None else _box_offset(runs, c)
        if at is None:
            raise ValueError(f"tile at {c} escapes the configuration")
        content = _read(symbols, at) if runs is None else _box_read(symbols, runs, at)
        d, far, sub = memo.get((i, content)) or lower(i, content)
        tile_records.append(TileRecord(c, i, d, far))
        if far:
            far_tiles[i] += 1
            changes.append(ChangeRecord(c, i, sub, shape_reps[i]))
    far_cells = far_cells_after = 0
    for i, (n, shape, rep) in enumerate(zip(far_tiles, tiling.shapes, shape_reps)):
        if n:
            far_cells += n * len(shape)
            if lower(i, rep.symbols, rep)[1]:
                far_cells_after += n * len(shape)
    out = apply_changes(config, changes)
    far_before = Fraction(far_cells, len(tiling.window))
    report = StageReport(
        stage=0,
        eps=Fraction(0),
        delta=delta,
        depth=k,
        covered_fraction=report0.covered_fraction,
        far_mass_before=far_before,
        far_mass_after=Fraction(far_cells_after, len(tiling.window)),
        replaced_fraction=far_before,
        tiles=tuple(tile_records),
        changes=tuple(changes),
    )
    return out, report


def apply_changes(
    config: Block, changes: Sequence[ChangeRecord], undo: bool = False
) -> Block:
    """Replay (or with undo=True, revert) a stage's change log.  A box
    change on a box configuration is written at its offset, with one kernel
    lookup per (shape, depth) in the log."""
    symbols = list(config.symbols)
    lookups: dict[tuple[Shape, int], BoxRuns | None] = {}
    for ch in changes:
        source = ch.before if undo else ch.after
        key = source.shape, source.depth
        if key not in lookups:
            lookups[key] = _box_runs(config.shape, *key)
        runs = lookups[key]
        c = ch.center
        at = _runs_at(config.shape, *key, c) if runs is None else _box_offset(runs, c)
        if at is None or source.depth > config.depth:
            raise ValueError(f"change at {c} escapes the configuration")
        if runs is None:
            _write(symbols, at, source.symbols)
        else:
            _box_write(symbols, runs, at, source.symbols)
    return Block(config.shape, config.depth, config.sizes, tuple(symbols))


RepSource = Callable[[Shape, int], Sequence[Block]]


def corpus_rep_source(corpus: Corpus, limit: int = 64) -> RepSource:
    """The first ``limit`` representative candidates of a corpus, in scan
    order."""
    if limit < 1:
        raise ValueError("a representative source needs a limit of at least 1")

    def source(shape: Shape, depth: int) -> Sequence[Block]:
        return list(islice(corpus_subblocks(corpus, shape, depth), limit))

    return source


def sample_from_measure(
    measure: CylinderMeasure,
    shape: Shape,
    depth: int,
    seed: int,
    sizes: Sequence[int] | None = None,
) -> Block:
    """Seeded block on shape x rows[1..depth] that imitates a measure.

    Disjoint translates of the measure's base are greedily placed in the
    shape and filled with independent draws of full patterns; leftover
    cells draw from the measure's per-row aggregate symbol distribution.
    Rows beyond the measure depth (if any) need explicit alphabet sizes
    and are filled uniformly.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    full_sizes = tuple(sizes) if sizes is not None else measure.sizes
    if len(full_sizes) < depth or full_sizes[: measure.depth] != measure.sizes:
        raise ValueError("alphabet sizes incompatible with the measure")
    rng = random.Random(seed)
    atoms = measure.atoms()
    cells = len(measure.base)
    keys = [decode_pattern(key, measure.sizes, cells) for key in atoms.counts]
    cumulative = _categorical(list(atoms.values()), len(keys), "measure atoms")
    placed = greedy_tile(shape, [measure.base], Fraction(1)).tiling
    n_shape = len(shape)
    symbols: list[int | None] = [None] * (n_shape * depth)
    rows = min(depth, measure.depth)
    for c in sorted(placed.centers[0]):
        runs = _runs_at(shape, measure.base, rows, c)
        _write(symbols, runs, keys[_draw(rng, cumulative)])

    row_cumulative: list[list[float]] = []
    for r in range(depth):
        n = full_sizes[r]
        if r < measure.depth:
            acc = [0] * n
            for key, count in zip(keys, atoms.counts.values()):
                for v in key[r * cells : (r + 1) * cells]:
                    acc[v] += count
            probs = [Fraction(a, sum(acc)) for a in acc]
        else:
            probs = [Fraction(1, n)] * n
        row_cumulative.append(_categorical(probs, n, f"row {r + 1}"))

    for r in range(depth):
        for pos in range(r * n_shape, (r + 1) * n_shape):
            if symbols[pos] is None:
                symbols[pos] = _draw(rng, row_cumulative[r])
    return Block(shape, depth, full_sizes[:depth], tuple(symbols))  # type: ignore[arg-type]


def vertex_rep_source(
    target: ConvexTarget, vertex: int, seed: int, count: int = 8,
    sizes: Sequence[int] | None = None,
) -> RepSource:
    """Representative candidates sampled from one designated vertex measure."""
    if count < 1:
        raise ValueError("a representative source needs a count of at least 1")
    measure = target.vertices[vertex]

    def source(shape: Shape, depth: int) -> Sequence[Block]:
        return [
            sample_from_measure(measure, shape, depth, seed + 104729 * i, sizes)
            for i in range(count)
        ]

    return source


class RunResult(_Record):
    __slots__ = ("initial", "final", "stages")
    initial: Block
    final: Block
    stages: tuple[StageReport, ...]


def run(
    config: Block,
    schedule: StageSchedule,
    target: ConvexTarget,
    families: Sequence[BlockFamily],
    rep_source: RepSource,
) -> RunResult:
    """Apply the staged transform with congruent coarsening grid tilings.

    Emits one report per stage with far masses, the replaced fraction, the
    whole-window empirical distance to the target before and after, and a
    concatenation check of the window frequencies against the tile-weighted
    average (bound evaluable only when the per-stage deficiency is small
    enough).
    """
    if schedule.dim != config.dim:
        raise ValueError("schedule dimension differs from the configuration")
    window = config.shape
    reports: list[StageReport] = []
    current = config
    previous_tiling: Quasitiling | None = None
    # A stage starts from the previous output, so at its window distance.
    wd_before = dist_to_hull(block_measure(config, target.depth), target, families).value
    for st in schedule.stages:
        if st.depth > config.depth or st.depth < target.depth:
            raise ValueError(
                f"stage {st.index}: depth {st.depth} incompatible with the data"
            )
        box = Shape.box((0,) * config.dim, (st.tile_side - 1,) * config.dim)
        tiling = greedy_tile(window, [box], Fraction(1)).tiling
        if previous_tiling is not None and not congruent(tiling, previous_tiling):
            raise ValueError(f"stage {st.index} tiling not congruent with stage {st.index - 1}")
        candidates = rep_source(box, st.depth)
        rep, _rep_dist = select_representative(box, target, candidates, families)
        out, rep_report = stage_transform(
            current, tiling, target, st.delta, {box: rep}, families
        )
        wd_after = dist_to_hull(block_measure(out, target.depth), target, families).value
        dev, bound = _concatenation_check(out, tiling)
        reports.append(
            rep_report._replace(
                stage=st.index,
                eps=st.eps,
                window_distance_before=wd_before,
                window_distance_after=wd_after,
                concat_deviation=dev,
                concat_bound=bound,
            )
        )
        current, wd_before, previous_tiling = out, wd_after, tiling
    return RunResult(initial=config, final=current, stages=tuple(reports))


def _concatenation_check(
    config: Block, tiling: Quasitiling
) -> tuple[Fraction | None, Fraction | None]:
    """Worst deviation between window frequencies and the tile-weighted
    average, with the matching bound when it is evaluable."""
    level = 1
    base = folner_box(level, config.dim)
    report = verify(tiling, base)
    assert report.invariance_ratios is not None
    # The deficiency is the largest tile invariance ratio or the uncovered
    # fraction, nudged up by 1/1000 because the invariance definition is
    # strict (ratio < delta).
    deficiency = max(
        max(report.invariance_ratios),
        1 - report.covered_fraction,
    ) + Fraction(1, 1000)
    host_table = freq_table(config, base, level)
    total_cells = sum(len(s) * len(cs) for s, cs in zip(tiling.shapes, tiling.centers))
    if total_cells == 0:
        return None, None
    # The tile-weighted average of tile frequencies, one term per shape: the
    # counts summed over its tiles.
    weighted: list[tuple[Fraction, dict[int, int]]] = []
    keys = set(host_table)
    for shape, (anchors, counts) in zip(tiling.shapes, _tile_counts(config, tiling, base, level)):
        keys |= counts.keys()
        if anchors:
            weighted.append((Fraction(len(shape), anchors * total_cells), counts))
    # |c/t - a/avg_den| = |c avg_den - t a| / (t avg_den), with the average
    # a/avg_den over the weights' common denominator
    avg_den = lcm(*(w.denominator for w, _ in weighted))
    scaled = [(w.numerator * (avg_den // w.denominator), counts) for w, counts in weighted]
    host, t = host_table.counts, host_table.total
    top = 0
    for key in keys:
        avg = sum(w * counts.get(key, 0) for w, counts in scaled)
        top = max(top, abs(host.get(key, 0) * avg_den - t * avg))
    dev = Fraction(top, t * avg_den)
    if deficiency >= 1 or deficiency * len(base) >= 1:
        return dev, None
    return dev, tiling_average_gap_bound(deficiency, len(base))


def _tile_counts(
    config: Block, tiling: Quasitiling, base: Shape, level: int
) -> list[tuple[int, dict[int, int]]]:
    """Per shape, the number of anchors of ``base`` in it and the counts of
    the codes of the patterns on base x rows[1..level] summed over its
    tiles, read from the window's own symbols at each tile's anchors.  A box
    tile on a box window reads its codes from the window's ``_box_codes``,
    any other tile encodes one ``_runs_at`` read per anchor."""
    symbols, sizes = config.symbols, config.sizes[:level]
    runs = _box_runs(config.shape, base, level)
    window_codes = None
    out = []
    for shape, centers in zip(tiling.shapes, tiling.centers):
        anchors = embedding_anchors(shape, base)
        if runs is not None and shape.is_box():
            if window_codes is None:
                window_codes = _box_codes(symbols, sizes, len(config.shape), runs)
            codes, first = window_codes
            # flat indices are affine, so a tile's anchors at c are those of
            # the tile at the origin shifted by flat(c) - flat(0)
            firsts, n = _run_firsts(runs, _anchor_ranges(shape, base))
            flat = runs[2]
            origin = flat((0,) * config.dim) + first
            shifts = [flat(c) - origin for c in centers]
            counts = Counter(
                chain.from_iterable(codes[f + d : f + d + n] for d in shifts for f in firsts)
            )
        else:
            cells = len(base)
            counts = Counter(
                encode_pattern(
                    _read(symbols, _runs_at(config.shape, base, level, point_add(g, c))),
                    sizes,
                    cells,
                )
                for c in centers
                for g in anchors
            )
        out.append((len(anchors), dict(counts)))
    return out
