"""Staged block replacement on a finite window.

Each stage tiles the window with boxes, measures how far every tile's
content is from a convex target, and overwrites the far tiles' leading
rows with a per-shape representative block.  Every change is logged, so a
stage is exactly invertible from its report.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .frequency import _count, corpus_subblocks, freq_table
from .frequency import tiling_average_gap_bound
from .group import Point, Shape, _Record, folner_box
from .measures import ConvexTarget, CylinderMeasure, HullDistance, dist_to_hull
from .quasitiling import Quasitiling, TilingReport, congruent, greedy_tile, verify
from .symbolic import Block, BlockFamily, Corpus, _categorical, _draws, _layout, decode_pattern

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
    """What one stage received (delta, depth) and measured.  The far mass
    before a stage is also the fraction of the window it replaced."""

    __slots__ = (
        "delta", "depth", "covered_fraction", "far_mass_before", "far_mass_after",
        "tiles", "changes", "concat_deviation", "concat_bound",
    )
    delta: Fraction
    depth: int
    covered_fraction: Fraction
    far_mass_before: Fraction
    far_mass_after: Fraction
    tiles: tuple[TileRecord, ...]
    changes: tuple[ChangeRecord, ...]
    concat_deviation: Fraction | None
    concat_bound: Fraction | None


def select_representative(
    shape: Shape,
    target: ConvexTarget,
    candidates: Sequence[Block],
    families: Sequence[BlockFamily],
) -> tuple[Block, HullDistance]:
    """The candidate whose frequencies are closest to the target hull.

    Ties break lexicographically on block entries, so the choice is
    deterministic for a fixed candidate list.  Candidates with the same
    entries are one block, solved once.
    """
    if not candidates:
        raise ValueError("empty candidate list")
    if any(cand.shape != shape for cand in candidates):
        raise ValueError("candidate with a different shape")
    distinct = {cand.symbols: cand for cand in candidates}.values()
    return min(
        ((cand, dist_to_hull(cand, target, families)) for cand in distinct),
        key=lambda scored: (scored[1].value, scored[0].symbols),
    )


_Entry = tuple[Fraction, bool, Block, Mapping[int, int]]


def stage_transform(
    config: Block,
    tiling: Quasitiling,
    target: ConvexTarget,
    delta: Fraction,
    representatives: Mapping[Shape, Block],
    families: Sequence[BlockFamily],
) -> tuple[Block, StageReport]:
    """Overwrite the leading rows of every far tile with its shape's
    representative, in one pass that reads, judges and writes each tile
    once; leave everything else untouched.

    The change log records each replaced tile's previous content, so
    replaying it backwards restores the input exactly.  On a tiling of the
    configuration's own window, as in ``run``, the report carries the
    concatenation check of the output, summed from the memo; else None.
    """
    delta = Fraction(delta)
    base = folner_box(1, config.dim)
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
    sizes = config.sizes[:k]
    for i, shape in enumerate(tiling.shapes):
        if not tiling.centers[i]:
            continue
        if shape not in reps:
            raise ValueError("missing representative for a tiling shape")
        if reps[shape].shape != shape:
            raise ValueError("representative does not live on its shape")
        if reps[shape].sizes != sizes:
            raise ValueError("representative alphabet differs from the configuration")

    # The stage's one hull-distance memo, keyed by (shape index, content),
    # holds the distance, whether it is above delta, the one Block of that
    # content (a change record shares it) and its level-1 pattern counts.
    # Tiles are disjoint and writes touch only replaced tiles, so a kept tile
    # keeps its content and a replaced one reads back as exactly its
    # representative: the far mass after the stage and the output's tile
    # counts read the representative's entry.
    memo: dict[tuple[int, tuple[int, ...]], _Entry] = {}

    def lower(i: int, content: tuple[int, ...], block: Block | None = None) -> _Entry:
        entry = memo.get((i, content))
        if entry is None:
            if block is None:
                block = Block(tiling.shapes[i], k, sizes, content)
            d = dist_to_hull(block, target, families).value
            # Families start at level 1, so the solve has just cached this.
            counts = freq_table(block, base, 1).counts
            entry = memo[i, content] = (d, d > delta, block, counts)
        return entry

    tile_records = []
    changes = []
    # The tiles of the output per (shape index, content) they show.
    shown: dict[tuple[int, tuple[int, ...]], int] = {}
    far_tiles = [0] * len(tiling.shapes)
    window, symbols = config.shape, config.symbols
    out = list(symbols)
    # One layout per shape; a tile is then read, and written, at its position.
    layouts = [_layout(window, shape, k) for shape in tiling.shapes]
    shape_reps = [reps.get(shape) for shape in tiling.shapes]
    for c, i in tiling.tiles():
        layout = layouts[i]
        at = layout.at(c)
        if at is None:
            raise ValueError(f"tile at {c} escapes the configuration")
        key = (i, layout.read(symbols, at))
        d, far, sub, _ = memo.get(key) or lower(*key)
        tile_records.append(TileRecord(c, i, d, far))
        if far:
            far_tiles[i] += 1
            rep = shape_reps[i]
            changes.append(ChangeRecord(c, i, sub, rep))
            layout.write(out, at, rep.symbols)
        else:
            shown[key] = shown.get(key, 0) + 1
    far_cells = far_cells_after = 0
    for i, (n, shape, rep) in enumerate(zip(far_tiles, tiling.shapes, shape_reps)):
        if n:
            far_cells += n * len(shape)
            if lower(i, rep.symbols, rep)[1]:
                far_cells_after += n * len(shape)
            shown[i, rep.symbols] = shown.get((i, rep.symbols), 0) + n
    # The list goes before the check, whose host table is the stage's peak.
    out = Block(window, config.depth, config.sizes, tuple(out))
    dev = bound = None
    if tiling.window == window:
        # Per shape, the output's tile counts: the counts of each content
        # times the tiles that show it.
        sums: list[dict[int, int]] = [{} for _ in tiling.shapes]
        for (i, content), n in shown.items():
            total = sums[i]
            for code, m in memo[i, content][3].items():
                total[code] = total.get(code, 0) + n * m
        dev, bound = _concatenation_check(out, tiling, report0, _with_anchors(tiling, sums))
    report = StageReport(
        delta=delta,
        depth=k,
        covered_fraction=report0.covered_fraction,
        far_mass_before=Fraction(far_cells, len(tiling.window)),
        far_mass_after=Fraction(far_cells_after, len(tiling.window)),
        tiles=tuple(tile_records),
        changes=tuple(changes),
        concat_deviation=dev,
        concat_bound=bound,
    )
    return out, report


def apply_changes(
    config: Block, changes: Sequence[ChangeRecord], undo: bool = False
) -> Block:
    """Replay (or with undo=True, revert) a stage's change log."""
    symbols = list(config.symbols)
    for ch in changes:
        source = ch.before if undo else ch.after
        layout = _layout(config.shape, source.shape, source.depth)
        at = layout.at(ch.center)
        if at is None or source.depth > config.depth:
            raise ValueError(f"change at {ch.center} escapes the configuration")
        layout.write(symbols, at, source.symbols)
    return Block(config.shape, config.depth, config.sizes, tuple(symbols))


RepSource = Callable[[Shape, int], Sequence[Block]]


def corpus_rep_source(corpus: Corpus, limit: int) -> RepSource:
    """The first ``limit`` representative candidates of a corpus, in scan
    order."""
    if limit < 1:
        raise ValueError("a representative source needs a limit of at least 1")

    def source(shape: Shape, depth: int) -> Sequence[Block]:
        return list(islice(corpus_subblocks(corpus, shape, depth), limit))

    return source


def sample_from_measure(
    measure: CylinderMeasure, shape: Shape, depth: int, seed: int, sizes: Sequence[int]
) -> Block:
    """Seeded block on shape x rows[1..depth] over the alphabets ``sizes``
    that imitates a measure.

    Disjoint translates of the measure's base are greedily placed in the
    shape and filled with independent draws of full patterns; leftover
    cells draw from the measure's per-row aggregate symbol distribution.
    Rows beyond the measure depth (if any) are filled uniformly.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    full_sizes = tuple(sizes)
    if len(full_sizes) < depth or full_sizes[: measure.depth] != measure.sizes:
        raise ValueError("alphabet sizes incompatible with the measure")
    rng = random.Random(seed)
    atoms = measure.atoms()
    cells = len(measure.base)
    keys = [decode_pattern(key, measure.sizes, cells) for key in atoms.counts]
    cuts = _categorical(list(atoms.values()), len(keys), "measure atoms")
    placed = sorted(greedy_tile(shape, [measure.base], Fraction(1)).tiling.centers[0])
    n_shape = len(shape)
    symbols: list[int | None] = [None] * (n_shape * depth)
    layout = _layout(shape, measure.base, min(depth, measure.depth))
    for c, i in zip(placed, _draws(rng, cuts, len(placed))):
        layout.write(symbols, layout.at(c), keys[i])

    row_cuts: list[list[float]] = []
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
        row_cuts.append(_categorical(probs, n, f"row {r + 1}"))

    for r, cuts in enumerate(row_cuts):
        free = [pos for pos in range(r * n_shape, (r + 1) * n_shape) if symbols[pos] is None]
        for pos, v in zip(free, _draws(rng, cuts, len(free))):
            symbols[pos] = v
    return Block(shape, depth, full_sizes[:depth], tuple(symbols))  # type: ignore[arg-type]


def vertex_rep_source(
    target: ConvexTarget, vertex: int, seed: int, count: int, sizes: Sequence[int]
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
    """A run's input, output and stage reports, with the hull distance of
    the window before stage 1 and after each stage: one more entry than
    there are stages."""

    __slots__ = ("initial", "final", "stages", "window_distances")
    initial: Block
    final: Block
    stages: tuple[StageReport, ...]
    window_distances: tuple[HullDistance, ...]


def run(
    config: Block,
    schedule: StageSchedule,
    target: ConvexTarget,
    families: Sequence[BlockFamily],
    rep_source: RepSource,
) -> RunResult:
    """Apply the staged transform with congruent coarsening grid tilings.

    Emits one report per stage with far masses and a concatenation check
    of the window frequencies against the tile-weighted average (bound
    evaluable only when the per-stage deficiency is small enough), and the
    whole window's hull distance, read from its frequencies as a tile's
    is, before the first stage and after each one.
    """
    if schedule.dim != config.dim:
        raise ValueError("schedule dimension differs from the configuration")
    window = config.shape
    reports: list[StageReport] = []
    current = config
    previous_tiling: Quasitiling | None = None
    # A stage starts from the previous output, so at its window distance.
    distances = [dist_to_hull(config, target, families)]
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
        rep = select_representative(box, target, candidates, families)[0]
        current, report = stage_transform(
            current, tiling, target, st.delta, {box: rep}, families
        )
        reports.append(report)
        distances.append(dist_to_hull(current, target, families))
        previous_tiling = tiling
    return RunResult(config, current, tuple(reports), tuple(distances))


def _concatenation_check(
    config: Block,
    tiling: Quasitiling,
    report: TilingReport,
    tile_counts: Sequence[tuple[int, Mapping[int, int]]],
) -> tuple[Fraction | None, Fraction | None]:
    """Worst deviation between the F_1 frequencies of ``config`` and the
    tile-weighted average, with the matching bound when it is evaluable;
    (None, None) when no tile shape has an anchor of F_1, so no average.
    ``report`` is ``verify(tiling)``, and ``tile_counts`` per shape
    its anchors and summed counts (``_tile_counts`` or a stage's memo)."""
    total_cells = sum(len(s) * len(cs) for s, cs in zip(tiling.shapes, tiling.centers))
    # The tile-weighted average of tile frequencies, one term per shape: the
    # counts summed over its tiles.
    weighted = [
        (Fraction(len(shape), anchors * total_cells), counts)
        for shape, (anchors, counts) in zip(tiling.shapes, tile_counts)
        if anchors
    ]
    if not weighted:
        return None, None
    # The deficiency is the largest tile invariance ratio or the uncovered
    # fraction, nudged up by 1/1000 because the invariance definition is
    # strict (ratio < delta).
    deficiency = max(
        max(report.invariance_ratios),
        1 - report.covered_fraction,
    ) + Fraction(1, 1000)
    base = folner_box(1, config.dim)
    host_table = freq_table(config, base, 1)
    keys = set(host_table).union(*(counts for _, counts in weighted))
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
    """Per shape, the number of anchors of ``base`` in it (0 for a shape
    with no tiles) and the counts of the codes of the patterns on base x
    rows[1..level] summed over its tiles, read from the window's own
    symbols at each tile's anchors: one pattern per anchor and tile."""
    return _with_anchors(
        tiling, [_count(config, base, level, s, cs) for s, cs in zip(tiling.shapes, tiling.centers)]
    )


def _with_anchors(
    tiling: Quasitiling, counts: Sequence[dict[int, int]]
) -> list[tuple[int, dict[int, int]]]:
    """Per shape, its anchors (one pattern per anchor and tile, 0 for a
    shape with no tiles) and its tiles' summed pattern counts."""
    return [
        (sum(c.values()) // len(centers) if centers else 0, c)
        for c, centers in zip(counts, tiling.centers)
    ]
