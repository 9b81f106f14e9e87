"""Staged block replacement on a finite window.

Each stage tiles the window with boxes, measures how far every tile's
content is from a convex target, and overwrites the far tiles' leading
rows with a per-shape representative block.  Every change is logged, so a
stage is exactly invertible from its report.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Mapping, Sequence

from .frequency import block_measure_gap_bound, corpus_subblocks, embedding_anchors
from .frequency import freq_table, tiling_average_gap_bound
from .group import Point, Shape, folner_box
from .measures import ConvexTarget, CylinderMeasure, HullDistance, block_measure, dist_to_hull
from .quasitiling import Quasitiling, congruent, greedy_tile, verify
from .symbolic import Block, BlockFamily, Corpus, _draw, _read, _runs_at, _write, subblock_at


@dataclass(frozen=True)
class Stage:
    """One stage: tolerance eps, replacement threshold delta, rows 1..depth
    rewritten, box tiles of side tile_side, delta tied to Folner index."""

    index: int
    eps: Fraction
    delta: Fraction
    depth: int
    folner_index: int
    tile_side: int

    def __post_init__(self) -> None:
        if self.eps <= 0 or self.delta <= 0:
            raise ValueError("eps and delta must be positive")
        if self.depth < 1 or self.tile_side < 1 or self.folner_index < 1:
            raise ValueError("depth, tile side and Folner index must be positive")


@dataclass(frozen=True)
class StageSchedule:
    """A strictly decreasing, summable tolerance sequence with per-stage
    replacement thresholds and coarsening tile sides.

    Each delta must keep the marginal-gap bound below its stage's eps, and
    every tile side must be a multiple of the previous stage's so that the
    grid tilings come out congruent.
    """

    dim: int
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a schedule needs at least one stage")
        eps = [s.eps for s in self.stages]
        if any(nxt >= prev for nxt, prev in zip(eps[1:], eps)):
            raise ValueError("eps must be strictly decreasing")
        for s in self.stages:
            size = (2 * s.folner_index + 1) ** self.dim
            if s.delta * size >= 1 or block_measure_gap_bound(s.delta, size) >= s.eps:
                raise ValueError(
                    f"stage {s.index}: delta {s.delta} too large for eps {s.eps}"
                )
        sides = [s.tile_side for s in self.stages]
        for prev, nxt in zip(sides, sides[1:]):
            if nxt % prev != 0:
                raise ValueError("tile sides must coarsen by integer multiples")

    @property
    def eps_total(self) -> Fraction:
        return sum((s.eps for s in self.stages), Fraction(0))

    @classmethod
    def geometric(
        cls,
        dim: int,
        eps1: Fraction,
        depths: Sequence[int],
        folner_indices: Sequence[int],
        tile_sides: Sequence[int],
    ) -> StageSchedule:
        """eps_t = eps1 * 2^(1-t); delta_t = min(eps_t, 1) / (3 |F_{n_t}|),
        which always satisfies the feasibility relation."""
        if not len(depths) == len(folner_indices) == len(tile_sides):
            raise ValueError("per-stage parameter lists must have equal length")
        eps1 = Fraction(eps1)
        stages = []
        for t, (k, n, side) in enumerate(
            zip(depths, folner_indices, tile_sides), start=1
        ):
            eps = eps1 * Fraction(1, 2 ** (t - 1))
            size = (2 * n + 1) ** dim
            delta = min(eps, Fraction(1)) / (3 * size)
            stages.append(
                Stage(
                    index=t,
                    eps=eps,
                    delta=delta,
                    depth=k,
                    folner_index=n,
                    tile_side=side,
                )
            )
        return cls(dim, tuple(stages))


@dataclass(frozen=True)
class TileRecord:
    center: Point
    shape_index: int
    distance_lower: Fraction
    replaced: bool


@dataclass(frozen=True)
class ChangeRecord:
    """Enough to undo one tile replacement: both blocks are re-based to the
    tile's shape, so applying ``before`` at the center restores the input."""

    center: Point
    shape_index: int
    before: Block
    after: Block


@dataclass(frozen=True)
class StageReport:
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
    window_distance_before: Fraction | None = None
    window_distance_after: Fraction | None = None
    concat_deviation: Fraction | None = None
    concat_bound: Fraction | None = None


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


def _tile_distances(
    config: Block,
    tiling: Quasitiling,
    target: ConvexTarget,
    families: Sequence[BlockFamily],
    depth: int,
) -> list[tuple[Point, int, Block, Fraction]]:
    """(center, shape index, re-based tile block, hull distance lower bound)
    for every tile, ordered by center; distances are cached per distinct
    tile content."""
    cache: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    out = []
    for c, i, _cells in tiling.tiles():
        sub = subblock_at(config, tiling.shapes[i], c, depth)
        if sub is None:
            raise ValueError(f"tile at {c} escapes the configuration")
        key = (i, sub.symbols)
        lower = cache.get(key)
        if lower is None:
            lower = dist_to_hull(sub, target, families).value
            cache[key] = lower
        out.append((c, i, sub, lower))
    return out


def far_mass(
    config: Block,
    tiling: Quasitiling,
    target: ConvexTarget,
    delta: Fraction,
    families: Sequence[BlockFamily],
    depth: int | None = None,
) -> Fraction:
    """Fraction of window cells covered by tiles whose block is certified
    farther than delta from the target hull."""
    delta = Fraction(delta)
    k = target.depth if depth is None else depth
    total = 0
    for _, i, _, lower in _tile_distances(config, tiling, target, families, k):
        if lower > delta:
            total += len(tiling.shapes[i])
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

    # Tiles are disjoint and writes touch only replaced tiles, so a kept tile
    # keeps its distance (at most delta) and a replaced one reads back as
    # exactly its representative: the far mass after the stage needs only
    # one solve per representative.
    rep_far: dict[Shape, bool] = {}
    tile_records = []
    changes = []
    far_cells = 0
    far_cells_after = 0
    for c, i, sub, lower in _tile_distances(config, tiling, target, families, k):
        far = lower > delta
        tile_records.append(
            TileRecord(center=c, shape_index=i, distance_lower=lower, replaced=far)
        )
        if not far:
            continue
        shape = tiling.shapes[i]
        if shape not in rep_far:
            back = Block(shape, k, config.sizes[:k], reps[shape].symbols)
            rep_far[shape] = dist_to_hull(back, target, families).value > delta
        far_cells += len(shape)
        if rep_far[shape]:
            far_cells_after += len(shape)
        changes.append(
            ChangeRecord(center=c, shape_index=i, before=sub, after=reps[shape])
        )
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
    """Replay (or with undo=True, revert) a stage's change log."""
    symbols = list(config.symbols)
    for ch in changes:
        source = ch.before if undo else ch.after
        runs = _runs_at(config.shape, source.shape, source.depth, ch.center)
        if runs is None or source.depth > config.depth:
            raise ValueError(f"change at {ch.center} escapes the configuration")
        _write(symbols, runs, source.symbols)
    return Block(config.shape, config.depth, config.sizes, tuple(symbols))


RepSource = Callable[[Shape, int], Sequence[Block]]


def corpus_rep_source(corpus: Corpus, limit: int = 64) -> RepSource:
    """Representative candidates harvested from a corpus, scan order."""

    def source(shape: Shape, depth: int) -> Sequence[Block]:
        out = []
        for sub in corpus_subblocks(corpus, shape, depth):
            out.append(sub)
            if len(out) >= limit:
                break
        return out

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
    support = measure.support()
    cumulative = list(accumulate(float(m) for _, m in measure.items()))
    placed = greedy_tile(shape, [measure.base], Fraction(1)).tiling
    n_shape = len(shape)
    symbols: list[int | None] = [None] * (n_shape * depth)
    rows = min(depth, measure.depth)
    for c in sorted(placed.centers[0]):
        runs = _runs_at(shape, measure.base, rows, c)
        _write(symbols, runs, support[_draw(rng, cumulative)].symbols)

    row_cumulative: list[list[float]] = []
    for r in range(1, depth + 1):
        if r <= measure.depth:
            acc = [Fraction(0)] * full_sizes[r - 1]
            for full, mass in measure.items():
                for v in full.row(r):
                    acc[v] += mass
            total = sum(acc)
            row_cumulative.append(list(accumulate(float(a / total) for a in acc)))
        else:
            n = full_sizes[r - 1]
            row_cumulative.append(list(accumulate([1.0 / n] * n)))

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
    measure = target.vertices[vertex]

    def source(shape: Shape, depth: int) -> Sequence[Block]:
        return [
            sample_from_measure(measure, shape, depth, seed + 104729 * i, sizes)
            for i in range(count)
        ]

    return source


@dataclass(frozen=True)
class RunResult:
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
        # Dropping the previous tiling here frees its cached tiles.
        previous_tiling = tiling
        candidates = rep_source(box, st.depth)
        rep, _rep_dist = select_representative(box, target, candidates, families)
        out, rep_report = stage_transform(
            current, tiling, target, st.delta, {box: rep}, families
        )
        wd_after = dist_to_hull(block_measure(out, target.depth), target, families).value
        dev, bound = _concatenation_check(out, tiling)
        reports.append(
            replace(
                rep_report,
                stage=st.index,
                eps=st.eps,
                window_distance_before=wd_before,
                window_distance_after=wd_after,
                concat_deviation=dev,
                concat_bound=bound,
            )
        )
        current, wd_before = out, wd_after
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
    # counts summed over its tiles, each tile read once from the output and
    # its level-1 patterns read at the shape's anchors.
    weighted: list[tuple[Fraction, Counter]] = []
    keys = set(host_table)
    for shape, centers in zip(tiling.shapes, tiling.centers):
        reads = [_runs_at(shape, base, level, g) for g in embedding_anchors(shape, base)]
        tiles = [_read(config.symbols, _runs_at(config.shape, shape, level, c)) for c in centers]
        counts = Counter(_read(tile, read) for tile in tiles for read in reads)
        keys |= counts.keys()
        if reads:
            weighted.append((Fraction(len(shape), len(reads) * total_cells), counts))
    dev = Fraction(0)
    for key in keys:
        avg = sum((w * counts[key] for w, counts in weighted), Fraction(0))
        dev = max(dev, abs(host_table.get(key, Fraction(0)) - avg))
    if deficiency >= 1 or deficiency * len(base) >= 1:
        return dev, None
    return dev, tiling_average_gap_bound(deficiency, len(base))
