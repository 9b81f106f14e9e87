"""Static quasitilings of finite windows: representation, verification,
greedy construction and the symbolic encoding of center sets."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .frequency import embedding_anchors
from .group import Point, Shape, invariance_ratio, point_add
from .symbolic import Block


@dataclass(frozen=True)
class Quasitiling:
    """Tiles are translates shape[i] + c for c in centers[i], inside a window."""

    window: Shape
    shapes: tuple[Shape, ...]
    centers: tuple[frozenset[Point], ...]

    def __post_init__(self) -> None:
        if len(self.shapes) != len(self.centers):
            raise ValueError("one center set per shape is required")
        for s in self.shapes:
            if s.dim != self.window.dim:
                raise ValueError("shape dimension differs from the window")
            if not s.points:
                raise ValueError("empty tile shape")

    def tiles(self) -> tuple[tuple[Point, int, frozenset[Point]], ...]:
        """All tiles as (center, shape index, cells), ordered by center then
        index.  Built once per tiling; the tuple is immutable and shared."""
        return self._tiles

    @cached_property
    def _tiles(self) -> tuple[tuple[Point, int, frozenset[Point]], ...]:
        # Cells reuse the window's point objects, so the cache held for the
        # tiling's lifetime adds no second copy of the covered points.
        own = {p: p for p in self.window.points}
        out = []
        for i, (shape, cents) in enumerate(zip(self.shapes, self.centers)):
            for c in cents:
                moved = (point_add(p, c) for p in shape.points)
                cells = frozenset([own.get(q, q) for q in moved])
                out.append((c, i, cells))
        out.sort(key=lambda t: (t[0], t[1]))
        return tuple(out)

    def tile_count(self) -> int:
        return sum(len(c) for c in self.centers)


@dataclass(frozen=True)
class TilingReport:
    disjoint: bool
    covered_cells: int
    covered_fraction: Fraction
    unique_representation: bool
    invariance_ratios: tuple[Fraction, ...] | None


def verify(tiling: Quasitiling, folner: Shape | None = None) -> TilingReport:
    """Check disjointness and coverage; optionally rate each shape's
    invariance against a supplied Folner shape.

    Raises if a tile escapes the window.
    """
    window = tiling.window
    if not window.points:
        raise ValueError("empty window")
    seen: set[Point] = set()
    disjoint = True
    tile_sets: set[frozenset[Point]] = set()
    unique = True
    for c, i, cells in tiling.tiles():
        if not cells <= window.points:
            raise ValueError(f"tile {i} at {c} escapes the window")
        if seen & cells:
            disjoint = False
        seen |= cells
        if cells in tile_sets:
            unique = False
        tile_sets.add(cells)
    ratios = None
    if folner is not None:
        ratios = tuple(invariance_ratio(s, folner) for s in tiling.shapes)
    return TilingReport(
        disjoint=disjoint,
        covered_cells=len(seen),
        covered_fraction=Fraction(len(seen), len(window)),
        unique_representation=unique,
        invariance_ratios=ratios,
    )


def congruent(tiling: Quasitiling, previous: Quasitiling) -> bool:
    """True when every tile of ``tiling`` either contains or misses every
    tile of ``previous``.  Not symmetric in general."""
    if tiling.window != previous.window:
        raise ValueError("congruence requires a common window")
    # A fine tile passes when every coarse tile owning one of its cells owns
    # all of them: the union of its cells' owner sets equals their
    # intersection.
    owners: dict[Point, set[int]] = {}
    for n, (_, _, cells) in enumerate(tiling.tiles()):
        for q in cells:
            owners.setdefault(q, set()).add(n)
    for _, _, cells in previous.tiles():
        sets = [owners.get(q, set()) for q in cells]
        if set().union(*sets) != sets[0].intersection(*sets[1:]):
            return False
    return True


@dataclass(frozen=True)
class GreedyTiling:
    tiling: Quasitiling
    covered_fraction: Fraction
    reached_target: bool


def greedy_tile(window: Shape, shapes: Sequence[Shape], eps: Fraction) -> GreedyTiling:
    """Deterministic greedy quasitiling of a finite window.

    Translates of the largest shape are placed at its embedding anchors
    (centers in the window at which it fits) in lexicographic order
    wherever they miss the tiles placed so far, then the next shape fills
    remaining space, and so on.  The achieved covering fraction is
    reported against the 1 - eps target; falling short is not an error.
    """
    if not shapes:
        raise ValueError("at least one shape is required")
    if not window.points:
        raise ValueError("empty window")
    for s in shapes:
        if s.dim != window.dim or not s.points:
            raise ValueError("shapes must be non-empty and match the window dimension")
    order = sorted(
        range(len(shapes)),
        key=lambda i: (-len(shapes[i]), shapes[i].sorted_points),
    )
    occupied: set[Point] = set()
    centers: list[set[Point]] = [set() for _ in shapes]
    for idx in order:
        shape = shapes[idx]
        pts = shape.sorted_points
        for c in embedding_anchors(window, shape):
            if any(point_add(p, c) in occupied for p in pts):
                continue
            occupied.update(point_add(p, c) for p in pts)
            centers[idx].add(c)
    tiling = Quasitiling(
        window=window,
        shapes=tuple(shapes),
        centers=tuple(frozenset(c) for c in centers),
    )
    covered = Fraction(len(occupied), len(window))
    return GreedyTiling(
        tiling=tiling,
        covered_fraction=covered,
        reached_target=covered >= 1 - Fraction(eps),
    )


def encode_symbolic(tiling: Quasitiling) -> Block:
    """One-row block over the window: value i at centers of shape i
    (1-based), 0 elsewhere.  Every center must be a point of the window."""
    labels: dict[Point, int] = {}
    for i, cents in enumerate(tiling.centers):
        for c in cents:
            if c not in tiling.window.points:
                raise ValueError(f"center {c} lies outside the window")
            if c in labels:
                raise ValueError(f"center {c} carries two shapes")
            labels[c] = i + 1
    n = len(tiling.shapes)
    pts = tiling.window.sorted_points
    symbols = tuple(labels.get(p, 0) for p in pts)
    return Block(tiling.window, 1, (n + 1,), symbols)


def decode_symbolic(block: Block, shapes: Sequence[Shape]) -> Quasitiling:
    """Inverse of encode_symbolic for a given shape list."""
    if block.depth != 1:
        raise ValueError("a symbolic tiling is a one-row block")
    centers: list[set[Point]] = [set() for _ in shapes]
    for p in block.shape.sorted_points:
        v = block.get(p, 1)
        if v == 0:
            continue
        if v > len(shapes):
            raise ValueError(f"label {v} has no shape")
        centers[v - 1].add(p)
    return Quasitiling(
        window=block.shape,
        shapes=tuple(shapes),
        centers=tuple(frozenset(c) for c in centers),
    )
