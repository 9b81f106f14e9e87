"""Static quasitilings of finite windows: representation, verification,
greedy construction and the symbolic encoding of center sets."""

from __future__ import annotations

from fractions import Fraction
from itertools import product as cartesian
from typing import Sequence

from .frequency import _anchor_ranges, embedding_anchors
from .group import Point, Shape, _Record, _cached, folner_box, invariance_ratio
from .symbolic import Block, _layout


class Quasitiling(_Record):
    """Tiles are translates shape[i] + c for c in centers[i], inside a window."""

    __slots__ = ("window", "shapes", "centers", "_grid")
    window: Shape
    shapes: tuple[Shape, ...]
    centers: tuple[frozenset[Point], ...]

    def __init__(
        self, window: Shape, shapes: tuple[Shape, ...], centers: tuple[frozenset[Point], ...]
    ) -> None:
        if len(shapes) != len(centers):
            raise ValueError("one center set per shape is required")
        for s in shapes:
            if s.dim != window.dim:
                raise ValueError("shape dimension differs from the window")
            if not s:
                raise ValueError("empty tile shape")
        self._set(window, shapes, centers)

    def tiles(self) -> list[tuple[Point, int]]:
        """All tiles as (center, shape index) pairs, ordered by center then
        index; tile (c, i) covers shapes[i] + c."""
        return sorted((c, i) for i, cents in enumerate(self.centers) for c in cents)

    def tile_count(self) -> int:
        return sum(len(c) for c in self.centers)

    @_cached
    def grid(self) -> tuple[range, ...] | None:
        """The greedy grid (see the function ``_grid``) when the centers are
        exactly its product, else None; checked once."""
        grid = _grid(self.window, self.shapes)
        return grid if grid is not None and self.centers[0] == set(cartesian(*grid)) else None


class TilingReport(_Record):
    __slots__ = ("disjoint", "covered_fraction", "invariance_ratios")
    disjoint: bool
    covered_fraction: Fraction
    invariance_ratios: tuple[Fraction, ...]


def _tile_runs(tiling: Quasitiling, c: Point, i: int) -> list[tuple[int, int]]:
    """Window positions of tile (c, i) as (start, stop) slices; raises if
    the tile escapes the window."""
    layout = _layout(tiling.window, tiling.shapes[i], 1)
    at = layout.at(c)
    if at is None:
        raise ValueError(f"tile {i} at {c} escapes the window")
    return layout.runs(at)


def _grid(window: Shape, shapes: Sequence[Shape]) -> tuple[range, ...] | None:
    """Per axis, the center coordinates that greedy placement of one box on
    an empty box window gives: its anchors, stepped by its sides.  None for
    anything else."""
    if len(shapes) != 1 or not (window.is_box() and shapes[0].is_box()):
        return None
    lo, hi = shapes[0].bounds()
    return tuple(r[:: b - a + 1] for r, a, b in zip(_anchor_ranges(window, shapes[0]), lo, hi))


def verify(tiling: Quasitiling) -> TilingReport:
    """Check disjointness and coverage, and rate each shape's invariance
    against F_1 = ``folner_box(1, dim)``.

    A tiling on the greedy grid (``Quasitiling.grid``) is checked by
    arithmetic, any other by a scan of its tiles' cells.  Raises if a tile
    escapes the window.
    """
    window = tiling.window
    if not window:
        raise ValueError("empty window")
    disjoint = True
    if tiling.grid is not None:
        # Tiles a side apart on every axis are disjoint.
        covered = tiling.tile_count() * len(tiling.shapes[0])
    else:
        seen = bytearray(len(window))  # one byte per cell, in symbol order
        for c, i in tiling.tiles():
            runs = _tile_runs(tiling, c, i)
            if any(seen.find(1, a, b) >= 0 for a, b in runs):
                disjoint = False
            for a, b in runs:
                seen[a:b] = b"\x01" * (b - a)
        covered = seen.count(1)
    folner = folner_box(1, window.dim)
    ratios = tuple(invariance_ratio(s, folner) for s in tiling.shapes)
    return TilingReport(disjoint, Fraction(covered, len(window)), ratios)


def congruent(tiling: Quasitiling, previous: Quasitiling) -> bool:
    """True when every tile of ``tiling`` either contains or misses every
    tile of ``previous``.  Not symmetric in general.  Raises if a tile
    escapes the window.

    Two greedy grids whose boxes share a lower corner, each side of
    ``tiling``'s a multiple m of ``previous``'s, are congruent: per axis
    both start at the same anchor, so fine interval i lies inside coarse
    interval i // m, or past the last one, missing them all.  Every other
    pair is compared by a scan of its tiles' cells.
    """
    if tiling.window != previous.window:
        raise ValueError("congruence requires a common window")
    if tiling.grid is not None and previous.grid is not None:
        (lo, hi), (flo, fhi) = tiling.shapes[0].bounds(), previous.shapes[0].bounds()
        if lo == flo and all((b - a + 1) % (d - a + 1) == 0 for a, b, d in zip(lo, hi, fhi)):
            return True
    # A fine tile passes when every coarse tile owning one of its cells owns
    # all of them: the union of its cells' owner sets equals their
    # intersection.
    owners: dict[int, set[int]] = {}
    for n, (c, i) in enumerate(tiling.tiles()):
        for a, b in _tile_runs(tiling, c, i):
            for q in range(a, b):
                owners.setdefault(q, set()).add(n)
    for c, i in previous.tiles():
        runs = _tile_runs(previous, c, i)
        sets = [owners.get(q, set()) for a, b in runs for q in range(a, b)]
        if set().union(*sets) != sets[0].intersection(*sets[1:]):
            return False
    return True


class GreedyTiling(_Record):
    __slots__ = ("tiling", "covered_fraction", "reached_target")
    tiling: Quasitiling
    covered_fraction: Fraction
    reached_target: bool


def greedy_tile(window: Shape, shapes: Sequence[Shape], eps: Fraction) -> GreedyTiling:
    """Deterministic greedy quasitiling of a finite window.

    Translates of the largest shape are placed at its embedding anchors
    (centers in the window at which it fits) in lexicographic order
    wherever they miss the tiles placed so far, then the next shape fills
    remaining space, and so on.  One box on a box window gives a grid,
    which is placed by arithmetic; anything else is placed by a scan.  The
    achieved covering fraction is reported against the 1 - eps target,
    with eps in [0, 1]; falling short is not an error.
    """
    if not shapes:
        raise ValueError("at least one shape is required")
    if not window:
        raise ValueError("empty window")
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    for s in shapes:
        if s.dim != window.dim or not s:
            raise ValueError("shapes must be non-empty and match the window dimension")
    grid = _grid(window, shapes)
    if grid is not None:
        centers = [set(cartesian(*grid))]
    else:
        # Larger shapes first, then by points.
        order = sorted(
            range(len(shapes)), key=lambda i: (-len(shapes[i]), shapes[i].sorted_points)
        )
        occupied = bytearray(len(window))  # one byte per cell, in symbol order
        centers = [set() for _ in shapes]
        for idx in order:
            shape = shapes[idx]
            layout, ones = _layout(window, shape, 1), b"\x01" * len(shape)
            for c in embedding_anchors(window, shape):
                at = layout.at(c)
                if any(occupied.find(1, a, b) >= 0 for a, b in layout.runs(at)):
                    continue
                layout.write(occupied, at, ones)
                centers[idx].add(c)
    tiling = Quasitiling(
        window=window,
        shapes=tuple(shapes),
        centers=tuple(frozenset(c) for c in centers),
    )
    # Greedy tiles are disjoint.
    covered = Fraction(sum(len(c) * len(s) for c, s in zip(centers, shapes)), len(window))
    return GreedyTiling(tiling, covered, covered >= 1 - Fraction(eps))


def encode_symbolic(tiling: Quasitiling) -> Block:
    """One-row block over the window: value i at centers of shape i
    (1-based), 0 elsewhere.  Every center must be a point of the window."""
    labels: dict[Point, int] = {}
    for i, cents in enumerate(tiling.centers):
        for c in cents:
            if c not in tiling.window:
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
    for p, v in zip(block.shape.sorted_points, block.row(1)):
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
