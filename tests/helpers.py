"""Block builders and reference readers shared by the tests.

Words spell one-row blocks in letters, 'a' -> 0, 'b' -> 1, ...; the
library itself stores small integers only.
"""

import hashlib
import io
import json
import random
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from math import lcm
from pathlib import Path
from operator import mul
from typing import Callable, Iterator, Mapping, Sequence

import pytest

from blockdyn import cli, symbolic
from blockdyn.group import Point, Shape, folner_box, point_add
from blockdyn.measures import ConvexTarget, CylinderMeasure, Term, dist_to_hull
from blockdyn.quasitiling import Quasitiling
from blockdyn.symbolic import (
    AlphabetStack, Block, BlockFamily, decode_pattern, encode_pattern, subblock_at
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def block_from_word(word: str, start: int = 0, sizes: Sequence[int] = (2,)) -> Block:
    """One-row block on [start, start + len(word) - 1] spelled by ``word``."""
    symbols = tuple(_LETTERS.index(ch) for ch in word)
    window = Shape.interval(start, start + len(word) - 1)
    return Block(window, 1, tuple(sizes), symbols)


def constant_block(shape: Shape, depth: int, sizes: Sequence[int], value: int = 0) -> Block:
    """The block on shape x rows[1..depth] with every entry ``value``."""
    return Block(shape, depth, tuple(sizes), (value,) * (len(shape) * depth))


def enumerate_full_family(
    stack: AlphabetStack, k: int, dim: int, cap: int = 10**6
) -> BlockFamily:
    """Exhaustive family of all patterns on F_k x rows[1..k]: every code
    below the number of patterns.

    Refuses to enumerate more than ``cap`` candidates.
    """
    if not 1 <= k <= stack.depth:
        raise ValueError(f"level {k} outside stack of depth {stack.depth}")
    base = folner_box(k, dim)
    total = 1
    for j in range(k):
        total *= stack.sizes[j] ** len(base)
        if total > cap:
            raise ValueError(f"exhaustive enumeration would exceed {cap} candidates")
    return BlockFamily(k, base, stack.sizes[:k], range(total))


def far_mass(
    config: Block,
    tiling: Quasitiling,
    target: ConvexTarget,
    delta: Fraction,
    families: Sequence[BlockFamily],
) -> Fraction:
    """Fraction of window cells covered by tiles whose block is certified
    farther than delta from the target hull: one solve per tile, no cache,
    the oracle that stage reports are checked against."""
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


def write_seeded_corpus(
    tmp_path: Path, dim: int, side: int, sizes: list[int], rng: random.Random, **config: object
) -> list[list[int]]:
    """Write ``corpus.json``, one block over ``sizes`` on [0, side - 1]^dim
    with entries drawn uniformly from ``rng``, and ``config.json`` on that
    window with the extra ``config`` fields; return the block's rows."""
    rows = [[rng.randrange(size) for _ in range(side**dim)] for size in sizes]
    corpus = {
        "kind": "corpus", "dim": dim, "alphabet": sizes,
        "blocks": [{"min": [0] * dim, "max": [side - 1] * dim, "depth": len(sizes), "rows": rows}],
    }
    (tmp_path / "corpus.json").write_text(json.dumps(corpus))
    cfg = {
        "dim": dim, "alphabet": sizes, "corpus": ["corpus.json"],
        "window": {"min": [0] * dim, "max": [side - 1] * dim}, **config,
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return rows


def run_digests(out: Path, commands: Sequence[list[str]]) -> dict[str, str]:
    """SHA-256 of every file in the one run directory that ``commands``, each
    a ``blockdyn`` command line without ``--out``, leave under ``out``, and of
    the lines they print, with ``out`` spelled "runs"."""
    printed = []
    for argv in commands:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(["--out", str(out)] + argv) == 0
        printed.append(buf.getvalue())
    (rundir,) = out.iterdir()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(rundir.iterdir())}
    text = "".join(printed).replace(str(out), "runs")
    digests["stdout"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def block_to_word(block: Block, row: int = 1) -> str:
    return "".join(_LETTERS[s] for s in block.row(row))


def block_from_function(
    shape: Shape, depth: int, sizes: Sequence[int], fn: Callable[[Point, int], int]
) -> Block:
    """Block whose entry at cell (p, row), row in 1..depth, is fn(p, row)."""
    pts = shape.sorted_points
    symbols = tuple(fn(p, r) for r in range(1, depth + 1) for p in pts)
    return Block(shape, depth, tuple(sizes), symbols)


@contextmanager
def switch_layouts(box: Callable | None = None, cells: Callable | None = None) -> Iterator[None]:
    """Within the block, ``symbolic._layout`` builds the layout of every pair
    of boxes with ``box`` and of every other pair with ``cells``, where
    given: ``switch_layouts(box=symbolic._CellLayout)`` reads boxes point by
    point, and a stand-in that raises shows that no such layout is asked
    for.  The layout cache is emptied on entry and on exit."""
    with pytest.MonkeyPatch.context() as mp:
        if box is not None:
            mp.setattr(symbolic, "_BoxLayout", box)
        if cells is not None:
            mp.setattr(symbolic, "_CellLayout", cells)
        symbolic._layout.cache_clear()
        try:
            yield
        finally:
            symbolic._layout.cache_clear()


def no_layout(*args: object) -> None:
    """A layout class for ``switch_layouts`` that fails when called."""
    raise AssertionError("layout built")


def code_of(pattern: Block) -> int:
    """The key of ``pattern`` in a frequency table, marginal or family."""
    return encode_pattern(pattern.symbols, pattern.sizes, len(pattern.shape))


def decoded(table: Mapping[int, object], sizes: Sequence[int], cells: int) -> dict:
    """A table keyed by the codes of patterns on ``cells`` cells x rows with
    alphabet ``sizes``, keyed by their symbol tuples instead, in key order."""
    return {decode_pattern(code, sizes, cells): v for code, v in table.items()}


def cylinder_mass(measure: CylinderMeasure, pattern: Block) -> Fraction:
    """The mass of the cylinder of ``pattern``, a pattern on a subset of the
    measure's base at a level up to its depth: one entry of a marginal."""
    marg = measure.marginal(pattern.shape, pattern.depth)
    return marg.get(code_of(pattern), Fraction(0))


def oracle_read_corpus(path: Path) -> tuple[tuple[int, ...], list[tuple]]:
    """A valid corpus file read by ``json`` alone: its alphabet, and per block
    its corners, depth and row-major entries."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    blocks = [
        (tuple(b["min"]), tuple(b["max"]), b["depth"], tuple(v for row in b["rows"] for v in row))
        for b in obj["blocks"]
    ]
    return tuple(obj["alphabet"]), blocks


def oracle_read_measure(path: Path) -> tuple[int, tuple, tuple, tuple[int, ...], dict]:
    """A valid measure file read by ``json``, ``Fraction(str)`` and a
    per-digit mixed-radix encoding: depth, base corners, alphabet and the
    non-zero masses by pattern code."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    masses = {}
    for e in obj["masses"]:
        code = 0
        for row, size in zip(e["pattern"], obj["alphabet"]):
            for v in row:
                code = code * size + v
        if Fraction(e["mass"]):
            masses[code] = Fraction(e["mass"])
    corners = tuple(obj["base_min"]), tuple(obj["base_max"])
    return obj["depth"], *corners, tuple(obj["alphabet"]), masses


def tile_copy_counts(
    config: Block, tiling: Quasitiling, base: Shape, level: int
) -> list[tuple[int, dict[tuple[int, ...], int]]]:
    """Per shape, the anchors g with base + g inside the shape, counted (0
    for a shape with no tiles), and the patterns on base x rows[1..level]
    summed over its tiles: each tile copied out of ``config`` with
    ``subblock_at`` and read at every anchor."""
    out = []
    for shape, centers in zip(tiling.shapes, tiling.centers):
        anchors = [
            g for g in shape.sorted_points
            if all(point_add(p, g) in shape.points for p in base.points)
        ]
        counts: dict[tuple[int, ...], int] = {}
        for c in centers:
            tile = subblock_at(config, shape, c, level)
            for g in anchors:
                key = subblock_at(tile, base, g, level).symbols
                counts[key] = counts.get(key, 0) + 1
        out.append((len(anchors) if centers else 0, counts))
    return out


# The Fraction simplex whose pivots measures._hull_lp takes in integers: the
# reference that tests compare its weights and value against.
def fraction_hull_lp(terms: Sequence[Term], m: int, den: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Optimal weights (the row multipliers) and optimal value of the dual LP

        max  y.x - t   s.t.  (V^T y)_j <= t for each vertex j,  -c_i <= y_i <= c_i

    on the numerators x and V over ``den`` (so the value is ``den`` times
    that of the LP on the fractions, at the same weights), by a
    bounded-variable primal simplex in exact arithmetic on an m-row basis,
    which the free variable t never leaves.  Reduced costs are priced
    once per basis change; the largest |reduced cost| enters, except right
    after a degenerate pivot, where Bland's rule picks.  A cycle would be
    degenerate pivots only, all by Bland's rule, so the method terminates.
    """
    n = len(terms)
    t_var = n + m  # variables: y_0..y_{n-1}, the row slacks, then t
    cols = [vv for _, _, vv in terms]
    cols += [[int(i == j) for i in range(m)] for j in range(m)] + [[-1] * m]
    cost = [xv for _, xv, _ in terms] + [0] * m + [-1]
    upper: list[Fraction | None] = [c for c, _, _ in terms] + [None] * (m + 1)
    lower = [-c for c, _, _ in terms] + [Fraction(0)] * m + [None]
    # Start at y_i = c_i sign(x_i - mean vertex value) and t = max_j (V^T y)_j,
    # with t basic in the row of that maximum and the other slacks basic.
    at_upper = [m * xv >= sum(vv) for _, xv, vv in terms] + [False] * (m + 1)
    value = [upper[k] if at_upper[k] else lower[k] for k in range(n)]
    g = [sum(y * vv[j] for y, vv in zip(value, cols)) for j in range(m)]
    top = max(range(m), key=g.__getitem__)
    value += [g[top] - gj for gj in g] + [g[top]]
    basis = [t_var if j == top else n + j for j in range(m)]
    binv = [[Fraction(-1 if i == top else int(i == j != top)) for i in range(m)]
            for j in range(m)]
    reduced: list[int] = []
    bland = False
    while True:
        if not reduced:
            pi = [sum(cost[k] * row[j] for k, row in zip(basis, binv)) for j in range(m)]
            q = lcm(*(p.denominator for p in pi))
            ps = [int(p * q) for p in pi]
            # q * (cost_k - pi . column_k): the reduced costs, scaled; a slack's
            # is scaled by den too, to rank it as in the LP on the fractions
            reduced = [xv * q - sum(map(mul, ps, vv)) for _, xv, vv in terms]
            reduced += [-p * den for p in ps]
            basic = set(basis)
        eligible = [k for k, d in enumerate(reduced)
                    if k not in basic and (d < 0 if at_upper[k] else d > 0)]
        if not eligible:
            break
        k = eligible[0] if bland else max(eligible, key=lambda e: abs(reduced[e]))
        sigma = -1 if at_upper[k] else 1
        alpha = [sum(map(mul, row, cols[k])) for row in binv]
        # Ratio test: the step that first brings the entering variable (a
        # bound flip, ranked -1) or a basic variable to a bound; ties go to
        # the flip, then to the lowest variable index.
        best = None if upper[k] is None else (upper[k] - lower[k], -1)
        for r, a in enumerate(alpha):
            limit = lower[basis[r]] if sigma * a > 0 else upper[basis[r]]
            if a and limit is not None:
                step = ((value[basis[r]] - limit) / (sigma * a), basis[r])
                best = step if best is None else min(best, step)
        if best is None:
            raise RuntimeError("hull LP is unbounded")
        theta, out = best
        for r, a in enumerate(alpha):
            value[basis[r]] -= sigma * theta * a
        value[k] += sigma * theta
        if out < 0:
            at_upper[k] = not at_upper[k]
            bland = False
            continue
        at_upper[out] = value[out] == upper[out]
        leave = basis.index(out)
        basis[leave] = k
        prow = [b / alpha[leave] for b in binv[leave]]
        binv = [
            prow if r == leave else [b - a * p for b, p in zip(row, prow)]
            for r, (row, a) in enumerate(zip(binv, alpha))
        ]
        bland = theta == 0
        reduced = []
    return tuple(pi), sum(map(mul, cost, value))
