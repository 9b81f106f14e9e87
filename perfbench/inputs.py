"""Seeded input files for the benchmark workloads.

Everything here is written with the standard library only, straight from
the documented file formats (canonical JSON: sorted keys, indent 1,
trailing newline; rationals as "p/q"), so the program under test sees only
the generated files and never helps to build its own inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

# census: two Bernoulli blocks over the alphabet stack (2, 2).
CENSUS_1D_CELLS = 20001
CENSUS_2D_SIDE = 96
# construct: one 1-D window of 3^8 cells, coarsened by factors of 3.
CONSTRUCT_CELLS = 6561
CONSTRUCT_SIDES = [3, 9, 27, 81, 243]
CONSTRUCT_REP_SEED = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj), encoding="utf-8")


def box(lo: list[int], hi: list[int]) -> list[tuple[int, ...]]:
    """Points of an integer box in lexicographic order (the library's
    row-major order)."""
    return list(product(*(range(a, b + 1) for a, b in zip(lo, hi))))


def bernoulli_rows(rng: random.Random, cells: int, probs: list[Fraction]) -> list[list[int]]:
    """One row per alphabet row; symbol 1 with the row's probability."""
    return [[1 if rng.random() < float(p) else 0 for _ in range(cells)] for p in probs]


def corpus_obj(dim: int, hi: list[int], rows: list[list[int]]) -> dict:
    """A one-block corpus on the box [0, hi] over binary rows."""
    return {
        "kind": "corpus",
        "dim": dim,
        "alphabet": [2] * len(rows),
        "blocks": [{"min": [0] * dim, "max": hi, "depth": len(rows), "rows": rows}],
    }


def window_counts(dim: int, side: int, rows: list[list[int]], level: int) -> dict[tuple[int, ...], int]:
    """Occurrence counts of every pattern on [-level, level]^dim x
    rows[1..level] inside a block on [0, side-1]^dim, keyed like
    ``Block.symbols`` (row-major over the lexicographically sorted base)."""
    base = box([-level] * dim, [level] * dim)
    offsets = [sum(c * side ** (dim - 1 - a) for a, c in enumerate(p)) for p in base]
    row_cells = [offsets] * level
    counts: dict[tuple[int, ...], int] = {}
    for g in box([level] * dim, [side - 1 - level] * dim):
        at = sum(c * side ** (dim - 1 - a) for a, c in enumerate(g))
        key = tuple(rows[r][at + o] for r, offs in enumerate(row_cells) for o in offs)
        counts[key] = counts.get(key, 0) + 1
    return counts


def empirical_measure(dim: int, side: int, rows: list[list[int]], depth: int) -> dict:
    """The level-``depth`` empirical measure of a block on [0, side-1]^dim,
    in the measure file format on the base [-depth, depth]^dim."""
    counts = window_counts(dim, side, rows, depth)
    total = sum(counts.values())
    n = (2 * depth + 1) ** dim
    return {
        "kind": "measure",
        "dim": dim,
        "alphabet": [2] * depth,
        "depth": depth,
        "base_min": [-depth] * dim,
        "base_max": [depth] * dim,
        "masses": [
            {
                "pattern": [list(key[r * n : (r + 1) * n]) for r in range(depth)],
                "mass": str(Fraction(c, total)),
            }
            for key, c in sorted(counts.items())
        ],
    }


def vertex_files(rng: random.Random, workdir: Path, dim: int, side: int) -> list[str]:
    """Three depth-2 target vertices: empirical measures of small Bernoulli
    blocks with first-row densities 1/4, 1/2 and 3/4."""
    names = []
    for i, p in enumerate([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]):
        rows = bernoulli_rows(rng, side**dim, [p, Fraction(1, 2)])
        name = f"v{i}.json"
        write_json(workdir / name, empirical_measure(dim, side, rows, 2))
        names.append(name)
    return names


def census(seed: int, workdir: Path) -> list[Path]:
    """Config files of the census workload: a 1-D and a 2-D block, each with
    three depth-2 target vertices."""
    rng = random.Random(f"census:{seed}")
    half = [Fraction(1, 2), Fraction(1, 2)]
    configs = []
    for dim, side, vside in [(1, CENSUS_1D_CELLS, 2001), (2, CENSUS_2D_SIDE, 24)]:
        d = workdir / f"d{dim}"
        hi = [side - 1] * dim
        rows = bernoulli_rows(rng, side**dim, half)
        write_json(d / "corpus.json", corpus_obj(dim, hi, rows))
        vertices = vertex_files(rng, d, dim, vside)
        cfg = {
            "dim": dim,
            "alphabet": [2, 2],
            "window": {"min": [0] * dim, "max": hi},
            "corpus": ["corpus.json"],
            "target_vertices": vertices,
            "seed": seed,
        }
        write_json(d / "config.json", cfg)
        configs.append(d / "config.json")
    return configs


def bernoulli_measure(p: Fraction) -> dict:
    """The exact Bernoulli(p) product measure on [-1, 1] x rows[1..1], in
    the measure file format."""
    masses = []
    for key in product((0, 1), repeat=3):
        mass = Fraction(1)
        for x in key:
            mass *= p if x else 1 - p
        masses.append({"pattern": [list(key)], "mass": str(mass)})
    return {
        "kind": "measure",
        "dim": 1,
        "alphabet": [2],
        "depth": 1,
        "base_min": [-1],
        "base_max": [1],
        "masses": masses,
    }


def construct(seed: int, workdir: Path) -> list[Path]:
    """Config file of the staged replacement run on one 1-D window.

    Only the window's content comes from the benchmark seed.  The vertices
    are exact and the representatives' sampling seed is fixed, so that
    every benchmark seed replaces tiles at every stage (about 1,640, 240,
    120, 25 and 7 tiles).
    """
    rng = random.Random(f"construct:{seed}")
    hi = [CONSTRUCT_CELLS - 1]
    rows = bernoulli_rows(rng, CONSTRUCT_CELLS, [Fraction(1, 2)])
    write_json(workdir / "corpus.json", corpus_obj(1, hi, rows))
    vertices = []
    for i, p in enumerate([Fraction(1, 20), Fraction(1, 2), Fraction(19, 20)]):
        write_json(workdir / f"v{i}.json", bernoulli_measure(p))
        vertices.append(f"v{i}.json")
    stages = len(CONSTRUCT_SIDES)
    cfg = {
        "dim": 1,
        "alphabet": [2],
        "window": {"min": [0], "max": hi},
        "corpus": ["corpus.json"],
        "target_vertices": vertices,
        "schedule": {
            "eps1": "2/5",
            "depths": [1] * stages,
            "folner_indices": [1] * stages,
            "tile_sides": CONSTRUCT_SIDES,
        },
        "representatives": {"source": "vertex", "vertex": 0, "count": 4},
        "seed": CONSTRUCT_REP_SEED,
    }
    write_json(workdir / "config.json", cfg)
    return [workdir / "config.json"]
