"""Line-oriented JSON file formats and experiment configuration.

Rationals are serialized as "p/q" strings so exactness survives a round
trip; blocks live on box windows described by per-axis min/max corners
with entries row-major per row index.  All writers emit canonical JSON
(sorted keys, fixed indent) so identical data produces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import prod
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

from .construction import StageSchedule
from .group import Shape
from .measures import CylinderMeasure
from .quasitiling import Quasitiling
from .symbolic import AlphabetStack, Block, BlockFamily, Corpus


class ConfigError(Exception):
    """Malformed configuration or data file."""


T = TypeVar("T")


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def block_from_word(word: str, start: int = 0, sizes: Sequence[int] = (2,)) -> Block:
    """One-row block from a letter word: 'a' -> 0, 'b' -> 1, ...

    Human-readable letters exist only at this boundary; the library stores
    small integers.
    """
    symbols = tuple(_LETTERS.index(ch) for ch in word)
    window = Shape.interval(start, start + len(word) - 1)
    return Block(window, 1, tuple(sizes), symbols)


def block_to_word(block: Block, row: int = 1) -> str:
    return "".join(_LETTERS[s] for s in block.row(row))


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def parse_frac(s: Any) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational: {s!r}") from exc


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def write_json(path: Path, obj: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj), encoding="utf-8")


def read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"missing file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(str(h) for h in header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _box_of(block: Block) -> tuple[list[int], list[int]]:
    if not block.shape.is_box():
        raise ConfigError("file formats require box-shaped block domains")
    lo, hi = block.shape.bounds()
    return list(lo), list(hi)


def block_to_obj(block: Block) -> dict[str, Any]:
    lo, hi = _box_of(block)
    return {
        "min": lo,
        "max": hi,
        "depth": block.depth,
        "rows": [list(block.row(r)) for r in range(1, block.depth + 1)],
    }


# The most cells a box read from a file may have: about 105 times the largest
# benchmark window (20,001 cells).  A box is only its corners; the limit
# guards what its blocks allocate: a symbol tuple over all cells and rows
# and, to tile or construct, bytearrays and lists of one entry per cell.
MAX_BOX_CELLS = 2**21


def _ints(values: Any, field: str) -> tuple[int, ...]:
    """A list of JSON integers as a tuple.  This is the one type test for
    every integer in a file or config: int() would quietly take a float, a
    bool or a numeric string, so each of those is a ConfigError."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{field} must be a list of integers, got {values!r}")
    bad = set(map(type, values)) - {int}
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise ConfigError(f"{field} must be integers, got {names}")
    return tuple(values)


def _int(value: Any, field: str) -> int:
    return _ints([value], field)[0]


def _box(lo: Sequence[int], hi: Sequence[int]) -> Shape:
    """The box with corners lo and hi, checked from the corners first: a
    ConfigError for a non-integer corner or above MAX_BOX_CELLS cells."""
    lo, hi = _ints(lo, "box corners"), _ints(hi, "box corners")
    cells = prod(max(0, b - a + 1) for a, b in zip(lo, hi))
    if cells > MAX_BOX_CELLS:
        raise ConfigError(f"a box of {cells} cells exceeds the limit of {MAX_BOX_CELLS}")
    return Shape.box(lo, hi)


def _symbols(rows: Any, depth: int, cells: int) -> tuple[int, ...]:
    """The row-major entries of ``depth`` rows of exactly ``cells`` JSON
    integers each; a float, bool or string entry is a ConfigError."""
    if len(rows) != depth or any(not isinstance(r, list) or len(r) != cells for r in rows):
        raise ConfigError(f"need {depth} rows of exactly {cells} entries, one per cell")
    return _ints(tuple(chain.from_iterable(rows)), "block and measure entries")


def block_from_obj(obj: dict[str, Any], sizes: Sequence[int]) -> Block:
    try:
        depth = _int(obj["depth"], "depth")
        box = _box(obj["min"], obj["max"])
        return Block(box, depth, tuple(sizes)[:depth], _symbols(obj["rows"], depth, len(box)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed block entry: {exc}") from exc


def write_corpus(path: Path, corpus: Corpus) -> None:
    obj = {
        "kind": "corpus",
        "dim": corpus.dim,
        "alphabet": list(corpus.stack.sizes),
        "blocks": [block_to_obj(b) for b in corpus.blocks],
    }
    write_json(path, obj)


def _read_data(path: Path, kind: str, parse: Callable[[dict[str, Any]], T]) -> T:
    """Parse a data file of the given kind; a wrong kind, a missing key or a
    value of the wrong type or range is a ConfigError."""
    obj = read_json(path)
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise ConfigError(f"{path} is not a {kind} file")
    try:
        return parse(obj)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind} file {path}: {exc!r}") from exc


def read_corpus(path: Path) -> Corpus:
    return _read_data(path, "corpus", _corpus_from_obj)


def _corpus_from_obj(obj: dict[str, Any]) -> Corpus:
    stack = AlphabetStack(_ints(obj["alphabet"], "alphabet"))
    blocks = tuple(block_from_obj(b, stack.sizes) for b in obj["blocks"])
    return Corpus(stack, blocks)


def write_measure(path: Path, measure: CylinderMeasure) -> None:
    lo, hi = measure.base.bounds()
    obj = {
        "kind": "measure",
        "dim": measure.base.dim,
        "alphabet": list(measure.sizes),
        "depth": measure.depth,
        "base_min": list(lo),
        "base_max": list(hi),
        "masses": [
            {
                "pattern": [list(b.row(r)) for r in range(1, b.depth + 1)],
                "mass": frac_str(m),
            }
            for b, m in measure.items()
        ],
    }
    write_json(path, obj)


def read_measure(path: Path) -> CylinderMeasure:
    return _read_data(path, "measure", _measure_from_obj)


def _measure_from_obj(obj: dict[str, Any]) -> CylinderMeasure:
    sizes = _ints(obj["alphabet"], "alphabet")
    depth = _int(obj["depth"], "depth")
    if len(sizes) != depth:
        raise ConfigError(
            f"alphabet lists {len(sizes)} sizes but depth is {depth}: "
            "a measure needs one alphabet size per row"
        )
    base = _box(obj["base_min"], obj["base_max"])
    masses = {
        Block(base, depth, sizes, _symbols(e["pattern"], depth, len(base))): parse_frac(e["mass"])
        for e in obj["masses"]
    }
    return CylinderMeasure(depth, base, masses, sizes)


def write_tiling(path: Path, tiling: Quasitiling) -> None:
    lo, hi = tiling.window.bounds()
    obj = {
        "kind": "tiling",
        "dim": tiling.window.dim,
        "window_min": list(lo),
        "window_max": list(hi),
        "shapes": [[list(p) for p in s.sorted_points] for s in tiling.shapes],
        "centers": [sorted([list(c) for c in cs]) for cs in tiling.centers],
    }
    write_json(path, obj)


def read_tiling(path: Path) -> Quasitiling:
    return _read_data(path, "tiling", _tiling_from_obj)


def _tiling_from_obj(obj: dict[str, Any]) -> Quasitiling:
    window = _box(obj["window_min"], obj["window_max"])
    shapes = tuple(Shape.of([_ints(p, "shape points") for p in pts]) for pts in obj["shapes"])
    centers = tuple(frozenset(_ints(c, "tile centers") for c in cs) for cs in obj["centers"])
    return Quasitiling(window=window, shapes=shapes, centers=centers)


def write_family(path: Path, family: BlockFamily, sizes: Sequence[int]) -> None:
    obj = {
        "kind": "family",
        "dim": family.base.dim,
        "level": family.level,
        "alphabet": list(sizes),
        "patterns": [
            [list(b.row(r)) for r in range(1, b.depth + 1)] for b in family.blocks
        ],
    }
    write_json(path, obj)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment configuration plus a canonical hash of its content."""

    path: Path
    raw: dict[str, Any]
    dim: int
    stack: AlphabetStack
    window: Shape
    corpus_paths: tuple[Path, ...]
    vertex_paths: tuple[Path, ...]
    schedule: StageSchedule | None
    seed: int | None

    @classmethod
    def load(cls, path: Path, seed_override: int | None = None) -> ExperimentConfig:
        obj = read_json(path)
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: configuration must be a JSON object")
        try:
            dim = _int(obj["dim"], "dim")
            stack = AlphabetStack(_ints(obj["alphabet"], "alphabet"))
            window = _box(obj["window"]["min"], obj["window"]["max"])
            seed = obj.get("seed") if seed_override is None else seed_override
            seed = None if seed is None else _int(seed, "seed")
            corpus_paths = tuple(path.parent / p for p in obj.get("corpus", []))
            vertex_paths = tuple(path.parent / p for p in obj.get("target_vertices", []))
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if window.dim != dim:
            raise ConfigError(f"{path}: window dimension differs from dim")
        schedule = None
        if "schedule" in obj:
            s = obj["schedule"]
            try:
                tile_sides = _ints(s["tile_sides"], "tile_sides")
                for side in tile_sides:
                    _box((0,) * dim, (side - 1,) * dim)
                schedule = StageSchedule.geometric(
                    dim=dim,
                    eps1=parse_frac(s["eps1"]),
                    depths=_ints(s["depths"], "depths"),
                    folner_indices=_ints(s["folner_indices"], "folner_indices"),
                    tile_sides=tile_sides,
                )
            except (ConfigError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: bad schedule: {exc}") from exc
        return cls(
            path=path,
            raw=obj,
            dim=dim,
            stack=stack,
            window=window,
            corpus_paths=corpus_paths,
            vertex_paths=vertex_paths,
            schedule=schedule,
            seed=seed,
        )

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("a seed is mandatory for any sampling step")
        return self.seed

    def content_hash(self) -> str:
        effective = dict(self.raw)
        effective["seed"] = self.seed
        digest = hashlib.sha256(
            json.dumps(effective, sort_keys=True, separators=(",", ":")).encode()
        )
        return digest.hexdigest()[:12]

    def load_corpus(self) -> Corpus:
        if not self.corpus_paths:
            raise ConfigError("the configuration lists no corpus files")
        stacks: set[tuple[int, ...]] = set()
        blocks: list[Block] = []
        for p in self.corpus_paths:
            c = read_corpus(p)
            stacks.add(c.stack.sizes)
            blocks.extend(c.blocks)
        if stacks != {self.stack.sizes}:
            raise ConfigError("corpus alphabet differs from the configuration")
        return Corpus(self.stack, tuple(blocks))
