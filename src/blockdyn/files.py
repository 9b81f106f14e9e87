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
from itertools import chain, repeat
from math import prod
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .construction import StageSchedule
from .group import Shape
from .measures import CylinderMeasure, _numerators
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


_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _dump(obj: Any, write: Callable[[str], Any], pad: str) -> None:
    """Write the canonical JSON of ``obj`` in chunks; ``pad`` is a newline
    plus the indent of the line ``obj`` starts on."""
    if isinstance(obj, str):
        write(_quote(obj))
    elif obj is None or isinstance(obj, bool):
        write(_CONSTANTS[obj])
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)) and obj and set(map(type, obj)) == {int}:
        # A row of symbols, the bulk of every file, goes out as one join.
        write("[" + pad + " " + ("," + pad + " ").join(map(int.__repr__, obj)) + pad + "]")
    elif isinstance(obj, (list, tuple)):
        _items(repeat(""), obj, "[]", write, pad)
    elif isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("canonical JSON needs str keys")
        keys = sorted(obj)
        _items([_quote(k) + ": " for k in keys], [obj[k] for k in keys], "{}", write, pad)
    else:
        raise TypeError(f"canonical JSON has no encoding for {type(obj).__name__} {obj!r}")


def _items(
    heads: Iterable[str], values: Sequence[Any], brackets: str, write: Callable[[str], Any], pad: str
) -> None:
    """A container's values, one a line at one more space of indent, each
    after its head (a quoted key and ": " in a dict, nothing in a list)."""
    if not values:
        write(brackets)
        return
    inner = pad + " "
    write(brackets[0])
    for i, (head, value) in enumerate(zip(heads, values)):
        write(("," if i else "") + inner + head)
        _dump(value, write, inner)
    write(pad + brackets[1])


def canonical_json(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)`` plus a newline, for the
    values the file formats hold: str-keyed dicts, lists, tuples, str, int,
    bool and None.  Anything else, a float included, is a TypeError."""
    chunks: list[str] = []
    _dump(obj, chunks.append, "\n")
    chunks.append("\n")
    return "".join(chunks)


def write_json(path: Path, obj: Any) -> None:
    """Stream ``canonical_json(obj)`` to ``path`` through a temporary file
    beside it, so that a value with no encoding leaves ``path`` as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", encoding="utf-8") as f:
            _dump(obj, f.write, "\n")
            f.write("\n")
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


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


def _box_of(block: Block) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not block.shape.is_box():
        raise ConfigError("file formats require box-shaped block domains")
    return block.shape.bounds()


def block_to_obj(block: Block) -> dict[str, Any]:
    lo, hi = _box_of(block)
    return {
        "min": lo,
        "max": hi,
        "depth": block.depth,
        "rows": _row_slices(block.symbols, len(block), block.depth),
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


def _row_slices(symbols: tuple[int, ...], cells: int, depth: int) -> list[tuple[int, ...]]:
    """Row-major symbols cut into ``depth`` rows of ``cells`` entries."""
    return [symbols[r * cells : (r + 1) * cells] for r in range(depth)]


def write_measure(path: Path, measure: CylinderMeasure) -> None:
    lo, hi = measure.base.bounds()
    atoms = measure.atoms()
    cells, den = len(measure.base), atoms.total
    obj = {
        "kind": "measure",
        "dim": measure.base.dim,
        "alphabet": measure.sizes,
        "depth": measure.depth,
        "base_min": lo,
        "base_max": hi,
        "masses": [
            {"pattern": _row_slices(key, cells, measure.depth), "mass": frac_str(Fraction(n, den))}
            for key, n in atoms.counts.items()
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
    sizes = AlphabetStack(sizes).sizes
    base = _box(obj["base_min"], obj["base_max"])
    width = depth * len(base)
    patterns = [e["pattern"] for e in obj["masses"]]
    if any(not isinstance(p, list) or len(p) != depth for p in patterns):
        raise ConfigError(f"every pattern needs {depth} rows")
    # Entry types and row lengths are checked over all rows at once, the
    # alphabet range over all rows of each stack level.
    rows = list(chain.from_iterable(patterns))
    flat = _symbols(rows, len(rows), len(base))
    for r, size in enumerate(sizes):
        column = list(chain.from_iterable(rows[r::depth]))
        if column and (min(column) < 0 or max(column) >= size):
            raise ConfigError(f"row {r + 1} entry outside alphabet of size {size}")
    masses: dict[tuple[int, ...], Fraction] = {}
    for i, e in enumerate(obj["masses"]):
        key = flat[i * width : (i + 1) * width]
        if key in masses:
            raise ConfigError(f"pattern {patterns[i]} is listed more than once")
        masses[key] = parse_frac(e["mass"])
    return CylinderMeasure._from_counts(depth, base, sizes, *_numerators(masses))


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


def write_family(path: Path, family: BlockFamily) -> None:
    obj = {
        "kind": "family",
        "dim": family.base.dim,
        "level": family.level,
        "alphabet": list(family.sizes),
        "patterns": [_row_slices(key, len(family.base), family.level) for key in family.keys],
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
