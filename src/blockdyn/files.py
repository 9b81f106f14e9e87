"""Line-oriented JSON file formats and experiment configuration.

Rationals are serialized as "p/q" strings so exactness survives a round
trip; blocks live on box windows described by per-axis min/max corners
with entries row-major per row index.  All writers emit canonical JSON
(sorted keys, fixed indent) so identical data produces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, prod
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence, TypeVar

from .frequency import block_measure_gap_bound
from .group import Shape, _Record
from .measures import CylinderMeasure, _numerators
from .symbolic import (
    _PIECE, AlphabetStack, Block, BlockFamily, Corpus, _row_codes, check_alphabet, decode_pattern
)

if TYPE_CHECKING:  # a job that reads files loads no stage or tiling code
    from .construction import ChangeRecord
    from .quasitiling import Quasitiling


class ConfigError(Exception):
    """Malformed configuration or data file."""


T = TypeVar("T")


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def ratio_str(n: int, den: int) -> str:
    """``str(Fraction(n, den))`` for integers, without building the Fraction."""
    if den == 0:
        raise ZeroDivisionError(f"ratio_str({n}, 0)")
    g = gcd(n, den) if den > 0 else -gcd(n, den)
    n, den = n // g, den // g
    return str(n) if den == 1 else f"{n}/{den}"


def parse_frac(s: Any) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational: {s!r}") from exc


def _ratio(s: str) -> tuple[int, int]:
    """A mass string as an integer pair (p, q) for p / q, q > 0: an ASCII
    "p" or "p/q" of at most ``_PIECE`` characters, which int() reads under
    any digit limit, as two ints; every other spelling as ``parse_frac``
    reads or rejects it."""
    num, slash, den = s.partition("/")
    den = den if slash else "1"
    if s.isascii() and num.isdigit() and den.isdigit() and den.strip("0") and len(s) <= _PIECE:
        return int(num), int(den)
    return parse_frac(s).as_integer_ratio()


def _rational(value: Any, field: str) -> Fraction:
    """A rational read from a file: a JSON string "p/q".  json reads 0.1 as a
    float, which ``parse_frac`` would take as 1/10, so a number, a bool,
    null or a list is a ConfigError that names the field."""
    if not isinstance(value, str):
        raise ConfigError(f'{field} must be a string "p/q", got {json.dumps(value)}')
    return parse_frac(value)


def _rationals(values: Any, field: str, rows: bool = False) -> list[Any]:
    """A JSON list of rationals, or with ``rows`` a list of such lists."""
    if not isinstance(values, list):
        what = "lists of strings" if rows else "strings"
        raise ConfigError(f'{field} must be a list of {what} "p/q", got {json.dumps(values)}')
    if rows:
        return [_rationals(row, field) for row in values]
    return [_rational(v, field) for v in values]


_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
# A varying leaf of a record layout.
_HOLE = object()


class _Records(_Record):
    """A JSON list whose entries share one layout: ``layout`` is a value
    with ``_HOLE`` at each varying leaf, and each of ``values`` is a tuple of
    those leaves' JSON texts (ints, or quoted strings), in file order.  A
    text may also stand for a run of leaves of one list, joined by the
    separator the layout puts between them."""

    __slots__ = ("layout", "values")


def _template(layout: Any, pad: str) -> str:
    """The canonical JSON of ``layout`` as a %-format with %s at its holes."""
    chunks: list[str] = []
    # Every other chunk holds a bracket, a quote or a newline, so a chunk of
    # exactly "%s" is a hole.
    _dump(layout, lambda s: chunks.append(s if s == "%s" else s.replace("%", "%%")), pad)
    return "".join(chunks)


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
    elif isinstance(obj, _Records):
        # One format per list, the separator before a record included, and
        # one write per record, so the list is never held as text; an empty
        # list is "[]".
        inner = pad + " "
        fmt = "," + inner + _template(obj.layout, inner)
        values = iter(obj.values)
        first = next(values, None)
        if first is None:
            write("[]")
            return
        write("[" + fmt[1:] % first)
        for leaves in values:
            write(fmt % leaves)
        write(pad + "]")
    elif obj is _HOLE:
        write("%s")
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # A JSONDecodeError, or an integer literal longer than int()'s
        # digit limit, which json reports as a plain ValueError.
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """One line per row, each filled into one %-format of the header's width
    and written 1,024 rows at a time, so the table is never held as text: a
    job's peak memory does not grow with its largest table, and each write
    still joins many lines.  A row of another width is a ValueError that
    names it, raised before the file is opened."""
    width = len(header)
    for i, n in enumerate(map(len, rows)):
        if n != width:
            raise ValueError(f"row {i} has {n} fields, the header {width}")
    fmt = ",".join(["%s"] * width) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(map(str, header)) + "\n")
        for i in range(0, len(rows), 1024):
            f.write("".join([fmt % tuple(row) for row in rows[i : i + 1024]]))


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


def _paths(names: Any, field: str, folder: Path) -> tuple[Path, ...]:
    """A JSON list of file names resolved against ``folder``; anything else,
    a single string too, is a ConfigError that names the field."""
    if not isinstance(names, list) or set(map(type, names)) - {str}:
        raise ConfigError(f"{field} must be a list of file names, got {json.dumps(names)}")
    return tuple(folder / name for name in names)


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
    if len(rows) != depth or set(map(type, rows)) - {list} or set(map(len, rows)) - {cells}:
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
    dim = _int(obj["dim"], "dim")
    stack = AlphabetStack(_ints(obj["alphabet"], "alphabet"))
    blocks = tuple(block_from_obj(b, stack.sizes) for b in obj["blocks"])
    for i, b in enumerate(blocks):
        if b.dim != dim:
            raise ConfigError(f"dim is {dim} but block {i} has dimension {b.dim}")
    return Corpus(stack, blocks)


def _row_slices(symbols: tuple[int, ...], cells: int, depth: int) -> list[tuple[int, ...]]:
    """Row-major symbols cut into ``depth`` rows of ``cells`` entries."""
    return [symbols[r * cells : (r + 1) * cells] for r in range(depth)]


def _pattern_layout(holes: int, depth: int) -> list[list[object]]:
    """The layout of a pattern: ``depth`` rows of ``holes`` holes."""
    return [[_HOLE] * holes] * depth


# How many codes ``_pattern_texts`` spells at a time.  On the 2-D census
# jobs, chunks of 16 were slower than spelling one code at a time; whole
# columns were faster than 128, but a writer then held every spelled entry
# of its file at once, where 128 holds a few records' text.
_SPELL_CHUNK = 128


def _pattern_texts(
    sizes: Sequence[int], base: Shape, sep: str
) -> tuple[int, Callable[[Iterable[int]], Iterator[tuple[str, ...]]]]:
    """How the patterns on base x rows[1..len(sizes)] are spelled from their
    codes: the number of runs in a row, and a function from codes to the
    texts of each code's runs in ``Block.symbols`` order, each run's symbols
    joined by ``sep``.  A run is one last-axis line of a box base, or a whole
    row of any other base.  The codes are read ``_SPELL_CHUNK`` at a time,
    one run column of a chunk at a time; texts are memoized by run code for
    the life of the function, so each distinct run is decoded once and no
    pattern's symbol tuple is built."""
    cells = len(base)
    if base.is_box():
        lo, hi = base.bounds()
        run = hi[-1] - lo[-1] + 1
    else:
        run = max(cells, 1)
    per_row = cells // run
    memos: dict[int, dict[int, str]] = {size: {} for size in sizes}
    # Per run column in file order: the divisor that brings it to the bottom
    # of a code, its radix and the memo of its alphabet size.
    columns = []
    div = 1
    for size in reversed(sizes):
        top = size**run
        for _ in range(per_row):
            columns.append((div, top, size, memos[size]))
            div *= top
    columns.reverse()

    def texts(codes: Iterable[int]) -> Iterator[tuple[str, ...]]:
        codes = iter(codes)
        while chunk := list(islice(codes, _SPELL_CHUNK)):
            spelled = []
            for div, top, size, memo in columns:
                column = [c // div % top for c in chunk]
                for r in set(column).difference(memo):
                    memo[r] = sep.join(map(str, decode_pattern(r, (size,), run)))
                spelled.append(map(memo.__getitem__, column))
            # A base of no cells has no runs: each of its patterns is spelled ().
            yield from zip(*spelled) if spelled else [()] * len(chunk)

    return per_row, texts


# The entries of a pattern row sit at this indent in a file: in a family,
# inside the file's object, the pattern list, the pattern and its row; in a
# measure, one level deeper, inside the mass entry.
_FAMILY_ENTRY_SEP = ",\n" + " " * 4
_MEASURE_ENTRY_SEP = ",\n" + " " * 5


def write_measure(path: Path, measure: CylinderMeasure) -> None:
    lo, hi = measure.base.bounds()
    atoms = measure.atoms()
    den = atoms.total
    per_row, texts = _pattern_texts(measure.sizes, measure.base, _MEASURE_ENTRY_SEP)
    layout = {"mass": _HOLE, "pattern": _pattern_layout(per_row, measure.depth)}
    counts = atoms.counts
    mass = {n: _quote(ratio_str(n, den)) for n in set(counts.values())}
    obj = {
        "kind": "measure",
        "dim": measure.base.dim,
        "alphabet": measure.sizes,
        "depth": measure.depth,
        "base_min": lo,
        "base_max": hi,
        "masses": _Records(
            layout,
            ((m, *t) for m, t in zip(map(mass.__getitem__, counts.values()), texts(counts))),
        ),
    }
    write_json(path, obj)


def read_measure(path: Path) -> CylinderMeasure:
    return _read_data(path, "measure", _measure_from_obj)


def _measure_from_obj(obj: dict[str, Any]) -> CylinderMeasure:
    dim = _int(obj["dim"], "dim")
    sizes = _ints(obj["alphabet"], "alphabet")
    depth = _int(obj["depth"], "depth")
    if len(sizes) != depth:
        raise ConfigError(
            f"alphabet lists {len(sizes)} sizes but depth is {depth}: "
            "a measure needs one alphabet size per row"
        )
    sizes = AlphabetStack(sizes).sizes
    base = _box(obj["base_min"], obj["base_max"])
    if base.dim != dim:
        raise ConfigError(f"dim is {dim} but the base has dimension {base.dim}")
    cells = len(base)
    patterns = [e["pattern"] for e in obj["masses"]]
    if set(map(type, patterns)) - {list} or set(map(len, patterns)) - {depth}:
        raise ConfigError(f"every pattern needs {depth} rows")
    # One type test over all entries, then per stack level one alphabet check
    # of all its rows and one radix parse per row.
    rows = list(chain.from_iterable(patterns))
    _symbols(rows, len(rows), cells)
    codes = [0] * len(patterns)
    for r, size in enumerate(sizes):
        column = list(chain.from_iterable(rows[r::depth]))
        text = check_alphabet(column, size, r + 1, ConfigError)
        top = size**cells
        codes = [c * top + v for c, v in zip(codes, _row_codes(column, size, len(codes), text))]
    masses: dict[int, tuple[int, int]] = {}
    for key, e, pattern in zip(codes, obj["masses"], patterns):
        if key in masses:
            raise ConfigError(f"pattern {pattern} is listed more than once")
        mass = e["mass"]
        if not isinstance(mass, str):
            # json reads 0.1 as a float, which Fraction(str()) would take
            raise ConfigError(
                f'mass of pattern {pattern} must be a string "p/q", got {json.dumps(mass)}'
            )
        masses[key] = _ratio(mass)
    return CylinderMeasure._from_counts(depth, base, sizes, *_numerators(masses))


def _block_layout(block: Block) -> dict[str, Any]:
    """``block_to_obj`` of a block with a hole at each entry."""
    lo, hi = _box_of(block)
    rows = _pattern_layout(len(block), block.depth)
    return {"depth": block.depth, "max": hi, "min": lo, "rows": rows}


def write_changes(path: Path, changes: Sequence[ChangeRecord]) -> None:
    """A stage's change log: per change its center, shape index and the
    ``block_to_obj`` of its before and after blocks.  The changes must be
    those of one shape index, as ``stage_transform`` logs them on a
    one-shape tiling, so that every record has the layout of the first."""
    if len({ch.shape_index for ch in changes}) > 1:
        raise ValueError("a change log holds the changes of one tile shape")
    layout = None
    if changes:
        first = changes[0]
        layout = {
            "after": _block_layout(first.after),
            "before": _block_layout(first.before),
            "center": [_HOLE] * len(first.center),
            "shape_index": _HOLE,
        }
    leaves = (
        (*ch.after.symbols, *ch.before.symbols, *ch.center, ch.shape_index) for ch in changes
    )
    write_json(path, _Records(layout, leaves))


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
    from .quasitiling import Quasitiling  # only a tiling file needs the tiling code

    window = _box(obj["window_min"], obj["window_max"])
    shapes = tuple(Shape.of([_ints(p, "shape points") for p in pts]) for pts in obj["shapes"])
    centers = tuple(frozenset(_ints(c, "tile centers") for c in cs) for cs in obj["centers"])
    return Quasitiling(window=window, shapes=shapes, centers=centers)


def write_family(path: Path, family: BlockFamily) -> None:
    per_row, texts = _pattern_texts(family.sizes, family.base, _FAMILY_ENTRY_SEP)
    obj = {
        "kind": "family",
        "dim": family.base.dim,
        "level": family.level,
        "alphabet": list(family.sizes),
        "patterns": _Records(_pattern_layout(per_row, family.level), texts(family.keys)),
    }
    write_json(path, obj)


class Stage(_Record):
    """One stage: tolerance eps, replacement threshold delta, rows 1..depth
    rewritten, box tiles of side tile_side, delta tied to Folner index."""

    __slots__ = ("index", "eps", "delta", "depth", "folner_index", "tile_side")
    index: int
    eps: Fraction
    delta: Fraction
    depth: int
    folner_index: int
    tile_side: int

    def __init__(
        self,
        index: int,
        eps: Fraction,
        delta: Fraction,
        depth: int,
        folner_index: int,
        tile_side: int,
    ) -> None:
        if depth < 1 or tile_side < 1 or folner_index < 1:
            raise ValueError("depth, tile side and Folner index must be positive")
        if eps <= 0 or delta <= 0:
            raise ValueError("eps and delta must be positive")
        self._set(index, eps, delta, depth, folner_index, tile_side)


class StageSchedule(_Record):
    """A strictly decreasing, summable tolerance sequence with per-stage
    replacement thresholds and coarsening tile sides.

    Each delta must keep the marginal-gap bound below its stage's eps, and
    every tile side must be a multiple of the previous stage's, which makes
    the stage tilings congruent on box windows only: on other windows
    ``construction.run`` may find them not congruent.  It lives here, where
    ``ExperimentConfig.load`` builds it, so that reading a configuration
    loads no construction code.
    """

    __slots__ = ("dim", "stages")
    dim: int
    stages: tuple[Stage, ...]

    def __init__(self, dim: int, stages: tuple[Stage, ...]) -> None:
        if not stages:
            raise ValueError("a schedule needs at least one stage")
        eps = [s.eps for s in stages]
        if any(nxt >= prev for nxt, prev in zip(eps[1:], eps)):
            raise ValueError("eps must be strictly decreasing")
        for s in stages:
            size = (2 * s.folner_index + 1) ** dim
            if s.delta * size >= 1 or block_measure_gap_bound(s.delta, size) >= s.eps:
                raise ValueError(
                    f"stage {s.index}: delta {s.delta} too large for eps {s.eps}"
                )
        sides = [s.tile_side for s in stages]
        for prev, nxt in zip(sides, sides[1:]):
            if nxt % prev != 0:
                raise ValueError("tile sides must coarsen by integer multiples")
        self._set(dim, stages)

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
            stages.append(Stage(t, eps, delta, k, n, side))
        return cls(dim, tuple(stages))


class ExperimentConfig(_Record):
    """Parsed experiment configuration plus a canonical hash of its content."""

    __slots__ = (
        "path", "raw", "dim", "stack", "window", "corpus_paths", "vertex_paths", "schedule",
        "seed",
    )
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
            corpus_paths = _paths(obj.get("corpus", []), "corpus", path.parent)
            vertex_paths = _paths(obj.get("target_vertices", []), "target_vertices", path.parent)
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
                    eps1=_rational(s["eps1"], "eps1"),
                    depths=_ints(s["depths"], "depths"),
                    folner_indices=_ints(s["folner_indices"], "folner_indices"),
                    tile_sides=tile_sides,
                )
            except (ConfigError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: bad schedule: {exc}") from exc
        return cls(path, obj, dim, stack, window, corpus_paths, vertex_paths, schedule, seed)

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
            if any(b.dim != self.dim for b in c.blocks):
                raise ConfigError(f"{p}: a block of dimension {c.dim} under dim {self.dim}")
            stacks.add(c.stack.sizes)
            blocks.extend(c.blocks)
        if stacks != {self.stack.sizes}:
            raise ConfigError("corpus alphabet differs from the configuration")
        return Corpus(self.stack, tuple(blocks))
