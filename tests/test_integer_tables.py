"""Frequency tables and cylinder measures are integer numerators over one
denominator: every value read through them, and every distance, deviation
and concatenation gap computed from them, equals the Fraction oracles."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockdyn import symbolic
from blockdyn.construction import _concatenation_check, _tile_counts
from blockdyn.frequency import freq_table, marginal_deviation
from blockdyn.group import Shape, folner_box, point_add, translate
from blockdyn.measures import CylinderMeasure, block_measure, dist, mix
from blockdyn.quasitiling import greedy_tile, verify
from blockdyn.symbolic import Block, BlockFamily, encode_pattern
from blockdyn.testkit import oracle_freq, oracle_measure_value
from helpers import block_from_function, block_from_word, code_of, decoded


def random_block(draw, shape: Shape, sizes: tuple[int, ...]) -> Block:
    symbols = [draw(st.integers(0, size - 1)) for size in sizes for _ in range(len(shape))]
    return Block(shape, len(sizes), sizes, tuple(symbols))


@st.composite
def blocks(draw, max_depth: int = 2) -> Block:
    """A block on a box of 1 to 9 cells per axis in one or two dimensions,
    one or two rows over alphabets of size 2 or 3."""
    dim = draw(st.integers(1, 2))
    side = 9 if dim == 1 else 5
    lo = [draw(st.integers(-3, 3)) for _ in range(dim)]
    hi = [a + draw(st.integers(0, side - 1)) for a in lo]
    sizes = tuple(draw(st.integers(2, 3)) for _ in range(draw(st.integers(1, max_depth))))
    return random_block(draw, Shape.box(lo, hi), sizes)


def patterns(base: Shape, level: int, sizes: tuple[int, ...]):
    return st.tuples(
        *(st.integers(0, sizes[r] - 1) for r in range(level) for _ in range(len(base)))
    )


@st.composite
def measures(draw, dim: int, depth: int, sizes: tuple[int, ...]) -> CylinderMeasure:
    """A measure on F_depth x rows[1..depth] with a few atoms and masses
    over unrelated denominators."""
    base = folner_box(depth, dim)
    atoms = draw(st.lists(patterns(base, depth, sizes), min_size=1, max_size=5, unique=True))
    weights = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 7))) for _ in atoms]
    total = sum(weights)
    masses = {Block(base, depth, sizes[:depth], key): w / total for key, w in zip(atoms, weights)}
    return CylinderMeasure(depth, base, masses, sizes[:depth])


def read_patterns(block: Block, base: Shape, level: int) -> set[tuple[int, ...]]:
    """Symbols of every pattern on base x rows[1..level] inside the block,
    read cell by cell."""
    out = set()
    pts = base.sorted_points
    for g in block.shape.sorted_points:
        cells = [point_add(p, g) for p in pts]
        if all(q in block.shape.points for q in cells):
            out.add(tuple(block.get(q, r) for r in range(1, level + 1) for q in cells))
    return out


def measure_patterns(measure: CylinderMeasure, base: Shape, level: int) -> set[tuple[int, ...]]:
    pts = base.sorted_points
    return {
        tuple(full.get(p, r) for r in range(1, level + 1) for p in pts)
        for full, _ in measure.items()
    }


def deviations(block, measure, level):
    """(symbols, |oracle frequency - oracle mass|) for every pattern seen in
    the block or in the measure at one level."""
    base = folner_box(level, block.dim)
    sizes = block.sizes[:level]
    keys = read_patterns(block, base, level) | measure_patterns(measure, base, level)
    out = {}
    for key in keys:
        pattern = Block(base, level, sizes, key)
        out[key] = abs(oracle_freq(block, pattern) - oracle_measure_value(measure, pattern))
    return out


@st.composite
def block_and_measure(draw):
    block = draw(blocks())
    depth = draw(st.integers(1, block.depth))
    if block.dim == 2:
        depth = 1  # F_2 of the plane has 25 cells; its oracles are slow
    measure = draw(measures(block.dim, depth, block.sizes))
    return block, measure, depth


F1 = folner_box(1, 1)


def point_masses(*patterns: tuple[int, ...]) -> CylinderMeasure:
    """Equal masses on the given one-row binary patterns on F_1."""
    return CylinderMeasure(
        1, F1, {Block(F1, 1, (2,), p): Fraction(1, len(patterns)) for p in patterns}
    )


@settings(max_examples=40, deadline=None)
@given(block_and_measure())
# The maximum is 1, on (1, 1, 1), which only the measure has; the block's
# two patterns deviate by 1/2.
@example((block_from_word("aaab"), point_masses((1, 1, 1)), 1))
# The maximum is 1, on (0, 0, 0), which only the block shows; the measure's
# two patterns deviate by 1/2.
@example((block_from_word("aaaa"), point_masses((1, 1, 1), (0, 1, 1)), 1))
def test_marginal_deviation_equals_the_fraction_oracle(case):
    block, measure, depth = case
    levels = [deviations(block, measure, level) for level in range(1, depth + 1)]
    full = max(max(devs.values()) for devs in levels)
    assert marginal_deviation(block, measure, depth) == full
    for level, devs in enumerate(levels, start=1):
        base = folner_box(level, block.dim)
        sizes, cells = block.sizes[:level], len(base)
        seen = set(decoded(freq_table(block, base, level), sizes, cells))
        assert seen | set(decoded(measure.marginal(base, level), sizes, cells)) == set(devs)


def family_of(draw, dim: int, level: int, sizes: tuple[int, ...]) -> BlockFamily:
    base = folner_box(level, dim)
    members = draw(st.lists(patterns(base, level, sizes), min_size=1, max_size=6, unique=True))
    keys = sorted(encode_pattern(m, sizes[:level], len(base)) for m in members)
    return BlockFamily(level, base, sizes[:level], tuple(keys))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dist_k_and_dist_block_equal_the_fraction_oracles(data):
    block = data.draw(blocks())
    depth = 1 if block.dim == 2 else block.depth
    mu = data.draw(measures(block.dim, depth, block.sizes))
    nu = data.draw(measures(block.dim, depth, block.sizes))
    families = [family_of(data.draw, block.dim, k, block.sizes) for k in range(1, depth + 1)]
    want = tuple(
        sum(abs(oracle_measure_value(mu, b) - oracle_measure_value(nu, b)) for b in fam.blocks)
        / Fraction(len(fam))
        for fam in families
    )
    assert dist(mu, nu, families).levels == want
    levels = tuple(
        sum(abs(oracle_freq(block, b) - oracle_measure_value(nu, b)) for b in fam.blocks)
        / Fraction(len(fam))
        for fam in families
    )
    got = dist(block, nu, families)
    assert got.levels == levels
    assert got.lower == sum(d / 2**k for k, d in enumerate(levels, start=1))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_concatenation_check_equals_the_fraction_oracle(data):
    dim = data.draw(st.integers(1, 2))
    side = data.draw(st.integers(6, 40 if dim == 1 else 9))
    window = Shape.box([0] * dim, [side - 1] * dim)
    config = random_block(data.draw, window, (data.draw(st.integers(2, 3)),))
    sides = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True))
    shapes = [Shape.box([0] * dim, [s - 1] * dim) for s in sides]
    tiling = greedy_tile(window, shapes, Fraction(1, 10)).tiling
    base = folner_box(1, dim)
    dev, _ = _concatenation_check(
        config, tiling, verify(tiling), _tile_counts(config, tiling, base, 1)
    )

    total_cells = sum(len(s) * len(cs) for s, cs in zip(tiling.shapes, tiling.centers))
    tiles = [
        block_from_function(translate(s, c), 1, config.sizes, config.get)
        for s, cs in zip(tiling.shapes, tiling.centers)
        for c in cs
    ]
    if not any(read_patterns(t, base, 1) for t in tiles):
        # No tile holds a copy of F_1, so there is no average to compare with.
        assert dev is None
        return
    keys = read_patterns(config, base, 1).union(*(read_patterns(t, base, 1) for t in tiles))
    want = Fraction(0)
    for key in keys:
        pattern = Block(base, 1, config.sizes, key)
        avg = sum(
            (Fraction(len(t), total_cells) * oracle_freq(t, pattern) for t in tiles), Fraction(0)
        )
        want = max(want, abs(oracle_freq(config, pattern) - avg))
    assert dev == want


def test_equal_measures_store_equal_numerators_whatever_their_denominators():
    block = Block(Shape.interval(0, 9), 1, (2,), (0, 0, 1, 0, 1, 1, 0, 0, 0, 1))
    mu = block_measure(block, 1)
    # eight embeddings, one pattern seen twice: masses of a quarter and eighths
    assert decoded(freq_table(block, folner_box(1, 1), 1).counts, (2,), 3) == {
        (0, 0, 1): 2, (0, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 0): 1,
        (1, 0, 0): 1, (0, 0, 0): 1,
    }
    explicit = CylinderMeasure(1, mu.base, dict(mu.items()), mu.sizes)
    assert mu == explicit and explicit == mu
    assert mix([Fraction(1, 3), Fraction(2, 3)], [mu, explicit]) == mu
    # the same masses over a denominator 6 times larger
    nums = {code_of(b): m.numerator * (48 // m.denominator) for b, m in mu.items()}
    scaled = CylinderMeasure._from_counts(1, mu.base, mu.sizes, nums, 48)
    assert scaled == mu and scaled.items() == mu.items()
    support = [b for b, _ in mu.items()]
    other = CylinderMeasure(1, mu.base, {b: Fraction(1, len(support)) for b in support})
    assert other != mu


def test_items_are_reduced_fractions_in_symbol_order():
    base = folner_box(1, 2)
    keys = [tuple((i >> j) & 1 for j in range(9)) for i in (511, 300, 77, 5, 1)]
    weights = [Fraction(k + 1, 6) for k in range(len(keys))]
    masses = {Block(base, 1, (2,), k): w / sum(weights) for k, w in zip(keys, weights)}
    mu = CylinderMeasure(1, base, masses)
    items = mu.items()
    assert [b.symbols for b, _ in items] == sorted(keys)
    assert [b.symbols for b, _ in items] == list(decoded(mu.atoms(), (2,), 9))
    for b, m in items:
        assert type(m) is Fraction and gcd(m.numerator, m.denominator) == 1
        assert m == masses[b]
    # a block measure's masses are its reduced frequencies at the top level
    block = Block(Shape.box((0, 0), (3, 4)), 2, (2, 3), tuple((i * i) % 2 for i in range(20))
                  + tuple(i % 3 for i in range(20)))
    nu = block_measure(block, 1)
    table = freq_table(block, folner_box(1, 2), 1)
    assert [b.symbols for b, _ in nu.items()] == sorted(decoded(table, (2,), 9))
    assert all(m == table[code_of(b)] for b, m in nu.items())


def test_block_measure_builds_no_block(monkeypatch):
    blocks_built = []
    real = Block.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        blocks_built.append(self.symbols)

    block = Block(Shape.box((0, 0), (6, 5)), 2, (2, 2), tuple(i * 5 % 7 % 2 for i in range(84)))
    monkeypatch.setattr(symbolic.Block, "__init__", counting)
    freq_table.cache_clear()
    for depth in (1, 2):
        mu = block_measure(block, depth)
        assert mu.marginal(folner_box(1, 2), 1)
    assert blocks_built == []
    support = mu.items()  # the public readers build them
    assert len(blocks_built) == len(support) > 0


def test_every_pattern_of_a_table_reads_as_its_count_over_the_total():
    block = Block(Shape.interval(0, 6), 2, (2, 2), (0, 1, 1, 0, 1, 0, 0) + (1, 1, 0, 0, 1, 0, 1))
    for level in (1, 2):
        table = freq_table(block, folner_box(level, 1), level)
        assert table.total == 7 - 2 * level
        assert sum(table.counts.values()) == table.total
        assert dict(table) == {k: Fraction(c, table.total) for k, c in table.counts.items()}
        for symbols in product((0, 1), repeat=(2 * level + 1) * level):
            key = encode_pattern(symbols, (2,) * level, 2 * level + 1)
            assert (key in table) == (key in table.counts)
            assert table.get(key, Fraction(0)) == Fraction(table.counts.get(key, 0), table.total)
    empty = freq_table(block, folner_box(4, 1), 1)
    assert not empty and empty.total == 1 and dict(empty) == {}


def test_the_public_constructor_keeps_every_check():
    base = folner_box(1, 1)
    a, b = (Block(base, 1, (2,), s) for s in ((0, 0, 1), (1, 0, 1)))
    half = Fraction(1, 2)
    cases = [
        ((0, base, {a: 1}), "depth must be at least 1"),
        ((1, base, {a: 0}), "needs positive mass"),
        ((1, folner_box(2, 1), {a: 1}), "outside base"),
        ((1, base, {a: half, Block(base, 1, (3,), (0, 2, 1)): half}), "outside base"),
        ((1, base, {a: Fraction(3, 2), b: -half}), "negative mass"),
        ((1, base, {a: half, b: Fraction(1, 3)}), "sum to exactly 1"),
        ((1, base, {a: half, b: Fraction(2, 3)}), "sum to exactly 1"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            CylinderMeasure(*args)
    with pytest.raises(ValueError, match="outside base"):
        CylinderMeasure(1, base, {a: 1}, sizes=(3,))
    assert CylinderMeasure(1, base, {a: Fraction(2, 6), b: Fraction(4, 6)}).items() == (
        (a, Fraction(1, 3)), (b, Fraction(2, 3))
    )
