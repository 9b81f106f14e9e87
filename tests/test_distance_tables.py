"""The distance layer reads tables: every value it compares comes from one
frequency table or one marginal per operand and level, a stage solves each
distinct tile content once, and ``far_mass`` solves every tile on its own."""

import random
from fractions import Fraction

import pytest

from blockdyn import construction
from blockdyn.construction import far_mass, stage_transform
from blockdyn.group import Shape
from blockdyn.measures import (
    ConvexTarget,
    CylinderMeasure,
    dist,
    dist_block,
    dist_k,
    dist_to_hull,
)
from blockdyn.quasitiling import greedy_tile
from blockdyn.symbolic import AlphabetStack, Block, enumerate_full_family, sample_bernoulli
from blockdyn.testkit import grid_hull_distance, oracle_freq, oracle_measure_value
from blockdyn.verification import _families_for, _random_measure

F1 = Shape.interval(-1, 1)


def oracle_value(x, pattern):
    if isinstance(x, Block):
        return oracle_freq(x, pattern)
    return oracle_measure_value(x, pattern)


def oracle_level_term(x, nu, family):
    total = sum(abs(oracle_value(x, b) - oracle_measure_value(nu, b)) for b in family.blocks)
    return Fraction(total) / len(family.blocks)


def oracle_objective(x, target, families, weights):
    total = Fraction(0)
    for fam in families:
        coeff = Fraction(1, 2**fam.level * len(fam.blocks))
        for b in fam.blocks:
            acc = oracle_value(x, b)
            for w, v in zip(weights, target.vertices):
                acc -= w * oracle_measure_value(v, b)
            total += coeff * abs(acc)
    return total


def _instances():
    """Seeded (block, measure, nu, target, families) on the stack (2, 2)."""
    rng = random.Random(8)
    out = []
    for n in range(4):
        measures = [_random_measure(rng) for _ in range(4)]
        window = Shape.interval(0, rng.randint(12, 30))
        block = sample_bernoulli(window, AlphabetStack((2, 2)), [[0.5, 0.5]] * 2, seed=n)
        target = ConvexTarget(tuple(measures[2:]))
        out.append((block, measures[0], measures[1], target, _families_for(measures)))
    return out


@pytest.mark.parametrize("x_kind", ["block", "measure"])
def test_distances_never_call_value_and_equal_the_oracles(monkeypatch, x_kind):
    def boom(self, pattern):
        raise AssertionError("CylinderMeasure.value called")

    monkeypatch.setattr(CylinderMeasure, "value", boom)
    for block, mu, nu, target, fams in _instances():
        x = block if x_kind == "block" else mu
        levels = [oracle_level_term(x, nu, fam) for fam in fams]
        if x_kind == "block":
            assert dist_block(x, nu, fams).levels == tuple(levels)
        else:
            assert [dist_k(x, nu, fam) for fam in fams] == levels
            assert dist(x, nu, fams).levels == tuple(levels)
        hd = dist_to_hull(x, target, fams)
        assert hd.value == oracle_objective(x, target, fams, hd.weights)
        assert hd.value <= grid_hull_distance(x, target, fams, Fraction(1, 8))


def test_a_measure_on_another_alphabet_stack_is_refused():
    fams = [enumerate_full_family(AlphabetStack((2,)), 1, 1)]
    binary = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (0, 1, 0)): Fraction(1)})
    ternary = CylinderMeasure(1, F1, {Block(F1, 1, (3,), (0, 1, 0)): Fraction(1)})
    with pytest.raises(ValueError, match="alphabet stack"):
        dist(binary, ternary, fams)
    with pytest.raises(ValueError, match="alphabet stack"):
        dist(ternary, binary, fams)
    with pytest.raises(ValueError, match="alphabet stack"):
        dist_to_hull(binary, ConvexTarget((ternary,)), fams)
    with pytest.raises(ValueError, match="alphabet stack"):
        dist_to_hull(ternary, ConvexTarget((binary,)), fams)


def _point_mass_target() -> ConvexTarget:
    return ConvexTarget(
        tuple(
            CylinderMeasure(1, F1, {Block(F1, 1, (2,), key): Fraction(1)})
            for key in [(0, 0, 0), (1, 1, 1)]
        )
    )


def _counting(monkeypatch) -> list:
    """Replace the hull solve seen by ``construction`` with a counting one."""
    calls = []

    def counted(x, target, families):
        calls.append((x.shape, x.symbols))
        return dist_to_hull(x, target, families)

    monkeypatch.setattr(construction, "dist_to_hull", counted)
    return calls


def test_a_stage_solves_each_distinct_tile_content_once(monkeypatch):
    calls = _counting(monkeypatch)
    shape = Shape.interval(0, 2)
    window = Shape.interval(0, 11)
    words = [(0, 1, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1)]
    config = Block(window, 1, (2,), sum(words, ()))
    tiling = greedy_tile(window, [shape], Fraction(1)).tiling
    rep = Block(shape, 1, (2,), (0, 1, 0))  # the content of two far tiles
    fams = [enumerate_full_family(AlphabetStack((2,)), 1, 1)]
    out, report = stage_transform(
        config, tiling, _point_mass_target(), Fraction(1, 50), {shape: rep}, fams
    )
    assert rep in [ch.before for ch in report.changes]
    assert report.far_mass_after > 0
    assert sorted(calls) == sorted(set(calls)) == sorted({(shape, w) for w in words})


def test_far_mass_solves_every_tile_without_a_cache(monkeypatch):
    calls = _counting(monkeypatch)
    window = Shape.interval(0, 17)
    config = Block(window, 1, (2,), (0, 1, 0) * 6)
    tiling = greedy_tile(window, [Shape.interval(0, 2)], Fraction(1)).tiling
    fams = [enumerate_full_family(AlphabetStack((2,)), 1, 1)]
    target = _point_mass_target()
    assert far_mass(config, tiling, target, Fraction(1, 50), fams) == 1
    assert len(calls) == tiling.tile_count() == 6
