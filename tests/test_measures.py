import itertools
import random
from fractions import Fraction

import pytest

from blockdyn import files
from blockdyn.frequency import block_measure_gap_bound, freq, freq_table
from blockdyn.group import Shape, folner_box, invariance_ratio
from blockdyn.measures import (
    ConvexTarget,
    CylinderMeasure,
    block_measure,
    dist,
    dist_to_hull,
    mix,
    tail_depth,
)
from blockdyn.symbolic import AlphabetStack, Block, BlockFamily, Corpus, sample_bernoulli
from blockdyn.testkit import grid_hull_distance, oracle_measure_value
from blockdyn.verification import SUPPORT, _families_for, _random_measure
from helpers import block_from_word, code_of, cylinder_mass

WORD = block_from_word("aababab", start=-3)
F1 = folner_box(1, 1)
AAB = block_from_word("aab", start=-1)
ABA = block_from_word("aba", start=-1)
BAB = block_from_word("bab", start=-1)


def word_family():
    return BlockFamily(1, F1, (2,), tuple(sorted(code_of(b) for b in (AAB, ABA, BAB))))


def test_block_measure_word():
    mu = block_measure(WORD, 1)
    assert cylinder_mass(mu, AAB) == Fraction(1, 5)
    assert cylinder_mass(mu, ABA) == Fraction(2, 5)
    assert cylinder_mass(mu, BAB) == Fraction(2, 5)


def test_block_measure_constant_point_mass():
    const = block_from_word("aaaaaaa", start=-3)
    mu = block_measure(const, 1)
    assert mu.items() == ((Block(F1, 1, (2,), (0, 0, 0)), Fraction(1)),)


def test_block_measure_total_mass_one():
    stack = AlphabetStack((2, 2))
    block = sample_bernoulli(Shape.interval(-9, 9), stack, [[0.5, 0.5], [0.5, 0.5]], seed=3)
    mu = block_measure(block, 2)
    assert sum(m for _, m in mu.items()) == 1


def test_block_measure_requires_embedding():
    small = block_from_word("ab", start=0)
    with pytest.raises(ValueError):
        block_measure(small, 1)


def test_value_full_pattern_is_stored_mass():
    mu = block_measure(WORD, 1)
    assert cylinder_mass(mu, ABA) == Fraction(2, 5)


def test_value_uniform_marginal():
    masses = {
        Block(F1, 1, (2,), bits): Fraction(1, 8)
        for bits in itertools.product((0, 1), repeat=3)
    }
    mu = CylinderMeasure(1, F1, masses)
    for bits in itertools.product((0, 1), repeat=3):
        assert cylinder_mass(mu, Block(F1, 1, (2,), bits)) == Fraction(1, 8)


def test_value_uniform_marginal_by_extension_sum():
    # deeper uniform measure marginalized to level 1 on F_1: still 1/8
    base2 = folner_box(2, 1)
    patterns = list(itertools.product((0, 1), repeat=5))
    masses = {
        Block(base2, 2, (2, 1), bits + (0,) * 5): Fraction(1, 32) for bits in patterns
    }
    mu = CylinderMeasure(2, base2, masses, (2, 1))
    for bits in itertools.product((0, 1), repeat=3):
        assert cylinder_mass(mu, Block(F1, 1, (2,), bits)) == Fraction(1, 8)


def test_value_partition_sums_to_one():
    stack = AlphabetStack((2, 2))
    block = sample_bernoulli(Shape.interval(-9, 9), stack, [[0.5, 0.5], [0.5, 0.5]], seed=5)
    mu = block_measure(block, 2)
    # marginal to level 1 over all patterns
    total = sum(mu.marginal(F1, 1).values())
    assert total == 1


def _bernoulli_measure(dim: int, side: int, sizes: tuple[int, ...], seed: int) -> CylinderMeasure:
    window = Shape.box((0,) * dim, (side - 1,) * dim)
    probs = [[Fraction(1, size)] * size for size in sizes]
    return block_measure(sample_bernoulli(window, AlphabetStack(sizes), probs, seed), len(sizes))


def _written_and_read(tmp_path, mu: CylinderMeasure) -> CylinderMeasure:
    files.write_measure(tmp_path / "mu.json", mu)
    return files.read_measure(tmp_path / "mu.json")


FULL_MARGINAL_MEASURES = {
    "constructor": lambda tmp_path: CylinderMeasure(
        1, F1, {AAB: Fraction(1, 6), ABA: Fraction(1, 3), BAB: Fraction(1, 2)}
    ),
    "block-measure-1d": lambda tmp_path: _bernoulli_measure(1, 15, (2, 3), seed=8),
    "block-measure-2d": lambda tmp_path: _bernoulli_measure(2, 6, (2,), seed=9),
    "mix": lambda tmp_path: mix(
        [Fraction(1, 3), Fraction(2, 3)],
        [_bernoulli_measure(1, 12, (2, 2), seed=10), _bernoulli_measure(1, 12, (2, 2), seed=11)],
    ),
    "read-measure": lambda tmp_path: _written_and_read(
        tmp_path, _bernoulli_measure(1, 13, (3, 2), seed=12)
    ),
}


def _oracle_marginal(mu: CylinderMeasure, shape: Shape, level: int) -> dict[int, Fraction]:
    """The non-zero oracle masses of every pattern on shape x rows[1..level]."""
    sizes = mu.sizes[:level]
    out = {}
    for symbols in itertools.product(*(range(size) for size in sizes for _ in shape.points)):
        pattern = Block(shape, level, sizes, symbols)
        mass = oracle_measure_value(mu, pattern)
        if mass:
            out[code_of(pattern)] = mass
    return out


@pytest.mark.parametrize("build", FULL_MARGINAL_MEASURES.values(), ids=FULL_MARGINAL_MEASURES)
def test_the_full_marginal_is_the_atom_table(tmp_path, build):
    mu = build(tmp_path)
    full = mu.marginal(mu.base, mu.depth)
    assert full == mu.atoms() and list(full) == list(mu.atoms())
    assert dict(full) == {code_of(b): oracle_measure_value(mu, b) for b, _ in mu.items()}
    assert mu.marginal(mu.base, mu.depth) is full
    key = next(iter(full))
    with pytest.raises(TypeError):
        full.counts[key] = 0
    with pytest.raises(TypeError):
        full[key] = Fraction(0)
    with pytest.raises(AttributeError):
        full.total = 1
    # shallower marginals read afterwards still sum the atoms
    center = Shape.of([(0,) * mu.base.dim])
    shallower = [(center, 1)]
    if mu.depth > 1:
        shallower += [(mu.base, mu.depth - 1), (folner_box(1, mu.base.dim), 1)]
    for shape, level in shallower:
        assert dict(mu.marginal(shape, level)) == _oracle_marginal(mu, shape, level)


def test_measure_validation():
    with pytest.raises(ValueError):
        CylinderMeasure(1, F1, {AAB: Fraction(1, 2)})
    with pytest.raises(ValueError):
        CylinderMeasure(1, F1, {})


def test_mix_single():
    mu = block_measure(WORD, 1)
    assert mix([Fraction(1)], [mu]) == mu


def test_mix_two_point_masses():
    a = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (0, 0, 0)): Fraction(1)})
    b = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (1, 1, 1)): Fraction(1)})
    m = mix([Fraction(1, 2), Fraction(1, 2)], [a, b])
    assert cylinder_mass(m, Block(F1, 1, (2,), (0, 0, 0))) == Fraction(1, 2)
    assert cylinder_mass(m, Block(F1, 1, (2,), (1, 1, 1))) == Fraction(1, 2)


def test_mix_tile_weights():
    a = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (0, 0, 0)): Fraction(1)})
    b = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (1, 1, 1)): Fraction(1)})
    sizes = [5, 5]
    weights = [Fraction(s, sum(sizes)) for s in sizes]
    assert mix(weights, [a, b]) == mix([Fraction(1, 2), Fraction(1, 2)], [a, b])


def test_dist_k_self_zero():
    mu = block_measure(WORD, 1)
    assert dist(mu, mu, [word_family()]).levels == (0,)


def test_dist_k_worked_example():
    mu = block_measure(WORD, 1)  # aab:1/5 aba:2/5 bab:2/5
    nu = CylinderMeasure(1, F1, {ABA: Fraction(1)})
    assert dist(mu, nu, [word_family()]).levels == (Fraction(2, 5),)


def test_dist_k_point_masses():
    fam = word_family()
    a = CylinderMeasure(1, F1, {AAB: Fraction(1)})
    b = CylinderMeasure(1, F1, {BAB: Fraction(1)})
    assert dist(a, b, [fam]).levels == (Fraction(2, len(fam)),)


def test_dist_k_empty_family_errors():
    mu = block_measure(WORD, 1)
    with pytest.raises(ValueError, match="family at level 1 is empty"):
        dist(mu, mu, [BlockFamily(1, F1, (2,), ())])


def test_dist_self_interval():
    mu = block_measure(WORD, 1)
    d = dist(mu, mu, [word_family()])
    assert d.lower == 0 and d.tail == Fraction(1, 2)


def test_dist_single_level_example():
    mu = block_measure(WORD, 1)
    nu = CylinderMeasure(1, F1, {ABA: Fraction(1)})
    d = dist(mu, nu, [word_family()])
    assert d.lower == Fraction(1, 5)


def test_dist_tail_halves_per_level():
    stack = AlphabetStack((2, 2))
    block = sample_bernoulli(Shape.interval(-9, 9), stack, [[0.5, 0.5], [0.5, 0.5]], seed=6)
    corpus = Corpus(stack, (block,))
    from blockdyn.symbolic import enumerate_family

    fams = [enumerate_family(corpus, k) for k in (1, 2)]
    mu = block_measure(block, 2)
    d1 = dist(mu, mu, fams[:1])
    d2 = dist(mu, mu, fams)
    assert d2.tail * 2 == d1.tail


def test_dist_block_level_j_contributes_zero():
    mu = block_measure(WORD, 1)
    d = dist(WORD, mu, [word_family()])
    assert d.lower == 0


def test_dist_block_point_mass_example():
    nu = CylinderMeasure(1, F1, {ABA: Fraction(1)})
    d = dist(WORD, nu, [word_family()])
    assert d.lower == Fraction(1, 5)


def test_tail_depth_values():
    assert tail_depth(Fraction(1)) == 2
    assert tail_depth(Fraction(2)) == 1
    assert tail_depth(Fraction(1, 8)) == 5


def test_tail_depth_errors():
    with pytest.raises(ValueError):
        tail_depth(Fraction(0))
    with pytest.raises(ValueError):
        tail_depth(Fraction(5, 2))


def test_tail_premise_implies_certified_distance():
    # whenever every per-pattern gap stays below eps/2j with j = tail_depth,
    # the certified interval ends strictly below eps
    rng = random.Random(2024)
    stack = AlphabetStack((2, 1, 1))
    nonvacuous = 0
    for _ in range(30):
        eps = rng.choice([Fraction(1, 2), Fraction(1, 3)])
        j = tail_depth(eps)
        window = Shape.interval(-50, 50)
        block = sample_bernoulli(
            window, stack, [[0.5, 0.5], [1], [1]], seed=rng.randrange(2**30)
        )
        corpus = Corpus(stack, (block,))
        from blockdyn.symbolic import enumerate_family

        fams = [enumerate_family(corpus, k) for k in range(1, j + 1)]
        nu = block_measure(block, j)
        premise = True
        for fam in fams:
            table = freq_table(block, fam.base, fam.level)
            for b in fam.blocks:
                if abs(table.get(code_of(b), Fraction(0)) - cylinder_mass(nu, b)) >= eps / (2 * j):
                    premise = False
                    break
            if not premise:
                break
        if premise:
            nonvacuous += 1
            interval = dist(block, nu, fams)
            assert interval.lower + interval.tail < eps
    assert nonvacuous >= 10


def test_block_measure_gap_bound_holds_at_depth_two():
    stack = AlphabetStack((2, 2))
    f2 = folner_box(2, 1)
    rng = random.Random(99)
    for length in (30, 60):
        window = Shape.interval(-length, length)
        delta = invariance_ratio(window, f2) + Fraction(1, 1000)
        bound = block_measure_gap_bound(delta, len(f2))
        for _ in range(5):
            block = sample_bernoulli(
                window, stack, [[0.5, 0.5], [0.5, 0.5]], seed=rng.randrange(2**30)
            )
            mu = block_measure(block, 2)
            for level in (1, 2):
                base = folner_box(level, 1)
                table = freq_table(block, base, level)
                marg = mu.marginal(base, level)
                for key in set(table) | set(marg):
                    gap = abs(table.get(key, Fraction(0)) - marg.get(key, Fraction(0)))
                    assert gap <= bound
                    if level == 2:
                        assert gap == 0


def test_metric_axioms_random_triples():
    rng = random.Random(12)
    for _ in range(10):
        mu, nu, lam = (_random_measure(rng, SUPPORT) for _ in range(3))
        fams = _families_for([mu, nu, lam])
        ab, ba, al, bl = (dist(p, q, fams) for p, q in ((mu, nu), (nu, mu), (mu, lam), (nu, lam)))
        assert ab.levels == ba.levels
        assert all(c <= a + b for a, b, c in zip(ab.levels, bl.levels, al.levels))
        assert dist(mu, mu, fams).lower == 0


def test_identity_of_indiscernibles_at_truncation_depth():
    rng = random.Random(13)
    mu, nu = _random_measure(rng, SUPPORT), _random_measure(rng, SUPPORT)
    fams = _families_for([mu, nu])
    d = dist(mu, nu, fams)
    equal_marginals = all(cylinder_mass(mu, b) == cylinder_mass(nu, b) for fam in fams for b in fam.blocks)
    assert (d.lower == 0) == equal_marginals


def test_hull_single_vertex():
    mu = block_measure(WORD, 1)
    nu = CylinderMeasure(1, F1, {ABA: Fraction(1)})
    hd = dist_to_hull(mu, ConvexTarget((nu,)), [word_family()])
    assert hd.value == Fraction(1, 5) and hd.weights == (Fraction(1),)


def test_hull_vertex_of_target_is_at_zero():
    mu = block_measure(WORD, 1)
    nu = CylinderMeasure(1, F1, {ABA: Fraction(1)})
    hd = dist_to_hull(nu, ConvexTarget((nu, mu)), [word_family()])
    assert hd.value == 0
    assert hd.weights[0] == 1


def test_hull_midpoint_two_point_masses():
    a = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (0, 0, 0)): Fraction(1)})
    b = CylinderMeasure(1, F1, {Block(F1, 1, (2,), (1, 1, 1)): Fraction(1)})
    x = mix([Fraction(1, 2), Fraction(1, 2)], [a, b])
    fam = BlockFamily(1, F1, (2,), (0, 7))  # aaa and bbb
    target = ConvexTarget((a, b))
    hd = dist_to_hull(x, target, [fam])
    grid = grid_hull_distance(x, target, [fam], Fraction(1, 1000))
    assert hd.value == 0
    assert grid == 0
    assert hd.weights == (Fraction(1, 2), Fraction(1, 2))


def test_hull_solver_agrees_with_grid_on_random_instances():
    rng = random.Random(515)
    tol = Fraction(1, 1000)
    step = Fraction(1, 40)
    for _ in range(6):
        m = rng.choice([2, 3])
        measures = [_random_measure(rng, support=rng.randint(2, 5)) for _ in range(m + 1)]
        x, verts = measures[0], tuple(measures[1:])
        try:
            target = ConvexTarget(verts)
        except ValueError:
            continue
        fams = _families_for(measures)
        hd = dist_to_hull(x, target, fams)
        grid = grid_hull_distance(x, target, fams, step)
        assert hd.value <= grid + tol
        assert grid <= hd.value + 2 * step + tol


def test_hull_distance_is_lower_bound_for_distances_to_mixes():
    rng = random.Random(616)
    measures = [_random_measure(rng, SUPPORT) for _ in range(3)]
    x, verts = measures[0], tuple(measures[1:])
    target = ConvexTarget(verts)
    fams = _families_for(measures)
    hd = dist_to_hull(x, target, fams)
    for w0 in (Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)):
        point = mix([w0, 1 - w0], list(target.vertices))
        assert dist(x, point, fams).lower >= hd.value
