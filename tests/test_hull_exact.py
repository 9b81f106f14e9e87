"""The hull distance is the exact minimum over the weight simplex, certified
by equal primal and dual values of one exact LP solve, and the fraction-free
solve takes the pivots of the Fraction simplex kept in ``helpers``."""

import random
from fractions import Fraction
from math import lcm

import pytest

from blockdyn.group import Shape
from blockdyn.measures import (
    ConvexTarget,
    _hull_lp,
    _objective,
    _objective_terms,
    block_measure,
    dist_to_hull,
)
from blockdyn.symbolic import (
    AlphabetStack,
    Corpus,
    enumerate_family,
    sample_bernoulli,
)
from blockdyn.verification import SUPPORT, _families_for, _random_measure
from helpers import enumerate_full_family, fraction_hull_lp


def _sweep():
    """60 seeded instances with 3 to 6 vertices: (x, target, families)."""
    rng = random.Random(0)
    out = []
    for _ in range(60):
        m = rng.randint(3, 6)
        measures = [_random_measure(rng, SUPPORT) for _ in range(m + 1)]
        out.append((measures[0], ConvexTarget(tuple(measures[1:])), _families_for(measures)))
    return out


SWEEP = _sweep()


def _highs_minimum(terms, m):
    """min sum_i c_i e_i  s.t.  e_i >= |x_i - (V w)_i|, w on the simplex."""
    from scipy.optimize import linprog

    n = len(terms)
    c = [0.0] * m + [float(ci) for ci, _, _ in terms]
    a_ub, b_ub = [], []
    for i, (_, xv, vv) in enumerate(terms):
        for sign in (1.0, -1.0):
            row = [sign * float(v) for v in vv] + [0.0] * n
            row[m + i] = -1.0
            a_ub.append(row)
            b_ub.append(sign * float(xv))
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=[[1.0] * m + [0.0] * n], b_eq=[1.0],
        bounds=[(0, None)] * (m + n), method="highs",
    )
    assert res.status == 0
    return res.fun


def test_weights_on_simplex_and_value_is_objective_at_weights():
    for x, target, fams in SWEEP:
        hd = dist_to_hull(x, target, fams)
        assert len(hd.weights) == len(target)
        assert all(w >= 0 for w in hd.weights) and sum(hd.weights) == 1
        terms, den = _objective_terms(x, target, fams)
        assert hd.value == _objective(terms, hd.weights) / den
        assert hd.tail == Fraction(1, 4)


def test_value_matches_highs_on_sweep():
    pytest.importorskip("scipy")
    for x, target, fams in SWEEP:
        hd = dist_to_hull(x, target, fams)
        terms, den = _objective_terms(x, target, fams)
        terms = [(c, Fraction(xv, den), [Fraction(v, den) for v in vv]) for c, xv, vv in terms]
        assert abs(float(hd.value) - _highs_minimum(terms, len(target))) <= 1e-12


def test_pinned_instance_where_descent_stalled():
    # Pairwise coordinate descent stopped at 7615/136224 here.
    x, target, fams = SWEEP[37]
    hd = dist_to_hull(x, target, fams)
    assert hd.value == Fraction(14765, 272448)
    assert hd.weights == (0, 0, 0, Fraction(1523, 1892), Fraction(369, 1892))


QUARTERS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _random_instances(count):
    """Seeded instances with 1 to 6 vertices; every fifth x is a vertex, so
    its optimum is 0 and degenerate."""
    rng = random.Random(20)
    out = []
    while len(out) < count:
        verts = [_random_measure(rng, support=rng.randint(2, 8)) for _ in range(rng.randint(1, 6))]
        try:
            target = ConvexTarget(tuple(verts))
        except ValueError:  # two equal vertices
            continue
        x = rng.choice(verts) if len(out) % 5 == 0 else _random_measure(rng, rng.randint(2, 8))
        out.append((x, target, _families_for([x, *verts])))
    return out


def _deep_instances(depth, count):
    """1-D block measures of depth 2 or 3 on the families of their blocks
    at every level, kept where L, the lcm of the coefficient denominators,
    exceeds each one."""
    stack = AlphabetStack((2,) * depth)
    rest = [[Fraction(1, 2)] * 2] * (depth - 1)
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        blocks = [
            sample_bernoulli(Shape.interval(0, cells - 1), stack, [[1 - p, p], *rest], 100 * seed + i)
            for i, (p, cells) in enumerate([(p, 40) for p in QUARTERS] + [(Fraction(1, 2), 60)])
        ]
        *verts, x = [block_measure(b, depth) for b in blocks]
        corpus = Corpus(stack, tuple(blocks))
        fams = [enumerate_family(corpus, k) for k in range(1, depth + 1)]
        inst = (x, ConvexTarget(tuple(verts)), fams)
        coeffs = [c.denominator for c, _, _ in _objective_terms(*inst)[0]]
        if lcm(*coeffs) > max(coeffs):
            out.append(inst)
    return out


def _planar_instance():
    """A 2-D level-1 instance on all 512 patterns of the 3 x 3 box."""
    stack = AlphabetStack((2,))

    def measure(p, side, seed):
        window = Shape.box((0, 0), (side - 1, side - 1))
        return block_measure(sample_bernoulli(window, stack, [[1 - p, p]], seed), 1)

    verts = [measure(p, 16, i) for i, p in enumerate(QUARTERS)]
    return measure(Fraction(1, 2), 24, 9), ConvexTarget(tuple(verts)), [enumerate_full_family(stack, 1, 2)]


def _tied_lps(count):
    """LP inputs (terms, den, m) of small integers with many equal terms, so
    that reduced costs and ratio-test steps tie."""
    rng = random.Random(21)
    out = []
    for _ in range(count):
        m, high = rng.randint(2, 6), rng.choice((1, 2, 4))
        terms = [
            (Fraction(1, rng.randint(1, 3)), rng.randint(0, high),
             tuple(rng.randint(0, high) for _ in range(m)))
            for _ in range(rng.randint(2, 10))
        ]
        out.append((terms, rng.choice((1, 2, 5, 12)), m))
    return out


def _lps(instances):
    """The LP input (terms, den, m) of each (x, target, families) instance."""
    return [(*_objective_terms(x, t, fams), len(t)) for x, t, fams in instances]


@pytest.mark.parametrize(
    "lps",
    [
        pytest.param(lambda: _lps(SWEEP), id="sweep"),
        pytest.param(lambda: _lps(_random_instances(600)), id="random-600"),
        pytest.param(lambda: _lps(_deep_instances(2, 10)), id="depth-2"),
        pytest.param(lambda: _lps(_deep_instances(3, 10)), id="depth-3"),
        pytest.param(lambda: _lps([_planar_instance()]), id="planar-512"),
        pytest.param(lambda: _tied_lps(2000), id="ties-2000"),
    ],
)
def test_integer_solve_equals_fraction_reference(lps):
    for terms, den, m in lps():
        assert _hull_lp(terms, m, den) == fraction_hull_lp(terms, m, den)


def test_reference_instances_cover_degenerate_and_large_solves():
    rand = _random_instances(600)
    assert {len(t) for _, t, _ in rand} == set(range(1, 7))
    assert sum(x in t.vertices for x, t, _ in rand) == 120
    assert len(_objective_terms(*_planar_instance())[0]) == 512
