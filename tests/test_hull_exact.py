"""The hull distance is the exact minimum over the weight simplex, certified
by equal primal and dual values of one exact LP solve."""

import random
from fractions import Fraction

import pytest

from blockdyn.measures import ConvexTarget, _objective, _objective_terms, dist_to_hull
from blockdyn.verification import _families_for, _random_measure


def _sweep():
    """60 seeded instances with 3 to 6 vertices: (x, target, families)."""
    rng = random.Random(0)
    out = []
    for _ in range(60):
        m = rng.randint(3, 6)
        measures = [_random_measure(rng) for _ in range(m + 1)]
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
