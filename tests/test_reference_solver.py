"""solve_lp against HiGHS, a solver that shares no code with lpslice.

scipy is a test-only dependency: without it this module is skipped.
"""

import numpy as np
import pytest

from helpers import small_lp
from lpslice import SolveStatus, solve_lp
from lpslice.instances import make_preset, sample_costs

optimize = pytest.importorskip("scipy.optimize")


def _highs_value(p, c):
    res = optimize.linprog(c, A_ub=p.A, b_ub=p.b, bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def _assert_matches_highs(p, c):
    r = solve_lp(p, c)
    assert r.status is SolveStatus.OPTIMAL
    v = _highs_value(p, c)
    assert r.value == pytest.approx(v, abs=1e-7 * (1.0 + abs(v)))
    return r


@pytest.mark.parametrize("preset", ["randomlp-a", "packing-360"])
def test_preset_anchor_cost_matches_highs(preset):
    inst = make_preset(preset)
    _assert_matches_highs(inst.polytope, inst.c0)


def test_rounded_costs_on_degenerate_grid_match_highs_and_repeat_bitwise():
    inst = make_preset("grid-4")
    p = inst.polytope
    # integer costs tie between paths, so these optimal faces are not vertices
    costs = np.round(sample_costs(inst, 6, seed=3))
    first = [_assert_matches_highs(p, c) for c in costs]
    # solving other costs in between must not change any later answer
    for c, r in zip(costs[::-1], first[::-1]):
        again = solve_lp(p, c)
        assert again.basis_id == r.basis_id
        assert again.x.tobytes() == r.x.tobytes()


@pytest.mark.parametrize("d", [3, 12, 25, 50])
def test_random_bounded_lps_match_highs(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(3):
        p = small_lp(rng, d, 2 * d)
        _assert_matches_highs(p, rng.standard_normal(d))
