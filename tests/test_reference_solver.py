"""solve_lp against HiGHS, a solver that shares no code with lpslice.

scipy is a test-only dependency: without it this module is skipped.
"""

import numpy as np
import pytest

from helpers import EPS_FACE, boxed_lp, every_breakpoint_flips_lp, small_lp
from lpslice import SolveStatus, check_exact, compression, learn, lp_core, make_anchor, solve_lp, solve_via_compression
from lpslice.instances import PRESETS, STREAM_TEST, gen_instance, make_preset, sample_costs
from lpslice.linalg import complete_basis
from lpslice.tolerances import TAU_CONTAIN

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


# maxflow-300, mincostflow-360 and grid-16 are where cold pivots are sparsest
@pytest.mark.parametrize("preset", ["randomlp-a", "packing-360", "maxflow-300", "mincostflow-360", "grid-16"])
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


def test_cold_solves_that_flip_bounds_match_highs():
    # boxed LPs above lp_core._SPLIT_DIM, where cold solves flip bound
    # rows: scaled bound rows, boxes of width 0, one-sided bounds and two
    # upper rows on one coordinate; and a box whose every breakpoint flips
    for seed in range(4):
        rng = np.random.default_rng(400 + seed)
        d = int(rng.integers(lp_core._SPLIT_DIM + 1, 90))
        p = boxed_lp(rng, d, d // 2)
        for _ in range(2):
            _assert_matches_highs(p, rng.standard_normal(d))
    p, c = every_breakpoint_flips_lp(np.random.default_rng(8), 80)
    assert solve_lp(p, c).status is SolveStatus.INFEASIBLE
    res = optimize.linprog(c, A_ub=p.A, b_ub=p.b, bounds=(None, None), method="highs")
    assert res.status == 2  # HiGHS: infeasible


def _highs_face_deviation(p, c, band, model):
    """Largest |q . (x - x0)| over columns q of complete_basis(Q), a basis of
    the complement of the slice, and points x of {x in X : c.x <= v + band},
    v the HiGHS optimal value."""
    A_face = np.vstack([p.A, c])
    b_face = np.append(p.b, _highs_value(p, c) + band)
    dev = 0.0
    for q in complete_basis(model.Q).T:
        for sign in (1.0, -1.0):
            res = optimize.linprog(sign * q, A_ub=A_face, b_ub=b_face, bounds=(None, None), method="highs")
            assert res.status == 0, res.message
            dev = max(dev, abs(sign * res.fun - q @ model.x0))
    return dev


def test_check_exact_is_bracketed_by_highs_face_checks():
    # learned integer-cost grid-4 model.  The face thickened by the EPS_FACE
    # band is what the tests' referee sees, and it contains the optimal face
    # itself (band 0), so check_exact must say True when HiGHS finds the
    # thickened face in the slice and False when HiGHS finds the face itself
    # outside it.
    inst = make_preset("grid-4")
    p = inst.polytope
    s = float(np.mean(np.abs(inst.c0)))
    costs = np.round(inst.c0 + np.random.default_rng(5).uniform(-s, s, (20, inst.d)))
    model, _ = learn(p, make_anchor(p, inst.c0), costs[:8])
    tau = TAU_CONTAIN * (1.0 + float(np.linalg.norm(model.x0)))
    verdicts = set()
    for c in costs[8:]:
        exact = check_exact(model, p, c)
        band = EPS_FACE * (1.0 + abs(_highs_value(p, c)))
        if _highs_face_deviation(p, c, band, model) <= tau:
            assert exact
        if _highs_face_deviation(p, c, 0.0, model) > tau:
            assert not exact
        verdicts.add(exact)
    assert verdicts == {True, False}


def _assert_started_matches_highs(p, c, start):
    r = solve_lp(p, c, start=start)
    assert r.status is SolveStatus.OPTIMAL
    assert p.contains(r.x)
    v = _highs_value(p, c)
    assert r.value == pytest.approx(v, abs=1e-7 * (1.0 + abs(v)))


@pytest.mark.parametrize("preset", ["randomlp-a", "packing-360"])
def test_vertex_started_solves_match_highs(preset):
    inst = make_preset(preset)
    p = inst.polytope
    x0 = make_anchor(p, inst.c0)
    for c in sample_costs(inst, 5, seed=11):
        _assert_started_matches_highs(p, c, x0)


def test_vertex_started_solves_from_a_degenerate_anchor_match_highs():
    inst = make_preset("grid-4")
    p = inst.polytope
    x0 = make_anchor(p, inst.c0)
    active = np.abs(p.b - p.A @ x0) <= 1e-9 * (1.0 + np.abs(p.b))
    assert active.sum() > p.d  # more active rows than a basis holds
    for c in np.round(sample_costs(inst, 8, seed=12)):
        _assert_started_matches_highs(p, c, x0)


def test_certified_serves_on_a_learned_grid_match_highs():
    inst = make_preset("grid-4")
    p = inst.polytope
    s = float(np.mean(np.abs(inst.c0)))
    costs = np.round(inst.c0 + np.random.default_rng(5).uniform(-s, s, (24, inst.d)))
    model, _ = learn(p, make_anchor(p, inst.c0), costs[:8])
    certified = [c for c in costs[8:] if check_exact(model, p, c)]
    assert certified
    for c in certified:
        r = solve_via_compression(model, p, c)
        v = _highs_value(p, c)
        assert r.value == pytest.approx(v, abs=1e-7 * (1.0 + abs(v)))


def _widened_randomlp(factor):
    params = PRESETS["randomlp-a"]["params"]
    cost = {**params["cost"], "R": factor * params["cost"]["R"], "R_C": factor * params["cost"]["R_C"]}
    return gen_instance("randomlp", {**params, "cost": cost}, 0)


@pytest.mark.parametrize("name,n", [("packing-360", 30), ("randomlp-a-wide", 8)])
def test_verdicts_decided_at_the_served_vertex_agree_with_highs(name, n):
    # a decided True certifies the served value as the optimum; a decided
    # False says the serve is not optimal, so HiGHS must find a lower value.
    # Models of n training costs, chosen so that both verdicts are decided
    inst = make_preset(name) if name == "packing-360" else _widened_randomlp(30)
    p = inst.polytope
    model, _ = learn(p, make_anchor(p, inst.c0), sample_costs(inst, n, seed=0))
    seen = set()
    for c in sample_costs(inst, 20, seed=6, stream=STREAM_TEST):
        verdict = compression._verdict_at_served_vertex(model, p, c)
        if verdict is None:
            continue
        seen.add(verdict)
        served, v = solve_via_compression(model, p, c).value, _highs_value(p, c)
        if verdict:
            assert served == pytest.approx(v, abs=1e-7 * (1.0 + abs(v)))
        else:
            assert v < served  # by 5.4e-6 on one randomlp cost, within the value tolerance above
    assert seen == {True, False}


def test_a_started_solve_that_ends_on_a_dual_ray_finishes_cold(monkeypatch):
    # randomlp-a under its law widened 100 times (rank 22): the reduced
    # LP's started dual simplex ends with y_B >= 0, but its closing pricing
    # finds a reduced cost of -3.7e-6 and phase two reports a ray, which a
    # reduced LP holding z = 0 cannot have.  The serve finishes with the
    # cold solve, whose value is HiGHS's, and the check certifies it
    inst = _widened_randomlp(100)
    p = inst.polytope
    model, _ = learn(p, make_anchor(p, inst.c0), sample_costs(inst, 60, seed=0))
    assert model.rank == 22
    c = sample_costs(inst, 1, 2, start=128, stream=STREAM_TEST)[0]
    cold = []
    real = lp_core._simplex
    monkeypatch.setattr(lp_core, "_simplex", lambda *a: cold.append(a[0].shape) or real(*a))
    r = solve_via_compression(model, p, c)
    assert cold == [(model.rank, p.m)]  # A^T of the reduced LP
    v = _highs_value(p, c)
    assert r.value == pytest.approx(v, abs=1e-7 * (1.0 + abs(v)))
    assert check_exact(model, p, c)
