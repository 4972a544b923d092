import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    BOUND_KINDS,
    boxed_lp,
    dense_dual_simplex,
    dense_eliminate,
    every_breakpoint_flips_lp,
    lu_basis_inverse,
    lu_basis_solve,
    small_lp,
    solve_on_optimal_face,
    tableau_simplex,
)
from lpslice import (
    FeasibilityStatus,
    GeneralLP,
    InternalError,
    Polytope,
    RejectedInstance,
    SolveStatus,
    check_feasible_bounded,
    contains_optimal_face,
    learn,
    normalize_to_inequality_form,
    solve_lp,
    solve_via_compression,
)
from lpslice import lp_core
from lpslice.lp_core import (
    VertexStart,
    dump_json,
    load_json,
    polytope_from_json,
    polytope_to_json,
)
from lpslice.instances import PRESETS, STREAM_TEST, gen_instance, make_preset, sample_costs
from lpslice.learner import make_anchor
from lpslice.oracle import enumerate_vertices
from lpslice.tolerances import MULTIPLIER_TOL, VALUE_TOL


def test_polytope_validation():
    with pytest.raises(ValueError):
        Polytope(np.array([[1.0, np.inf]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Polytope(np.zeros((0, 2)), np.zeros(0))
    p = Polytope(np.array([[1.0, 0.0]]), np.array([2.0]))
    assert p.d == 2 and p.m == 1
    assert p.contains(np.array([1.9, 5.0]))
    assert not p.contains(np.array([2.1, 0.0]))


def test_solve_generic_cost_square(square):
    r = solve_lp(square, np.array([-1.5, 0.3]))
    assert r.status is SolveStatus.OPTIMAL
    assert r.value == pytest.approx(-1.8, abs=1e-12)
    assert np.allclose(r.x, [1.0, -1.0], atol=1e-12)
    assert r.basis_id == (0, 3)
    # dual multipliers are nonnegative and complementary to the basis rows
    assert np.all(r.y >= -1e-12)
    assert r.y @ square.b == pytest.approx(-r.value, abs=1e-9)


def test_solve_zero_cost_returns_a_vertex(square):
    r = solve_lp(square, np.zeros(2))
    assert r.status is SolveStatus.OPTIMAL
    assert r.value == 0.0
    assert np.allclose(r.x, [1.0, 1.0])
    assert r.basis_id == (0, 2)


def test_zero_cost_on_randomlp_returns_a_vertex_without_wandering():
    # every point is optimal for c = 0; the cold dual simplex used to pivot
    # through degenerate bases until its iteration limit at d = 140
    p = make_preset("randomlp-a").polytope
    r = solve_lp(p, np.zeros(p.d))
    assert r.status is SolveStatus.OPTIMAL
    assert r.value == 0.0 and not r.y.any() and r.y.shape == (p.m,)
    assert p.contains(r.x)
    active = np.abs(p.b - p.A @ r.x) <= 1e-9 * (1.0 + np.abs(p.b))
    assert np.linalg.matrix_rank(p.A[active]) == p.d  # a vertex: d independent active rows
    assert set(r.basis_id) <= set(np.flatnonzero(active))
    anchor = make_anchor(p, np.zeros(p.d))
    assert anchor.tobytes() == r.x.tobytes()
    empty = Polytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -2.0]))
    assert solve_lp(empty, np.zeros(1)).status is SolveStatus.INFEASIBLE


def test_solve_unbounded_half_space():
    p = Polytope(np.array([[-1.0]]), np.array([0.0]))
    r = solve_lp(p, np.array([-1.0]))
    assert r.status is SolveStatus.UNBOUNDED
    assert r.x is None and r.value is None
    # bounded direction on the same set is fine: min x over x >= 0
    r2 = solve_lp(p, np.array([1.0]))
    assert r2.status is SolveStatus.OPTIMAL
    assert r2.value == pytest.approx(0.0)


def test_solve_infeasible():
    p = Polytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -2.0]))  # x <= -1, x >= 2
    assert solve_lp(p, np.array([1.0])).status is SolveStatus.INFEASIBLE


def test_solve_dimension_zero_polytope():
    assert solve_lp(Polytope(np.zeros((1, 0)), np.array([1.0])), np.zeros(0)).status is SolveStatus.OPTIMAL
    assert solve_lp(Polytope(np.zeros((1, 0)), np.array([-1.0])), np.zeros(0)).status is SolveStatus.INFEASIBLE


def test_solve_matches_vertex_enumeration_on_random_lps():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        p = small_lp(rng, d, int(rng.integers(d + 1, 8)))
        vs = enumerate_vertices(p)
        V = vs.vertices
        for _ in range(3):
            c = rng.standard_normal(d)
            r = solve_lp(p, c)
            assert r.status is SolveStatus.OPTIMAL
            best = float(np.min(V @ c))
            assert r.value == pytest.approx(best, rel=1e-9, abs=1e-9)
            # the returned point is one of the enumerated vertices
            assert np.min(np.linalg.norm(V - r.x, axis=1)) < 1e-7


def test_solve_on_optimal_face_edge(square):
    c = np.array([-1.0, 0.0])  # optimal face is the right edge
    hi = solve_on_optimal_face(square, c, -1.0, np.array([0.0, 1.0]), "max")
    lo = solve_on_optimal_face(square, c, -1.0, np.array([0.0, 1.0]), "min")
    assert hi.value == pytest.approx(1.0, abs=1e-7)
    assert np.allclose(hi.x, [1.0, 1.0], atol=1e-6)
    assert lo.value == pytest.approx(-1.0, abs=1e-7)
    assert np.allclose(lo.x, [1.0, -1.0], atol=1e-6)


def test_solve_on_optimal_face_unique_vertex(square):
    c = np.array([-1.0, -0.5])
    a = np.array([0.3, 0.7])
    r = solve_on_optimal_face(square, c, -1.5, a, "max")
    assert np.allclose(r.x, [1.0, 1.0], atol=1e-6)
    assert r.value == pytest.approx(1.0, abs=1e-6)


def test_check_feasible_bounded_trichotomy(square):
    assert check_feasible_bounded(square) is FeasibilityStatus.FEASIBLE_BOUNDED
    half = Polytope(np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([0.0, 1.0, 1.0]))
    assert check_feasible_bounded(half) is FeasibilityStatus.UNBOUNDED
    empty = Polytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -2.0]))
    assert check_feasible_bounded(empty) is FeasibilityStatus.INFEASIBLE


def test_check_feasible_bounded_needs_full_rank_and_a_positive_dual():
    # a strip contains a line (rank 1 < d); a quadrant is a pointed cone with
    # full rank but no y > 0 with A^T y = 0
    strip = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.ones(2))
    assert check_feasible_bounded(strip) is FeasibilityStatus.UNBOUNDED
    quadrant = Polytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones(2))
    assert check_feasible_bounded(quadrant) is FeasibilityStatus.UNBOUNDED


def test_check_feasible_bounded_matches_coordinate_direction_solves():
    # referee: X is unbounded iff min of +-e_i over X is unbounded for some i
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(30):
        d = int(rng.integers(2, 5))
        p = small_lp(rng, d, int(rng.integers(d, 2 * d + 2)))
        keep = rng.random(p.m) < 0.8
        if not keep.any():
            continue
        q = Polytope(p.A[keep], p.b[keep])
        unbounded = any(
            solve_lp(q, s * np.eye(d)[i]).status is SolveStatus.UNBOUNDED for i in range(d) for s in (1.0, -1.0)
        )
        want = FeasibilityStatus.UNBOUNDED if unbounded else FeasibilityStatus.FEASIBLE_BOUNDED
        assert check_feasible_bounded(q) is want
        seen.add(want)
    assert len(seen) == 2


def test_normalize_sense_flip_round_trip():
    g = GeneralLP(
        sense="max",
        c=np.array([2.0, 1.0]),
        A=np.array([[1.0, 1.0]]),
        rel=("<=",),
        rhs=np.array([1.0]),
        lo=np.zeros(2),
        hi=np.full(2, np.inf),
    )
    poly, c, offset, vmap = normalize_to_inequality_form(g)
    assert offset == 0.0
    r = solve_lp(poly, c)
    # max 2x+y over the simplex is 2 at (1, 0)
    assert vmap.original_value(r.value) == pytest.approx(2.0)
    assert np.allclose(vmap.original_solution(r.x), [1.0, 0.0], atol=1e-9)


def test_normalize_equality_split_and_shift():
    # min 3x s.t. x = 4, 2 <= x <= 5: the bound shift moves the feasible
    # box to [0, 3] and contributes offset c.shift = 6
    g = GeneralLP(
        sense="min",
        c=np.array([3.0]),
        A=np.array([[1.0]]),
        rel=("=",),
        rhs=np.array([4.0]),
        lo=np.array([2.0]),
        hi=np.array([5.0]),
    )
    poly, c, offset, vmap = normalize_to_inequality_form(g)
    assert offset == pytest.approx(6.0)
    assert poly.m == 4  # split pair + two bound rows
    r = solve_lp(poly, c)
    assert vmap.original_value(r.value) == pytest.approx(12.0)
    assert vmap.original_solution(r.x) == pytest.approx([4.0])


def test_normalize_objective_constant_is_folded():
    g = GeneralLP(
        sense="min",
        c=np.array([1.0]),
        A=np.array([[1.0]]),
        rel=(">=",),
        rhs=np.array([1.0]),
        lo=np.array([0.0]),
        hi=np.array([10.0]),
        obj_constant=7.0,
    )
    poly, c, offset, vmap = normalize_to_inequality_form(g)
    r = solve_lp(poly, c)
    assert vmap.original_value(r.value) == pytest.approx(8.0)


def test_normalize_rejects_doubly_free_variable():
    g = GeneralLP(
        sense="min",
        c=np.array([1.0, 1.0]),
        A=np.array([[1.0, 1.0]]),
        rel=("<=",),
        rhs=np.array([1.0]),
        lo=np.array([0.0, -np.inf]),
        hi=np.array([np.inf, np.inf]),
    )
    with pytest.raises(RejectedInstance):
        normalize_to_inequality_form(g)


def test_normalize_upper_bound_only_variable_kept():
    # lo = -inf with finite hi keeps the variable unshifted with one row
    g = GeneralLP(
        sense="min",
        c=np.array([1.0]),
        A=np.array([[-1.0]]),
        rel=("<=",),
        rhs=np.array([3.0]),  # -x <= 3, i.e. x >= -3
        lo=np.array([-np.inf]),
        hi=np.array([5.0]),
    )
    poly, c, offset, vmap = normalize_to_inequality_form(g)
    assert offset == 0.0
    r = solve_lp(poly, c)
    assert vmap.original_value(r.value) == pytest.approx(-3.0)


def test_json_round_trip_is_stable(tmp_path, square):
    doc = polytope_to_json(square)
    path = tmp_path / "p.json"
    dump_json(doc, path)
    text1 = path.read_text()
    p2 = polytope_from_json(load_json(path))
    assert np.array_equal(p2.A, square.A) and np.array_equal(p2.b, square.b)
    dump_json(polytope_to_json(p2), path)
    assert path.read_text() == text1


def test_degenerate_and_redundant_rows_still_give_vertex(square):
    # duplicate a tight row and add a redundant one; solver must not stall
    A = np.vstack([square.A, square.A[0], np.array([1.0, 1.0])])
    b = np.concatenate([square.b, [1.0, 2.0]])
    p = Polytope(A, b)
    r = solve_lp(p, np.array([-1.0, -1.0]))
    assert r.status is SolveStatus.OPTIMAL
    assert r.value == pytest.approx(-2.0)
    assert np.allclose(r.x, [1.0, 1.0], atol=1e-9)


def _beale(max_iter):
    """Beale's (1955) LP, min c.w s.t. M w = q, w >= 0, pivoted by
    ``_primal`` from the slack basis: (pivots, objective, reduced costs)."""
    M = np.array(
        [
            [1.0, 0.0, 0.0, 1 / 4, -60.0, -1 / 25, 9.0],
            [0.0, 1.0, 0.0, 1 / 2, -90.0, -1 / 50, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    c = np.array([0.0, 0.0, 0.0, -3 / 4, 150.0, -1 / 50, 6.0])
    W = np.hstack([np.eye(3), [[0.0], [0.0], [1.0]]])  # [B^-1 | x_B]
    basis, z = np.array([0, 1, 2]), c.copy()
    it = lp_core._primal(M, W, basis, z, 1e-9, max_iter)
    return it, float(c[basis] @ W[:, -1]), z


def test_pivot_loop_does_not_cycle_on_beale_example(monkeypatch):
    # Beale (1955): from the slack basis, largest-coefficient pricing with
    # lowest-index ties cycles through six degenerate bases forever; the
    # fallback to Bland's rule after a run of degenerate pivots breaks it
    max_iter = 2000
    it, value, z = _beale(max_iter)
    assert 0 <= it <= 2 * lp_core._DEGENERATE_RUN < max_iter
    assert value == pytest.approx(-1 / 20, abs=1e-12)
    assert np.all(z >= -1e-9)
    # without the fallback, Dantzig's rule cycles until the iteration limit
    monkeypatch.setattr(lp_core, "_DEGENERATE_RUN", max_iter + 1)
    with pytest.raises(InternalError, match="iteration limit"):
        _beale(max_iter)


def test_phase_one_reports_no_ray_when_its_objective_is_already_zero():
    # column 1 prices in at -9e-9 (past -tol_rc) but every entry is below the
    # pivot cutoff; phase one is bounded below by 0, so this is rounding and
    # w = 0 is the answer (it raised "phase-one objective unbounded below zero")
    M = np.zeros((100, 2))
    M[:, 0] = -1.0
    M[:, 1] = 0.9e-10
    status, w, _ = lp_core._simplex(M, np.zeros(100), np.ones(2))
    assert status == "optimal"
    assert np.array_equal(w, np.zeros(2))


def _same_result(r, s):
    return (
        r.status is s.status
        and r.value == s.value
        and r.basis_id == s.basis_id
        and (r.x is None) == (s.x is None)
        and (r.x is None or r.x.tobytes() == s.x.tobytes())
    )


def test_vertex_start_on_square(square, monkeypatch):
    calls = []
    real = lp_core._simplex
    monkeypatch.setattr(lp_core, "_simplex", lambda *a: calls.append(1) or real(*a))
    c = np.array([-1.5, 0.3])
    for v in ([1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]):
        r = solve_lp(square, c, start=np.array(v))
        assert r.basis_id == (0, 3)
        assert np.array_equal(r.x, [1.0, -1.0])
    assert calls == []  # no phase one from a vertex
    # an edge point or the centre is not a vertex: the cold solve, bitwise
    cold = solve_lp(square, c)
    assert len(calls) == 1
    for x in ([1.0, 0.0], [0.0, 0.0]):
        assert _same_result(solve_lp(square, c, start=np.array(x)), cold)
    with pytest.raises(ValueError):
        solve_lp(square, c, start=np.array([1.5, 0.0]))
    with pytest.raises(ValueError):
        solve_lp(square, c, start=np.zeros(3))


def test_vertex_start_degenerate_and_singular_active_sets(square, monkeypatch):
    # rows 0 and 1 are the same and four rows are active at (1, 1): the
    # first two independent ones, rows 0 and 3, start the solve
    A = np.vstack([square.A[:1], square.A, [1.0, 1.0]])
    p = Polytope(A, np.concatenate([[1.0], square.b, [2.0]]))
    assert VertexStart.at(p, np.array([1.0, 1.0])).active == 4
    assert VertexStart.at(square, np.array([1.0, 1.0])).active == 2
    calls = []
    real = lp_core._simplex
    monkeypatch.setattr(lp_core, "_simplex", lambda *a: calls.append(1) or real(*a))
    for c in (np.array([-1.0, -2.0]), np.array([1.0, 0.5]), np.array([-1.0, 3.0])):
        warm = solve_lp(p, c, start=np.array([1.0, 1.0]))
        assert calls == []
        cold = solve_lp(p, c)
        calls.clear()
        assert warm.value == pytest.approx(cold.value, abs=1e-12)
        assert p.contains(warm.x)
    # on the edge x1 = 1 only rows 0 and 1 are active, and they are not a
    # basis: the start is not a vertex, so the solve is the cold one
    edge = np.array([1.0, 0.0])
    c = np.array([0.3, -1.0])
    assert _same_result(solve_lp(p, c, start=edge), solve_lp(p, c))


def test_vertex_start_reports_unbounded_without_the_farkas_solve(monkeypatch):
    quadrant = Polytope(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.zeros(2))
    monkeypatch.setattr(lp_core, "_simplex", None)  # the vertex path must not need it
    assert solve_lp(quadrant, np.array([-1.0, 0.5]), start=np.zeros(2)).status is SolveStatus.UNBOUNDED
    assert solve_lp(quadrant, np.array([1.0, 0.5]), start=np.zeros(2)).value == 0.0


def test_vertex_start_on_dimension_zero():
    p = Polytope(np.zeros((1, 0)), np.array([1.0]))
    assert solve_lp(p, np.zeros(0), start=np.zeros(0)).status is SolveStatus.OPTIMAL
    # the one point of R^0 is a vertex with no basis rows: the reduced LP of a rank-0 model
    start = VertexStart.at(p, np.zeros(0))
    assert start.rows.size == 0 and start.x.shape == (0,)
    assert _same_result(solve_lp(p, np.zeros(0), start=start), solve_lp(p, np.zeros(0), start=np.zeros(0)))
    with pytest.raises(ValueError):
        solve_lp(Polytope(np.zeros((1, 0)), np.array([-1.0])), np.zeros(0), start=np.zeros(0))


@pytest.mark.parametrize("run", [lp_core._DEGENERATE_RUN, 0])
def test_vertex_start_matches_cold_on_random_lps(run, monkeypatch):
    # run 0 puts the dual simplex on Bland's rule from the first pivot
    monkeypatch.setattr(lp_core, "_DEGENERATE_RUN", run)
    closings, primal_pivots = [], []
    real_close, real_primal = lp_core._close, lp_core._primal

    def close(*args):
        closings.append(1)
        return real_close(*args)

    def counted(*args, **kwargs):
        primal_pivots.append(real_primal(*args, **kwargs))
        return primal_pivots[-1]

    monkeypatch.setattr(lp_core, "_close", close)
    monkeypatch.setattr(lp_core, "_primal", counted)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        p = small_lp(rng, d, int(rng.integers(d + 1, 3 * d)))
        x0 = solve_lp(p, rng.standard_normal(d)).x
        for _ in range(3):
            c = rng.standard_normal(d)
            cold = solve_lp(p, c)
            closings.clear()
            primal_pivots.clear()
            warm = solve_lp(p, c, start=x0)
            # the dual simplex ends optimal: the closing cold optimality
            # test runs once and prices out, so no primal pass follows
            assert closings == [1]
            assert primal_pivots == []
            # generic costs: the optimum is a nondegenerate vertex, one basis
            assert warm.basis_id == cold.basis_id
            assert warm.x.tobytes() == cold.x.tobytes()
            assert warm.value == cold.value


def test_vertex_start_is_read_only_and_tied_to_its_polytope(square):
    start = VertexStart.at(square, np.array([1.0, -1.0]))
    assert start.rows.tolist() == [0, 3]
    for a in (start.rows, start.inv, start.x, start.slack):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        start.inv[0, 0] = 2.0
    c = np.array([-1.5, 0.3])
    # a polytope with the same A and b fits; any other is refused
    twin = Polytope(square.A.copy(), square.b.copy())
    assert _same_result(solve_lp(twin, c, start=start), solve_lp(square, c, start=start))
    for other in (Polytope(square.A, 2.0 * square.b), Polytope(square.A[::-1], square.b)):
        with pytest.raises(ValueError, match="another polytope"):
            solve_lp(other, c, start=start)
    # not a vertex: no start; not a point of X: ValueError
    assert VertexStart.at(square, np.array([1.0, 0.0])) is None
    with pytest.raises(ValueError):
        VertexStart.at(square, np.array([1.5, 0.0]))


def test_a_start_that_prices_out_returns_the_cold_x_bitwise(monkeypatch):
    # stage one: no pivot, and the start's own x is the cold
    # post-processing of its rows, so it is the cold answer bit for bit
    pivots = []
    real = lp_core._eliminate
    monkeypatch.setattr(lp_core, "_eliminate", lambda *a: pivots.append(1) or real(*a))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        p = small_lp(rng, d, int(rng.integers(d + 1, 3 * d)))
        c = rng.standard_normal(d)
        cold = solve_lp(p, c)
        start = VertexStart.at(p, cold.x)
        pivots.clear()
        for s in (start, cold.x):  # a carried start and a one-shot one
            warm = solve_lp(p, c, start=s)
            assert warm.x.tobytes() == cold.x.tobytes()
            assert (warm.value, warm.basis_id) == (cold.value, cold.basis_id)
        assert pivots == []


def test_basis_solves_match_the_lu_referee_on_every_preset():
    # above _SPLIT_DIM the singleton rows are fixed first and one LU solves
    # the rest: x, a block of columns of A_B^-1, the inverse of A_B^T and
    # the transposed solve for the multipliers of c0 (one vector, then a
    # block of columns) agree with LAPACK's LU of the whole basis to 1e-12
    # relative; at or below it they are LAPACK's, bit for bit
    split = 0
    for name in PRESETS:
        inst = make_preset(name)
        p = inst.polytope
        rows = np.array(solve_lp(p, inst.c0).basis_id)
        cols = np.eye(p.d)[:, ::7]
        inv = lp_core._basis_solve(p, rows)
        assert inv.flags.c_contiguous, name
        pairs = [
            (lp_core._basis_solve(p, rows, p.b[rows]), lu_basis_solve(p, rows, p.b[rows])),
            (lp_core._basis_solve(p, rows, cols), lu_basis_solve(p, rows, cols)),
            (inv, lu_basis_inverse(p, rows)),
            (lp_core._basis_solve(p, rows, -inst.c0, transpose=True), np.linalg.solve(p.A[rows].T, -inst.c0)),
            (lp_core._basis_solve(p, rows, cols, transpose=True), np.linalg.solve(p.A[rows].T, cols)),
        ]
        if p.d <= lp_core._SPLIT_DIM:
            assert all(got.tobytes() == want.tobytes() for got, want in pairs), name
            continue
        split += 1
        assert (p.singletons[rows] >= 0).any(), name  # the split has rows to fix
        # the inverse writes the entries the fixed rows determine: every
        # value is that of the split's A_B^-1 I (only signs of zeros differ)
        assert np.array_equal(inv, lp_core._basis_solve(p, rows, np.eye(p.d)).T), name
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
    assert split >= 8


@pytest.mark.parametrize("name", ["packing-360", "randomlp-a"])
def test_started_solves_above_the_split_dimension_return_the_cold_x_bitwise(name):
    # cold and started solves form x with the same singleton-first split on
    # the same sorted rows, so where they end at one basis their x is one
    # array, bit for bit; randomlp-a's own law never leaves the anchor (the
    # start's x), its widened law and packing-360's pivot away from it
    inst = make_preset(name)
    p = inst.polytope
    assert p.d > lp_core._SPLIT_DIM
    x0 = make_anchor(p, inst.c0)
    start = VertexStart.at(p, x0)
    s = float(np.mean(np.abs(inst.c0)))
    costs = [*sample_costs(inst, 3, seed=5), *(inst.c0 + np.random.default_rng(5).uniform(-s, s, (3, p.d)))]
    moved = 0
    for c in costs:
        cold = solve_lp(p, c)
        moved += cold.basis_id != tuple(start.rows.tolist())
        for s0 in (start, x0):
            warm = solve_lp(p, c, start=s0)
            assert warm.basis_id == cold.basis_id
            assert warm.x.tobytes() == cold.x.tobytes()
            assert warm.value == cold.value
    assert moved >= 3


def test_two_bound_rows_on_one_coordinate_above_the_split_dimension_are_no_basis(monkeypatch):
    # a box of dimension d > _SPLIT_DIM with a second bound row 2 x_0 <= 2
    # and a row x_0 + x_{d-1} <= 1; at x below exactly d rows are active,
    # two of them on x_0 and none on x_{d-2}: a singular basis, which the
    # split refuses as LAPACK does, so the point is no start and the solve
    # from it is the cold one
    d = lp_core._SPLIT_DIM + 6
    eye = np.eye(d)
    p = Polytope(np.vstack([eye, -eye, 2.0 * eye[:1], eye[:1] + eye[-1:]]), np.concatenate([np.ones(2 * d), [2.0, 1.0]]))
    x = np.ones(d)
    x[-2:] = 0.5, 0.0
    rows = np.concatenate([np.arange(d - 2), [2 * d, 2 * d + 1]])
    assert np.flatnonzero(p.b - p.A @ x == 0.0).tolist() == rows.tolist()
    for rhs, transpose in ((None, False), (p.b[rows], False), (-p.A.sum(axis=0), True)):
        with pytest.raises(np.linalg.LinAlgError):
            lp_core._basis_solve(p, rows, rhs, transpose)
    assert VertexStart.at(p, x) is None
    calls = []
    real = lp_core._simplex
    monkeypatch.setattr(lp_core, "_simplex", lambda *a: calls.append(1) or real(*a))
    c = -np.arange(1.0, d + 1.0)
    assert _same_result(solve_lp(p, c, start=x), solve_lp(p, c))
    assert calls == [1, 1]  # both solves are cold


def _signed_zero_tableau(rng, shape, row_share, col_share):
    """(T, r, col) for a pivot on (r, 0) of a random T whose column 0 is
    nonzero on about row_share of its rows and whose row r is nonzero on
    about col_share of its columns; a third of the other entries, and some
    zeros of the column, are -0.0."""
    T = rng.standard_normal(shape)
    T[rng.random(shape) < 1 / 3] = -0.0
    r = int(rng.integers(shape[0]))
    T[r, rng.random(shape[1]) >= col_share] = -0.0
    col = T[:, 0]  # a view: the pivot column is T's column 0
    col[rng.random(shape[0]) >= row_share] = 0.0
    col[rng.random(shape[0]) < 0.2] *= -1.0  # zeros of the column turn -0.0 too
    col[r] = 1.0 + rng.random()
    return T, r, col.copy()


def _takes_sparse_path(T, r, col):
    """Would ``lp_core._eliminate`` update only the block this pivot touches?"""
    touched = np.count_nonzero(col) * np.count_nonzero(T[r] / col[r])
    return T.shape[0] > lp_core._ROW_BLOCK and touched * lp_core._SPARSE_FACTOR < T.size


@pytest.mark.parametrize(
    "shape, row_share, col_share",
    [
        ((lp_core._ROW_BLOCK + 1, 80), 0.1, 0.2),
        ((141, 421), 0.05, 0.01),
        ((361, 745), 0.05, 0.01),
        ((361, 745), 0.4, 0.05),
        ((360, 360), 0.5, 0.1),
        ((141, 421), 1.0, 0.33),  # dense: the blocked loop runs
    ],
)
def test_sparse_eliminate_matches_the_dense_update(shape, row_share, col_share):
    rng = np.random.default_rng(shape[0] + shape[1])
    sparse_pivots = 0
    for _ in range(4):
        T, r, col = _signed_zero_tableau(rng, shape, row_share, col_share)
        sparse_pivots += _takes_sparse_path(T, r, col)
        want = T.copy()
        dense_eliminate(want, r, col)
        lp_core._eliminate(T, r, col)
        assert np.array_equal(T, want)
    # the sparse shapes took the sparse path on every pivot, the dense one on none
    assert sparse_pivots == (4 if col_share < 0.33 else 0)


def test_a_sparse_pivot_leaves_the_rows_it_does_not_touch_bitwise():
    # where the pivot column is 0 the dense update subtracts a product of a
    # zero, which turns a -0.0 entry into +0.0; the sparse update must not
    # write those rows at all
    rng = np.random.default_rng(3)
    m, n = lp_core._ROW_BLOCK + 36, 300
    T = rng.standard_normal((m, n))
    col = np.zeros(m)
    touched = rng.choice(m, 5, replace=False)
    col[touched] = rng.standard_normal(5)
    r = int(touched[0])
    col[r] = 2.0
    untouched = np.setdiff1d(np.arange(m), touched)
    col[untouched[::3]] = -0.0
    T[untouched[:, None], rng.random(n) < 0.3] = -0.0
    assert _takes_sparse_path(T, r, col)
    before = T.copy()
    lp_core._eliminate(T, r, col)
    assert np.signbit(before[untouched]).any()
    for i in untouched:
        assert T[i].tobytes() == before[i].tobytes()


def _bits(r):
    return (
        r.status,
        r.value,
        r.basis_id,
        None if r.x is None else r.x.tobytes(),
        None if r.y is None else r.y.tobytes(),
    )


def test_solves_with_sparse_pivots_are_bitwise_those_with_dense_ones(monkeypatch):
    # cold packing-360 solves pivot on [B^-1 | x_B] (360 x 361), and a
    # packing-360 check's stage two on its 360 x 360 inverse; the
    # integer-cost grid-4 solves (degenerate, 24 rows) run the blocked loop
    # on both sides
    pack, grid = make_preset("packing-360"), make_preset("grid-4")
    p = pack.polytope
    costs = [pack.c0, *sample_costs(pack, 2, seed=11)]
    grid_costs = np.round(sample_costs(grid, 6, seed=3))
    model, _ = learn(p, make_anchor(p, pack.c0), sample_costs(pack, 2, seed=0))
    check_cost = sample_costs(pack, 1, seed=12)[0]

    def run():
        check = contains_optimal_face(model, p, check_cost)
        return (
            [_bits(solve_lp(p, c)) for c in costs],
            [_bits(solve_lp(grid.polytope, c)) for c in grid_costs],
            (check.contained, None if check.witness is None else check.witness.tobytes()),
        )

    sparse_inverse_pivots = []
    real = lp_core._eliminate

    def spy(T, r, col):
        sparse_inverse_pivots.append(T.shape == (p.d, p.d) and _takes_sparse_path(T, r, col))
        real(T, r, col)

    monkeypatch.setattr(lp_core, "_eliminate", spy)
    fast = run()
    assert any(sparse_inverse_pivots)
    monkeypatch.setattr(lp_core, "_eliminate", dense_eliminate)
    assert run() == fast


def _started_case(name):
    """(p, start, costs) of a referee case for started solves above
    ``_SPLIT_DIM``: packing-360 from its learned model's start; randomlp-a
    under its law with R and R_C scaled by 30, whose costs move the optimum
    off the anchor (its own law never does); and packing with the
    packing-360 recipe at 80 blocks, d = 1,200."""
    if name == "packing-360":
        inst = make_preset(name)
        p = inst.polytope
        model, _ = learn(p, make_anchor(p, inst.c0), sample_costs(inst, 8, seed=0))
        return p, model.start, sample_costs(inst, 20, seed=3, stream=STREAM_TEST)
    if name == "randomlp-a-wide":
        params = PRESETS["randomlp-a"]["params"]
        cost = {**params["cost"], "R": 30 * params["cost"]["R"], "R_C": 30 * params["cost"]["R_C"]}
        inst, n = gen_instance("randomlp", {**params, "cost": cost}, 0), 6
    else:
        inst, n = gen_instance("packing", {**PRESETS["packing-360"]["params"], "blocks": 80}, 0), 3
    p = inst.polytope
    return p, VertexStart.at(p, make_anchor(p, inst.c0)), sample_costs(inst, n, seed=3)


@pytest.mark.parametrize("name", ["packing-360", "randomlp-a-wide", "packing-1200"])
def test_started_solves_are_bitwise_those_of_the_dense_referee(name, monkeypatch):
    # above _SPLIT_DIM each stage-two pivot forms its leaving row and its
    # entering column over the nonzeros of (B^-1)_r and a_j; status, value,
    # basis_id and the bytes of x and y are the referee's, which forms both
    # as dense products.  Every case takes the sparse products on some pivot
    p, start, costs = _started_case(name)
    assert p.d > lp_core._SPLIT_DIM
    sparse = []
    real = lp_core._sparse_product
    monkeypatch.setattr(lp_core, "_sparse_product", lambda M, v: sparse.append(4 * np.count_nonzero(v) < v.size) or real(M, v))
    got = [_bits(solve_lp(p, c, start=start)) for c in costs]
    assert any(sparse)
    monkeypatch.setattr(lp_core, "_dual_simplex", dense_dual_simplex)
    assert [_bits(solve_lp(p, c, start=start)) for c in costs] == got


def test_sparse_pivot_products_run_only_above_the_split_dimension(monkeypatch):
    # packing-360's checks pivot on its 360 x 360 inverse through
    # _sparse_product; its serves pivot on rank-8 reduced LPs and
    # grid5-int's checks on d = 40 inverses, both with dense products
    sizes, pivots = [], []
    real_product, real_eliminate = lp_core._sparse_product, lp_core._eliminate
    monkeypatch.setattr(lp_core, "_sparse_product", lambda M, v: sizes.append(v.size) or real_product(M, v))
    monkeypatch.setattr(lp_core, "_eliminate", lambda T, r, col: pivots.append(T.shape) or real_eliminate(T, r, col))
    pack = make_preset("packing-360")
    params = {**PRESETS["grid-4"]["params"], "rows": 5, "cols": 5, "name": "grid5-int"}
    grid = gen_instance("shortestpathgrid", params, 0)
    s = float(np.mean(np.abs(grid.c0)))
    grid_costs = np.round(grid.c0 + np.random.default_rng(0).uniform(-s, s, (40, grid.d)))
    for inst, train, test in (
        (pack, sample_costs(pack, 8, seed=0), sample_costs(pack, 10, seed=1, stream=STREAM_TEST)),
        (grid, grid_costs[:30], grid_costs[30:]),
    ):
        p = inst.polytope
        model, _ = learn(p, make_anchor(p, inst.c0), train)
        for call in (solve_via_compression, contains_optimal_face):
            sizes.clear()
            pivots.clear()
            for c in test:
                call(model, p, c)
            small = [t for t in pivots if t[0] == t[1] <= lp_core._SPLIT_DIM]
            if p.d > lp_core._SPLIT_DIM and call is contains_optimal_face:
                assert set(sizes) == {p.d}
                assert (p.d, p.d) in pivots
            else:
                assert sizes == [] and small, (inst.name, call.__name__)


def test_a_polytope_whose_rows_are_all_redundant():
    # A = 0: phase one drops every row, and a column that prices in has no
    # entry at all, a ray of the dual, so X = {x : 0 <= b} is empty when
    # some b_j < 0
    for b, want in (([-1.0], SolveStatus.INFEASIBLE), ([1.0], SolveStatus.UNBOUNDED)):
        p = Polytope(np.zeros((1, 2)), np.array(b))
        assert solve_lp(p, np.array([1.0, 0.0])).status is want
    empty = Polytope(np.zeros((1, 2)), np.array([-1.0]))
    assert solve_lp(empty, np.zeros(2)).status is SolveStatus.INFEASIBLE
    assert check_feasible_bounded(empty) is FeasibilityStatus.INFEASIBLE


def test_close_runs_phase_two_from_a_dual_feasible_basis_that_is_not_optimal(monkeypatch):
    # the box corner picked by the signs of c is a dual basis with y_B = |c|
    # >= 0, but the corner violates some random row: its slack is negative,
    # so _close's pricing fails and its phase two must pivot to the cold optimum
    phase_two = []
    real = lp_core._from_basis
    monkeypatch.setattr(lp_core, "_from_basis", lambda *a: phase_two.append(1) or real(*a))
    for seed in range(12):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        m = int(rng.integers(d + 1, 3 * d))
        p = small_lp(rng, d, m)
        c = rng.standard_normal(d)
        rows = np.array([m + 2 * j + (c[j] > 0.0) for j in range(d)])  # x_j <= L or -x_j <= L
        inv = np.linalg.inv(p.A[rows].T)
        y_B = inv @ -c
        slack = p.b - p.A @ np.linalg.solve(p.A[rows], p.b[rows])
        assert np.all(y_B > 0.0) and slack.min() < 0.0
        cold = solve_lp(p, c)
        scale = max(np.abs(p.A).max(), np.abs(p.b).max(), np.abs(c).max())
        tol_rc, max_iter = lp_core._limits(scale, p.A.shape)
        phase_two.clear()
        status, w, basis = lp_core._close(p.A, p.b, inv, rows.copy(), y_B, slack, tol_rc, max_iter)
        assert phase_two == [1]
        assert status == "optimal"
        basis = np.sort(basis)
        assert tuple(basis.tolist()) == cold.basis_id
        assert np.linalg.solve(p.A[basis], p.b[basis]).tobytes() == cold.x.tobytes()
        assert np.allclose(w, cold.y, atol=1e-9)
        assert float(p.b @ w) == pytest.approx(-cold.value, abs=1e-9)


def _recession_lp(rng, d, m):
    """A nonempty polytope with the recession direction r (A r <= 0) and a
    cost that falls along r: unbounded."""
    r = rng.standard_normal(d)
    A = rng.standard_normal((m, d))
    A[A @ r > 0.0] *= -1.0
    xbar = rng.standard_normal(d)
    p = Polytope(A, A @ xbar + rng.uniform(0.1, 1.0, m))
    return p, -r / np.linalg.norm(r) + 0.1 * rng.standard_normal(d)


def _referee_cases():
    """(label, polytope, cost): seeded small LPs at d = 2..8, generic,
    infeasible, unbounded and degenerate (every row twice, integer costs on
    grid-4), then the benchmark's four instances at c0."""
    cases = []
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        d = 2 + seed % 7
        p = small_lp(rng, d, int(rng.integers(d + 1, 3 * d)))
        L = float(p.b[-1])
        cases += [(f"small-{seed}-{k}", p, rng.standard_normal(d)) for k in range(3)]
        cut = Polytope(np.vstack([p.A, np.eye(d)[:1]]), np.concatenate([p.b, [-L - 1.0]]))  # x_0 <= -L - 1
        cases.append((f"infeasible-{seed}", cut, rng.standard_normal(d)))
        cases.append((f"unbounded-{seed}", *_recession_lp(rng, d, 2 * d)))
        twice = Polytope(np.vstack([p.A, p.A]), np.concatenate([p.b, p.b]))
        cases.append((f"twice-{seed}", twice, rng.standard_normal(d)))
    grid = make_preset("grid-4")
    cases += [(f"grid-4-int-{k}", grid.polytope, c) for k, c in enumerate(np.round(sample_costs(grid, 4, seed=3)))]
    params = {**PRESETS["grid-4"]["params"], "rows": 5, "cols": 5, "name": "grid5-int"}
    insts = [make_preset(n) for n in ("example1", "randomlp-a", "packing-360")]
    insts.append(gen_instance("shortestpathgrid", params, 0))
    cases += [(inst.name, inst.polytope, inst.c0) for inst in insts]
    return cases


def _match_referee(monkeypatch, cases):
    """Solve each (label, polytope, cost) case cold and with the dense
    two-phase tableau as ``_simplex``: the same status everywhere, the same
    value to VALUE_TOL, and the same basis and bitwise x wherever the
    referee's optimum is a vertex with d active rows and positive
    multipliers (one basis).  Returns (statuses seen, cases of one basis)."""
    statuses, exact = set(), 0
    for label, p, c in cases:
        got = solve_lp(p, c)
        with monkeypatch.context() as mp:
            mp.setattr(lp_core, "_simplex", tableau_simplex)
            want = solve_lp(p, c)
        assert got.status is want.status, label
        statuses.add(want.status)
        if want.status is not SolveStatus.OPTIMAL:
            continue
        assert abs(got.value - want.value) <= VALUE_TOL * (1.0 + abs(want.value)), label
        active = np.flatnonzero(np.abs(p.b - p.A @ want.x) <= 1e-9 * (1.0 + np.abs(p.b)))
        thr = MULTIPLIER_TOL * (1.0 + float(np.max(np.abs(want.y))))
        if active.size == p.d and np.all(want.y[active] > thr):
            exact += 1
            assert got.basis_id == want.basis_id, label
            assert got.x.tobytes() == want.x.tobytes(), label
    return statuses, exact


def test_revised_cold_solves_match_the_tableau_referee(monkeypatch):
    # the dense two-phase tableau the revised cold path replaced, as the
    # referee; it starts from the all-artificial basis, the revised path
    # from its crash basis
    statuses, exact = _match_referee(monkeypatch, _referee_cases())
    assert statuses == set(SolveStatus)
    assert exact >= 20


def test_partial_crashes_match_the_tableau_referee(monkeypatch):
    # lower bounds only and costs of both signs: coordinate i crashes on its
    # bound row -x_i <= 0 when c_i > 0, and keeps its artificial when c_i
    # < 0, where only the dense structural rows bound it; a row sum(x) >=
    # 1e4 beyond their reach makes the same LP infeasible.  The recession
    # LPs have no bound rows, so their solves and Farkas splits crash none
    cases, want_crashed = [], []
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        d = int(rng.integers(3, 12))
        m = int(rng.integers(2, d + 3))
        c = rng.standard_normal(d)
        c[: d // 3 + 1] = -np.abs(c[: d // 3 + 1])
        c[-(d // 3) - 1 :] = np.abs(c[-(d // 3) - 1 :])
        A, rhs = rng.uniform(0.1, 1.0, (m, d)), rng.uniform(1.0, 5.0, m)
        lo, hi = rng.uniform(-1.0, 0.0, d), np.full(d, np.inf)
        feasible = GeneralLP("min", c, A, ("<=",) * m, rhs, lo, hi)
        cut = GeneralLP("min", c, np.vstack([A, np.ones(d)]), ("<=",) * m + (">=",), np.append(rhs, 1e4), lo, hi)
        for label, g in ((f"lower-bounds-{seed}", feasible), (f"cut-{seed}", cut)):
            p, cost, _, _ = normalize_to_inequality_form(g)
            cases.append((label, p, cost))
            want_crashed.append([int((cost > 0.0).sum())])
        cases.append((f"unbounded-{seed}", *_recession_lp(rng, d, 2 * d)))
        want_crashed.append([0, 0])  # the solve and the Farkas split
    crashed = []  # rows of each phase one's start basis that are columns of M
    real = lp_core._primal

    def spy(M, W, basis, z, *args, **kwargs):
        s = kwargs.get("artificial")
        if s is not None:
            # the cost of phase one is 1 on each artificial s_i e_i; B^-1 =
            # diag(s), so z = that cost - (its basic part) diag(s) [M | diag(s)]
            art = basis >= M.shape[1]
            want = np.concatenate((-(M[art] * s[art, None]).sum(axis=0), np.where(art, 0.0, 1.0)))
            want[basis] = 0.0
            assert np.array_equal(z, want) and np.array_equal(W, np.column_stack((np.diag(s), W[:, -1])))
            assert set(s.tolist()) <= {-1.0, 1.0}
            crashed.append(int((~art).sum()))
        return real(M, W, basis, z, *args, **kwargs)

    monkeypatch.setattr(lp_core, "_primal", spy)
    for (label, p, c), want in zip(cases, want_crashed):
        crashed.clear()
        solve_lp(p, c)
        assert crashed == want, label
        assert want == [0, 0] or 0 < want[0] < p.d, label
    monkeypatch.undo()
    statuses, exact = _match_referee(monkeypatch, cases)
    assert statuses == set(SolveStatus)
    assert exact == 10  # every feasible case has one optimal basis


def test_phase_one_makes_no_pivots_at_c0_where_every_coordinate_has_bound_rows(monkeypatch):
    # every preset bounds each coordinate above and below by a unit row, so
    # the crash fills the whole basis and phase one has nothing to do
    pivots = []
    real = lp_core._primal

    def counted(*args, **kwargs):
        it = real(*args, **kwargs)
        pivots.append((kwargs.get("artificial") is not None, it))
        return it

    monkeypatch.setattr(lp_core, "_primal", counted)
    for name in PRESETS:
        inst = make_preset(name)
        A = inst.polytope.A
        unit = np.count_nonzero(A, axis=1) == 1
        for sign in (1.0, -1.0):
            bounded = np.flatnonzero(unit & (A.sum(axis=1) == sign))
            assert set(np.abs(A[bounded]).argmax(axis=1).tolist()) == set(range(inst.d)), name
        pivots.clear()
        assert solve_lp(inst.polytope, inst.c0).status is SolveStatus.OPTIMAL, name
        assert [it for phase_one, it in pivots if phase_one] == [0], name
    assert len(PRESETS) >= 9 and {"example1", "randomlp-d", "grid-16"} <= set(PRESETS)


def _spy_flips(monkeypatch):
    """Record, for each ``_flip`` call, (the row it returned, the ratios and
    the shifts of the bound rows it swapped out)."""
    log = []
    real = lp_core._flip

    def spy(W, basis, zj, col, ratios, flips, tol_rc):
        before = basis.copy()
        out = real(W, basis, zj, col, ratios, flips, tol_rc)
        out_rows = before[before != basis]
        log.append((out[0], flips.ratio[out_rows].tolist(), flips.shift[out_rows].tolist()))
        return out

    monkeypatch.setattr(lp_core, "_flip", spy)
    return log


def test_cold_solves_that_flip_bounds_match_the_tableau_referee(monkeypatch):
    # boxed LPs above _SPLIT_DIM whose bound rows have coefficients other
    # than +-1 (2 x_i <= 2 u_i, -3 x_i <= -3 l_i), boxes of width 0, one
    # bound only, and two upper rows on one coordinate; then a box with a
    # row no point of it meets, whose every breakpoint flips: the ray.
    # The tableau referee pivots at every breakpoint
    log = _spy_flips(monkeypatch)
    cases = []
    for seed in range(6):
        rng = np.random.default_rng(300 + seed)
        d = int(rng.integers(lp_core._SPLIT_DIM + 1, 90))
        # without boxes of width 0 the optima have one basis: bitwise x
        p = boxed_lp(rng, d, d // 2, [k for k in BOUND_KINDS if seed % 2 or k != "fixed"])
        cases += [(f"boxed-{seed}-{k}", p, rng.standard_normal(d)) for k in range(2)]
    cases.append(("every-breakpoint-flips", *every_breakpoint_flips_lp(np.random.default_rng(7), 70)))
    statuses, exact = _match_referee(monkeypatch, cases[:-1])
    assert statuses == {SolveStatus.OPTIMAL} and exact == 6
    ratios = {x for _, rs, _ in log for x in rs}
    assert {-1.0, -1.5, -2 / 3} <= ratios  # the scaled rows flipped too
    assert 0.0 in {x for _, _, ss in log for x in ss}  # and boxes of width 0
    assert all(r >= 0 for r, _, _ in log)
    log.clear()
    assert _match_referee(monkeypatch, cases[-1:]) == ({SolveStatus.INFEASIBLE}, 0)
    assert [r for r, _, _ in log] == [-1]


def test_bound_flips_run_only_above_the_split_dimension_and_before_bland(monkeypatch):
    # at d = _SPLIT_DIM cold solves pivot at every breakpoint, as before;
    # one dimension up the same kind of LP flips, but not on Bland's rule
    # (run 0 puts it there from the first pivot), where flips could cycle
    log = _spy_flips(monkeypatch)
    for d in (lp_core._SPLIT_DIM, lp_core._SPLIT_DIM + 1):
        rng = np.random.default_rng(d)
        p = boxed_lp(rng, d, d // 2)
        costs = rng.standard_normal((3, d))
        log.clear()
        values = [solve_lp(p, c).value for c in costs]
        assert bool(log) == (d > lp_core._SPLIT_DIM)
    with monkeypatch.context() as mp:
        mp.setattr(lp_core, "_DEGENERATE_RUN", 0)
        log.clear()
        bland = [solve_lp(p, c).value for c in costs]
        assert log == []
    assert bland == pytest.approx(values, rel=VALUE_TOL)


def test_bound_rows_pair_each_bound_with_the_tightest_opposite_one():
    # x0 <= 3, x0 <= 2, -x0 <= 0 (two uppers), 2 x1 <= 4, -3 x1 <= 0
    # (scaled), a structural row, x2 <= 1 (no lower row) and x3 fixed at 1
    A = np.zeros((9, 4))
    A[[0, 1, 2, 3, 4, 6, 7, 8], [0, 0, 0, 1, 1, 2, 3, 3]] = [1.0, 1.0, -1.0, 2.0, -3.0, 1.0, 1.0, -1.0]
    A[5] = [1.0, 1.0, 1.0, 0.0]
    p = Polytope(A, np.array([3.0, 2.0, 0.0, 4.0, 0.0, 5.0, 1.0, 1.0, -1.0]))
    t = p.bound_rows
    assert t.crash.tolist() == [[0, -1, 6, 7], [2, -1, -1, 8]]  # unit rows only, the lowest index first
    assert t.partner.tolist() == [2, 2, 1, 4, 3, -1, -1, 8, 7]
    # shift = -|a| (u - l): the box of x0 is [0, 3] from row 0 and [0, 2] from row 2
    want = {0: (-1.0, -3.0), 1: (-1.0, -2.0), 2: (-1.0, -2.0), 3: (-1.5, -4.0), 4: (-2 / 3, -6.0), 7: (-1.0, 0.0), 8: (-1.0, 0.0)}
    for j, (ratio, shift) in want.items():
        assert t.ratio[j] == pytest.approx(ratio) and t.shift[j] == pytest.approx(shift), j
    assert not t.partner.flags.writeable and p.bound_rows is t


def test_a_cold_packing_solve_flips_its_box_instead_of_pivoting(monkeypatch):
    # 145 pivots at c0 when every breakpoint pivoted, 24 with flips
    pivots = []
    real = lp_core._primal
    monkeypatch.setattr(lp_core, "_primal", lambda *a, **k: pivots.append(real(*a, **k)) or pivots[-1])
    inst = make_preset("packing-360")
    assert solve_lp(inst.polytope, inst.c0).status is SolveStatus.OPTIMAL
    assert 0 < sum(pivots) <= 40


_COLD_RANDOMLP = """
import hashlib, json
import numpy as np
from lpslice import solve_lp
from lpslice.lp_core import VertexStart
from lpslice.instances import make_preset, sample_costs
inst = make_preset("randomlp-a")
p = inst.polytope
out = []
for c in [inst.c0, *sample_costs(inst, 2, seed=0)]:
    r = solve_lp(p, c)
    out.append([r.basis_id, r.value, r.x.tobytes().hex()])
start = VertexStart.at(p, solve_lp(p, inst.c0).x)
s = float(np.mean(np.abs(inst.c0)))
r = solve_lp(p, inst.c0 + np.random.default_rng(0).uniform(-s, s, p.d), start=start)
out.append([r.basis_id, r.value, r.x.tobytes().hex()])
out.append([start.rows.tolist(), None, hashlib.sha256(start.inv.tobytes()).hexdigest()])
print(json.dumps(out))
"""


def _under_threads(script: str, threads: int):
    """The JSON that ``script`` prints, run in its own process under
    ``threads`` BLAS threads: the count is read when numpy loads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_cold_solves_keep_their_basis_under_one_and_two_blas_threads():
    # the determinism contract: randomlp-a (d = 140 > _SPLIT_DIM) forms x
    # and the start's inverse by the singleton-first split, whose bytes do
    # not depend on the BLAS thread count: three cold solves, one started
    # solve that pivots away from its start, and the start's inverse have
    # the same bytes under 1 and 2 threads
    def run(threads):
        return _under_threads(_COLD_RANDOMLP, threads)

    one, two = run(1), run(2)
    assert [basis for basis, _, _ in one] == [basis for basis, _, _ in two]
    for (_, v1, _), (_, v2, _) in zip(one[:-1], two[:-1]):
        assert abs(v1 - v2) <= VALUE_TOL * (1.0 + abs(v1))
    assert one[-2][0] != one[-1][0]  # the started solve pivoted
    assert one == two
    assert run(1) == one
    assert run(2) == two


_LEARN_RANDOMLP = """
import json
from lpslice import learn, make_anchor
from lpslice.compression import solve_via_compression
from lpslice.instances import PRESETS, STREAM_TEST, gen_instance, sample_costs
params = PRESETS["randomlp-a"]["params"]
cost = {**params["cost"], "R": 30 * params["cost"]["R"], "R_C": 30 * params["cost"]["R_C"]}
inst = gen_instance("randomlp", {**params, "cost": cost}, 0)
p = inst.polytope
x0 = make_anchor(p, inst.c0)
model, _ = learn(p, x0, sample_costs(inst, 20, seed=0))
xs = [solve_via_compression(model, p, c).x for c in sample_costs(inst, 5, seed=0, stream=STREAM_TEST)]
print(json.dumps([model.rank, x0.tobytes().hex(), model.U.tobytes().hex(), [x.tobytes().hex() for x in xs]]))
"""


def test_learned_models_and_serves_keep_their_bytes_under_one_and_two_blas_threads():
    # the rest of the contract: a learn of 20 costs on randomlp-a under its
    # law widened 30 times, and 5 serves of its model, give the same bytes
    # of x0, U and every served x under 1 and 2 threads; this covers p.A @ U
    # and the reduced LP, whose solves are at d <= _SPLIT_DIM
    one, two = _under_threads(_LEARN_RANDOMLP, 1), _under_threads(_LEARN_RANDOMLP, 2)
    assert 0 < one[0] <= lp_core._SPLIT_DIM
    assert one == two
