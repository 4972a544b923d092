import numpy as np
import pytest

from helpers import small_lp
from lpslice import (
    FeasibilityStatus,
    GeneralLP,
    InternalError,
    Polytope,
    RejectedInstance,
    SolveStatus,
    check_feasible_bounded,
    normalize_to_inequality_form,
    solve_lp,
)
from lpslice import lp_core
from lpslice.lp_core import (
    DEFAULT_TOL,
    ToleranceSet,
    dump_json,
    load_json,
    polytope_from_json,
    polytope_to_json,
    solve_on_optimal_face,
)
from lpslice.oracle import enumerate_vertices


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


def test_tolerance_set_round_trip():
    t = ToleranceSet(eps_feas=1e-6)
    t2 = ToleranceSet.from_dict(t.to_dict())
    assert t2 == t
    assert DEFAULT_TOL.eps_feas == 1e-7


def test_degenerate_and_redundant_rows_still_give_vertex(square):
    # duplicate a tight row and add a redundant one; solver must not stall
    A = np.vstack([square.A, square.A[0], np.array([1.0, 1.0])])
    b = np.concatenate([square.b, [1.0, 2.0]])
    p = Polytope(A, b)
    r = solve_lp(p, np.array([-1.0, -1.0]))
    assert r.status is SolveStatus.OPTIMAL
    assert r.value == pytest.approx(-2.0)
    assert np.allclose(r.x, [1.0, 1.0], atol=1e-9)


def test_pivot_loop_does_not_cycle_on_beale_example():
    # Beale (1955): from the slack basis, largest-coefficient pricing with
    # lowest-index ties cycles through six degenerate bases forever; the
    # fallback to Bland's rule after a run of degenerate pivots breaks it
    T = np.array(
        [
            [1.0, 0.0, 0.0, 1 / 4, -60.0, -1 / 25, 9.0, 0.0],
            [0.0, 1.0, 0.0, 1 / 2, -90.0, -1 / 50, 3.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, -3 / 4, 150.0, -1 / 50, 6.0, 0.0],
        ]
    )
    basis = np.array([0, 1, 2])
    max_iter = 2000
    it = lp_core._iterate(T, basis, 7, 1e-9, max_iter)
    assert 0 <= it <= 2 * lp_core._DEGENERATE_RUN < max_iter
    assert -T[-1, -1] == pytest.approx(-1 / 20, abs=1e-12)
    assert np.all(T[-1, :-1] >= -1e-9)


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
    with pytest.raises(ValueError):
        solve_lp(Polytope(np.zeros((1, 0)), np.array([-1.0])), np.zeros(0), start=np.zeros(0))


@pytest.mark.parametrize("run", [lp_core._DEGENERATE_RUN, 0])
def test_vertex_start_matches_cold_on_random_lps(run, monkeypatch):
    # run 0 puts the dual simplex on Bland's rule from the first pivot
    monkeypatch.setattr(lp_core, "_DEGENERATE_RUN", run)
    primal_pivots = []
    real = lp_core._iterate

    def counted(*args, **kwargs):
        primal_pivots.append(real(*args, **kwargs))
        return primal_pivots[-1]

    monkeypatch.setattr(lp_core, "_iterate", counted)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        p = small_lp(rng, d, int(rng.integers(d + 1, 3 * d)))
        x0 = solve_lp(p, rng.standard_normal(d)).x
        for _ in range(3):
            c = rng.standard_normal(d)
            cold = solve_lp(p, c)
            primal_pivots.clear()
            warm = solve_lp(p, c, start=x0)
            # the dual simplex ends optimal: the closing phase-two pass of
            # the cold pricing has nothing left to do
            assert primal_pivots == [0]
            # generic costs: the optimum is a nondegenerate vertex, one basis
            assert warm.basis_id == cold.basis_id
            assert warm.x.tobytes() == cold.x.tobytes()
            assert warm.value == cold.value
