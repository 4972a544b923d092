import copy
import dataclasses
import pickle

import numpy as np
import pytest

import helpers
import lpslice.compression as compression
import lpslice.learner as learner
import lpslice.lp_core as lp_core
from helpers import referee, small_lp
from lpslice import (
    CompressionModel,
    InternalError,
    Polytope,
    RankError,
    SolveStatus,
    check_exact,
    contains_optimal_face,
    make_anchor,
    solve_lp,
)
from lpslice.compression import (
    append_direction,
    build_reduced_lp,
    in_range,
    lift,
    model_from_json,
    model_to_json,
    solve_via_compression,
)
from lpslice.instances import PRESETS, STREAM_TEST, gen_instance, make_preset, sample_costs
from lpslice.linalg import check_orthonormal
from lpslice.lp_core import VertexStart, _active_tol
from lpslice.oracle import exact_check_bruteforce
from lpslice.tolerances import MULTIPLIER_TOL, TAU_CONTAIN, VALUE_TOL


def vertical_slice() -> CompressionModel:
    """Rank-1 model through (1, 0) spanning the x2 axis."""
    return CompressionModel.create(np.array([1.0, 0.0]), np.array([[0.0], [1.0]]))


def test_create_rejects_rank_deficient_directions():
    with pytest.raises(ValueError):
        CompressionModel.create(np.zeros(2), np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_in_range_basic():
    m = vertical_slice()
    assert in_range(m, np.array([0.0, 0.5]))
    assert not in_range(m, np.array([0.5, 0.0]))
    assert in_range(m, np.zeros(2))
    with pytest.raises(ValueError):
        in_range(m, np.zeros(3))


def test_in_range_full_rank_model_accepts_everything():
    m = CompressionModel.create(np.zeros(2), np.eye(2))
    assert in_range(m, np.array([3.0, -4.0]))


def test_append_direction_growth_and_refusal():
    m0 = CompressionModel.empty(np.array([1.0, 0.0]))
    assert m0.rank == 0
    m1 = append_direction(m0, np.array([1.0, 1.0]))  # direction (0, 1)
    assert m1.rank == 1
    assert np.allclose(m1.Q[:, 0], [0.0, 1.0])
    with pytest.raises(RankError):
        append_direction(m1, np.array([1.0, 0.0]))  # zero displacement
    with pytest.raises(RankError):
        append_direction(m1, np.array([1.0, -3.0]))  # already spanned
    m2 = append_direction(m1, np.array([0.0, 0.0]))  # direction (-1, 0)
    assert m2.rank == 2
    # prefix of Q survives the append bitwise
    assert np.array_equal(m2.Q[:, :1], m1.Q)
    assert check_orthonormal(m2.Q)
    with pytest.raises(RankError):
        append_direction(m2, np.array([5.0, 5.0]))


def test_the_membership_rule_measures_the_residual_gram_schmidt_keeps_a_column_by():
    # range(Q) is the span of the first five coordinates, so Q has a zero
    # last row and Q (Q^T w) is exactly 0 there: every rounding error of a
    # projection lies in range(Q), and the second pass removes it.  w's part
    # in the slice, near 1e11, leaves a one-pass residual near 3e-5, far
    # above tau = 1e-6 at x0 = 0, while its true residual is its last entry,
    # 5e-7.  A rule that measured one pass called w outside the slice, and
    # Gram-Schmidt's two passes then dropped it: the append raised
    # InternalError.  Now the rule and the append measure the same bits
    rng = np.random.default_rng(0)
    m = CompressionModel.create(np.zeros(6), np.vstack([rng.standard_normal((5, 5)), np.zeros((1, 5))]))
    assert not m.Q[5].any()
    w = 1e11 * (m.Q @ rng.standard_normal(5))
    w[5] = 5e-7
    assert np.linalg.norm(w - m.Q @ (m.Q.T @ w)) > 10 * compression._tau(m.x0)
    with pytest.raises(RankError):
        append_direction(m, w)
    assert in_range(m, w)
    w[5] = 2e-6  # outside by both measures: appended, and the rank is d
    assert not in_range(m, w)
    assert append_direction(m, w).rank == 6


def test_contains_optimal_face_on_square(square):
    m = vertical_slice()
    res = contains_optimal_face(m, square, np.array([-1.0, 0.5]))
    assert res.contained and res.witness is None
    res2 = contains_optimal_face(m, square, np.array([0.5, -1.0]))
    assert not res2.contained
    assert np.allclose(res2.witness, [-1.0, 1.0], atol=1e-7)
    assert square.contains(res2.witness)


def test_contains_optimal_face_degenerate_cost(square):
    # c = (-1, 0): the whole right edge is optimal and lies in the slice
    m = vertical_slice()
    assert contains_optimal_face(m, square, np.array([-1.0, 0.0])).contained
    # but a rank-0 model sees only its anchor point
    m0 = CompressionModel.empty(np.array([1.0, 0.0]))
    r = contains_optimal_face(m0, square, np.array([-1.0, 0.0]))
    assert not r.contained


def test_contains_optimal_face_rank_zero_unique_optimizer(square):
    m0 = CompressionModel.empty(np.array([1.0, -1.0]))
    assert contains_optimal_face(m0, square, np.array([-1.0, 0.5])).contained
    assert check_exact(m0, square, np.array([-1.0, 0.5]))


def test_contains_optimal_face_shortcut_vs_slow_path(square):
    # the referee's thickened-face route is conservative on ill-conditioned
    # geometry, so slow True must imply fast True; the library's route must
    # match the enumeration oracle outright
    from lpslice.oracle import exact_check_bruteforce

    rng = np.random.default_rng(7)
    n_equal = 0
    for _ in range(40):
        d = int(rng.integers(2, 5))
        p = small_lp(rng, d, int(rng.integers(d + 1, 8)))
        x0 = solve_lp(p, rng.standard_normal(d)).x
        m = CompressionModel.empty(x0)
        for _ in range(int(rng.integers(0, d))):
            x = solve_lp(p, rng.standard_normal(d)).x
            if not in_range(m, x - x0):
                m = append_direction(m, x)
        c = p.A[int(rng.integers(0, p.m))] if rng.random() < 0.3 else rng.standard_normal(d)
        fast = contains_optimal_face(m, p, c)
        slow = referee(m, p, c)
        if slow.contained:
            assert fast.contained
        n_equal += fast.contained == slow.contained
        assert fast.contained == exact_check_bruteforce(m, p, c)
    assert n_equal >= 30  # routes coincide away from tolerance boundaries


def _count_face_lps(monkeypatch, polytope) -> list:
    """Record the number of variables of every face LP that compression runs
    from now on: LPs over the face in its free coordinates (``solve_lp`` on
    anything but ``polytope``, whose solves are the full LPs) and the
    referee's LPs over the thickened face (``helpers.solve_on_optimal_face``)."""
    calls = []
    real_solve, real_face = compression.solve_lp, helpers.solve_on_optimal_face

    def counted_solve(p, c, *args, **kwargs):
        if p is not polytope:
            calls.append(p.d)
        return real_solve(p, c, *args, **kwargs)

    def counted_face(p, *args, **kwargs):
        calls.append(p.d)
        return real_face(p, *args, **kwargs)

    monkeypatch.setattr(compression, "solve_lp", counted_solve)
    monkeypatch.setattr(helpers, "solve_on_optimal_face", counted_face)
    return calls


def test_face_in_the_slice_needs_no_face_lp(square, monkeypatch):
    # c = (-1, 0): the optimal face is the right edge, and null(A_S) is the
    # x2 axis, which the vertical slice spans
    calls = _count_face_lps(monkeypatch, square)
    assert contains_optimal_face(vertical_slice(), square, np.array([-1.0, 0.0])).contained
    assert calls == []
    assert referee(vertical_slice(), square, np.array([-1.0, 0.0])).contained
    assert calls == [2, 2]  # the referee still tests its one complement functional


def _cube() -> Polytope:
    eye = np.eye(3)
    return Polytope(np.vstack([eye, -eye]), np.ones(6))


def test_face_lps_run_only_along_free_directions_outside_the_slice(monkeypatch):
    # cube [-1, 1]^3, c = (-1, 0, 0): the face is the square x1 = 1, with
    # two free coordinates; the optimizer is in the slice, which spans e2,
    # so only e3 needs face LPs
    cube = _cube()
    c = np.array([-1.0, 0.0, 0.0])
    x_star = solve_lp(cube, c).x
    m = CompressionModel.create(x_star, np.array([[0.0], [1.0], [0.0]]))
    calls = _count_face_lps(monkeypatch, cube)
    res = contains_optimal_face(m, cube, c)
    assert not res.contained
    assert calls in ([2], [2, 2])
    assert np.allclose(res.witness, [1.0, x_star[1], -x_star[2]], atol=1e-12)
    assert not exact_check_bruteforce(m, cube, c)


def test_unbounded_free_coordinates_raise_internal_error(monkeypatch):
    # X is bounded and the rows left out of the face only barely move along
    # its free directions, so free coordinates that the kept rows do not
    # bound mean a broken invariant, not a reason to try another route
    cube = _cube()
    c = np.array([-1.0, 0.0, 0.0])
    x_star = solve_lp(cube, c).x
    real = compression._free_face

    def unbounded_free_coordinates(*args):
        N, face, B = real(*args)
        return N, Polytope(face.A[:1], face.b[:1]), B  # one row in two free coordinates

    monkeypatch.setattr(compression, "_free_face", unbounded_free_coordinates)
    m = CompressionModel.create(x_star, np.array([[0.0], [1.0], [0.0]]))
    with pytest.raises(InternalError, match="unbounded"):
        contains_optimal_face(m, cube, c)


def test_a_basis_of_fewer_than_d_rows_raises_internal_error(square, monkeypatch):
    # a bounded X has rank d, so an optimal basis of fewer rows is a broken
    # invariant: its inverse gives no free directions to read
    c = np.array([-1.0, 0.0])  # the face is the right edge
    real = compression.solve_lp

    def short_basis(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, basis_id=res.basis_id[:1])

    monkeypatch.setattr(compression, "solve_lp", short_basis)
    with pytest.raises(InternalError, match="fewer than d"):
        contains_optimal_face(CompressionModel.empty(real(square, c).x), square, c)


@pytest.mark.parametrize("rows", [4, 5], ids=["grid-4", "grid5-int"])
def test_free_directions_from_the_basis_inverse_match_the_gram_schmidt_referee(rows, monkeypatch):
    # perfbench's grid5-int construction at 4 x 4 and 5 x 5: grid-4's
    # generator and cost config, costs round(c0 + u) with u uniform in
    # [-s, s]^d and s = mean|c0| (seed 0), 40 training and 32 test costs;
    # the ties of integer costs give optimal faces with free directions
    params = copy.deepcopy(PRESETS["grid-4"]["params"])
    params.update(rows=rows, cols=rows)
    inst = gen_instance("shortestpathgrid", params, 0)
    p = inst.polytope
    rng = np.random.default_rng(0)
    s = float(np.mean(np.abs(inst.c0)))
    costs = np.round(inst.c0 + rng.uniform(-s, s, (72, inst.d)))
    x0 = make_anchor(p, inst.c0)
    anchor = CompressionModel.empty(x0)
    learned, _ = learner.learn(p, x0, list(costs[:40]))
    faces = witnesses = 0
    start = VertexStart.at(p, x0)
    for c in costs[40:]:
        res = solve_lp(p, c, start=start)
        thr = MULTIPLIER_TOL * (1.0 + float(np.max(res.y)))
        assert set(np.flatnonzero(res.y > thr).tolist()) <= set(res.basis_id)
        # over the rank-0 slice B spans N, so both return N whenever the
        # face is more than a vertex
        ours, ref = compression._free_face(anchor, p, res), helpers.gram_schmidt_free_face(anchor, p, res)
        assert (ours is None) == (ref is None)
        if ours is not None:
            faces += 1
            assert ours[0].shape == ref[0].shape
            assert np.linalg.norm(ours[0] @ ours[0].T - ref[0] @ ref[0].T) <= 1e-9
        for model in (anchor, learned):
            got = contains_optimal_face(model, p, c)
            with monkeypatch.context() as mp:
                mp.setattr(compression, "_free_face", helpers.gram_schmidt_free_face)
                assert contains_optimal_face(model, p, c).contained == got.contained
            if not got.contained:
                witnesses += 1
                w = got.witness
                assert p.contains(w) and not in_range(model, w - model.x0)
                active = np.abs(p.A @ w - p.b) <= 1e-9 * (1.0 + np.abs(p.b))
                assert np.linalg.matrix_rank(p.A[active]) == p.d  # a vertex of X
    assert faces > 0 and witnesses > 0


@pytest.mark.parametrize(("offset", "contained"), [(0.8, False), (0.9 / np.sqrt(2.0), True)], ids=["outside", "inside"])
def test_a_point_leaves_the_slice_by_its_distance_not_by_a_coordinate(offset, contained):
    # slice 0 + span(e1) in R^3; the optimal vertex sits offset * tau off the
    # slice along both e2 and e3, so its distance is sqrt(2) * offset * tau:
    # 1.13 tau (outside, though no coordinate exceeds tau) or 0.9 tau (inside)
    tau = TAU_CONTAIN
    h = offset * tau
    eye = np.eye(3)
    box = Polytope(np.vstack([eye, -eye]), np.array([1.0, h, h, 1.0, 1.0, 1.0]))
    c = -np.ones(3)
    assert np.array_equal(solve_lp(box, c).x, [1.0, h, h])
    m = CompressionModel.create(np.zeros(3), eye[:, :1])
    res = contains_optimal_face(m, box, c)
    assert res.contained is contained
    if not contained:
        assert np.array_equal(res.witness, [1.0, h, h])


@pytest.mark.parametrize("width", [100.0, 1000.0])
def test_learn_read_back_and_the_referee_share_the_containment_rule(width):
    # the box [0, width] x [0, 5e-6]: the second cost's optimum (width, 5e-6)
    # is 5e-6 off the rank-1 slice spanned by (width, 0), beyond tau = 1e-6,
    # though within 1e-7 (1 + ||w||) and 1e-8 times the longest column of U
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    p = Polytope(A, np.array([width, 0.0, 5e-6, 0.0]))
    x0 = make_anchor(p, np.array([1.0, 1.0]))
    costs = [np.array([-1.0, 1.0]), np.array([-1.0, -1.0])]
    model, trace = learner.learn(p, x0, costs)
    assert model.rank == 2 and trace.hard == [1, 2]
    back = model_from_json(model_to_json(model))
    assert back.Q.tobytes() == model.Q.tobytes()
    first, _ = learner.learn(p, x0, costs[:1])
    c = costs[1]
    verdicts = {check_exact(first, p, c), contains_optimal_face(first, p, c).contained, exact_check_bruteforce(first, p, c)}
    assert verdicts == {False}
    assert solve_via_compression(model, p, c).value == pytest.approx(-width - 5e-6, abs=1e-12)


def test_integer_cost_grid_learn_runs_far_fewer_face_lps_than_the_referee(monkeypatch):
    inst = make_preset("grid-4")
    p = inst.polytope
    x0 = solve_lp(p, inst.c0).x
    costs = np.round(sample_costs(inst, 20, seed=1))
    calls = _count_face_lps(monkeypatch, p)
    learner.learn(p, x0, costs)
    n_default = len(calls)
    monkeypatch.setattr(learner, "_contains_given_solve", referee)
    learner.learn(p, x0, costs)
    n_referee = len(calls) - n_default
    assert n_default > 0
    assert 5 * n_default <= n_referee


def test_contains_optimal_face_requires_bounded_problem():
    half = Polytope(np.array([[-1.0, 0.0]]), np.array([0.0]))
    m = CompressionModel.empty(np.zeros(2))
    with pytest.raises(ValueError):
        contains_optimal_face(m, half, np.array([-1.0, 0.0]))


def test_build_reduced_lp_one_variable(square):
    m = vertical_slice()
    red, c_red, offset = build_reduced_lp(m, square, np.array([-1.2, 0.4]))
    assert red.d == 1 and red.m == 4
    assert c_red == pytest.approx([0.4])
    assert offset == pytest.approx(-1.2)
    r = solve_lp(red, c_red)
    assert r.value + offset == pytest.approx(-1.6)
    assert solve_lp(square, np.array([-1.2, 0.4])).value == pytest.approx(-1.6)


def test_build_reduced_lp_identity_is_the_original(square):
    m = CompressionModel.create(np.zeros(2), np.eye(2))
    red, c_red, offset = build_reduced_lp(m, square, np.array([-1.5, 0.3]))
    assert np.array_equal(red.A, square.A) and np.array_equal(red.b, square.b)
    assert offset == 0.0


def test_lift_and_rank_zero_slice(square):
    m = vertical_slice()
    assert np.allclose(lift(m, np.array([-1.0])), [1.0, -1.0])
    m0 = CompressionModel.empty(np.array([0.25, -0.5]))
    r = solve_via_compression(m0, square, np.array([1.0, 1.0]))
    assert r.status is SolveStatus.OPTIMAL
    assert np.allclose(r.x, [0.25, -0.5])
    assert r.value == pytest.approx(-0.25)


def test_solve_via_compression_exact_and_restricted(square):
    m = vertical_slice()
    c = np.array([-1.2, 0.4])
    assert solve_via_compression(m, square, c).value == pytest.approx(solve_lp(square, c).value)
    # an inexact cost still solves, but only over the slice {(1, t)}
    c2 = np.array([0.5, -1.0])
    red_val = solve_via_compression(m, square, c2).value
    assert red_val == pytest.approx(-0.5)
    assert red_val > solve_lp(square, c2).value


def test_restriction_exactness_and_monotonicity_properties():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        p = small_lp(rng, d, int(rng.integers(d + 1, 7)))
        x0 = solve_lp(p, rng.standard_normal(d)).x
        models = [CompressionModel.empty(x0)]
        while models[-1].rank < d:
            x = solve_lp(p, rng.standard_normal(d)).x
            if not in_range(models[-1], x - x0):
                models.append(append_direction(models[-1], x))
        c = rng.standard_normal(d)
        full = solve_lp(p, c).value
        vals = [solve_via_compression(m, p, c).value for m in models]
        for v_prev, v_next in zip(vals, vals[1:]):
            assert v_next <= v_prev + 1e-9  # growing the slice never hurts
        for m, v in zip(models, vals):
            assert v >= full - 1e-9 * (1.0 + abs(full))
            if check_exact(m, p, c):
                assert v == pytest.approx(full, rel=1e-9, abs=1e-9)
        # the full-rank end of the chain is always exact
        assert vals[-1] == pytest.approx(full, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("preset", ["packing-360", "grid-4"])
def test_the_carried_start_gives_the_bits_of_a_model_read_back_without_it(preset):
    # learn hands its model the anchor start it built at x0; a model read
    # back from JSON has none and derives it on its first check: same bits.
    # grid-4 with integer costs has a degenerate anchor and ties, so face
    # LPs run
    inst = make_preset(preset)
    p = inst.polytope
    x0 = learner.make_anchor(p, inst.c0)
    costs = sample_costs(inst, 12, seed=1)
    if preset == "grid-4":
        costs = np.round(costs)
    model, _ = learner.learn(p, x0, costs[:8])
    read = model_from_json(model_to_json(model))
    assert "anchor" in vars(model._starts) and read._starts is None
    assert model.U.tobytes() == read.U.tobytes() and model.Q.tobytes() == read.Q.tobytes()
    for c in costs[8:]:
        a, b = contains_optimal_face(model, p, c), contains_optimal_face(read, p, c)
        assert a.contained == b.contained
        assert (a.witness is None) == (b.witness is None)
        assert a.witness is None or a.witness.tobytes() == b.witness.tobytes()
        assert check_exact(model, p, c) == check_exact(read, p, c) == a.contained
    carried, derived = compression._starts(model, p).anchor, compression._starts(read, p).anchor
    assert carried.rows.tobytes() == derived.rows.tobytes() and carried.inv.tobytes() == derived.inv.tobytes()


def test_a_start_from_another_polytope_is_not_used(square):
    model, _ = learner.learn(square, np.array([1.0, 1.0]), [np.array([-1.0, -2.0]), np.array([1.0, -2.0])])
    assert compression._starts(model, square).anchor.p is square
    wider = Polytope(square.A, 2.0 * square.b)  # same d: x0 is still a point of it
    c = np.array([1.0, -2.0])
    assert contains_optimal_face(model, wider, c).contained == contains_optimal_face(model_from_json(model_to_json(model)), wider, c).contained
    assert compression._starts(model, wider).anchor is None  # x0 is inside wider: the solve is cold


def _learned(case: str, n_test: int = 4):
    """(p, model learned from 8 costs, n_test test costs) of a serve case."""
    if case == "randomlp":  # a rank-0 model: every cost is optimal at x0
        inst = gen_instance("randomlp", {**PRESETS["randomlp-a"]["params"], "d": 40, "rows": 40}, 0)
    else:
        inst = make_preset(case.removesuffix("-int"))
    p = inst.polytope
    costs = sample_costs(inst, 8 + n_test, seed=1)
    if case.endswith("-int"):  # ties: degenerate reduced LPs
        costs = np.round(costs)
    model, _ = learner.learn(p, learner.make_anchor(p, inst.c0), costs[:8])
    return p, model, costs[8:]


def _same_serve(a, b) -> bool:
    return (a.value, a.basis_id) == (b.value, b.basis_id) and a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


@pytest.mark.parametrize("case,rank", [("packing-360", None), ("grid-4-int", None), ("example1", 1), ("randomlp", 0)])
def test_serves_from_the_carried_reduced_lp_give_the_bits_of_a_model_read_back_without_it(case, rank):
    # a model builds the reduced LP and its start at z = 0 on its first
    # serve, whether learn made it or it was read back from JSON without
    # any start, and serves every later cost from them
    p, model, test = _learned(case)
    assert rank is None or model.rank == rank
    assert "serve" not in vars(model._starts)  # learn leaves it to the first serve
    read = model_from_json(model_to_json(model))
    assert read._starts is None
    for c in test:
        assert _same_serve(solve_via_compression(model, p, c), solve_via_compression(read, p, c))
        for m in (model, read):
            starts = compression._starts(m, p)
            assert build_reduced_lp(m, p, c)[0] is starts.reduced is starts.serve.p
    learned, derived = compression._starts(model, p).serve, compression._starts(read, p).serve
    assert learned.p.d == model.rank and learned.p.A.tobytes() == derived.p.A.tobytes()


def test_a_model_grown_after_learn_serves_from_its_own_start():
    # the serve start is a function of (anchor, U): a grown model takes
    # over the anchor start and derives the reduced LP of its own U
    p, model, test = _learned("packing-360")
    x = next(r.x for r in (solve_lp(p, -c) for c in test) if not in_range(model, r.x - model.x0))
    old = compression._starts(model, p).serve
    grown = append_direction(model, x)
    kept, mine = compression._starts(model, p), compression._starts(grown, p)
    assert mine.anchor is kept.anchor and kept.serve is old
    assert mine.serve.p.d == grown.rank == model.rank + 1
    # the reduced LP keeps the live rows of A U: the dropped ones are
    # exactly the zero rows with nonnegative slack at x0
    AU, slack = p.A @ grown.U, p.b - p.A @ grown.x0
    dropped = np.setdiff1d(np.arange(p.m), mine.live)
    assert np.array_equal(dropped, np.flatnonzero(~AU.any(axis=1) & (slack >= 0.0)))
    assert mine.reduced.A.tobytes() == AU[mine.live].tobytes()
    assert mine.reduced.b.tobytes() == slack[mine.live].tobytes()
    read = model_from_json(model_to_json(grown))
    for c in test:
        assert build_reduced_lp(grown, p, c)[0] is mine.reduced
        assert _same_serve(solve_via_compression(grown, p, c), solve_via_compression(read, p, c))


def test_a_model_pickled_before_its_first_serve_serves_the_bytes_of_one_pickled_after():
    # --jobs workers receive pickled models, which carry no starts whether
    # they were pickled fresh from learn or after a serve: each builds its
    # own in the worker, equal to the original's
    p, model, test = _learned("grid-4-int")
    before = pickle.loads(pickle.dumps(model))
    served = [solve_via_compression(model, p, c) for c in test]
    after = pickle.loads(pickle.dumps(model))
    assert model._starts is not None and before._starts is None and after._starts is None
    derived, own = compression._starts(after, p).serve, compression._starts(model, p).serve
    assert derived is not own and derived.p.A.tobytes() == own.p.A.tobytes()
    for m in (before, after):
        assert all(_same_serve(solve_via_compression(m, p, c), r) for c, r in zip(test, served))


@pytest.mark.parametrize("case,live", [("example1", None), ("randomlp", None), ("grid-4-int", None), ("packing-360", 66)])
def test_a_reduced_lp_drops_its_dead_rows_only_past_the_floor_and_above_rank_0(case, live):
    # example1 has 2 dead rows of 4 and grid-4 fewer than _DEAD_ROWS; the
    # rank-0 randomlp model has more, but its serves make no pivot.  Those
    # keep every row and serve with no index map; packing-360 keeps 66 of
    # its 744 rows, and its serves answer on p's rows
    p, model, test = _learned(case)
    starts = compression._starts(model, p)
    reduced = build_reduced_lp(model, p, test[0])[0]
    dead = ~(p.A @ model.U).any(axis=1) & (p.b - p.A @ model.x0 >= 0.0)
    assert (starts.live is None) == (live is None)
    if live is None:
        assert reduced.m == p.m and (model.rank == 0 or dead.sum() < compression._DEAD_ROWS)
        return
    assert starts.live.size == reduced.m == live and np.array_equal(starts.live, np.flatnonzero(~dead))
    for c in test:
        r = solve_via_compression(model, p, c)
        assert r.y.shape == (p.m,) and set(r.basis_id) <= set(starts.live.tolist())
        assert np.array_equal(np.flatnonzero(r.y), np.intersect1d(np.flatnonzero(r.y), starts.live))


def test_a_pickled_model_ships_without_its_starts_and_answers_as_the_original():
    # after a serve a packing-360 model holds its starts: a copy of A and
    # the 360 x 360 anchor inverse, 3.3 MB pickled.  --jobs workers get the
    # polytope separately, so the pickle leaves the starts out
    p, model, test = _learned("packing-360", n_test=10)
    serves = [solve_via_compression(model, p, c) for c in test]
    verdicts = [check_exact(model, p, c) for c in test]
    blob = pickle.dumps(model)
    assert model._starts is not None and len(blob) < 100_000
    other = pickle.loads(blob)
    assert other._starts is None
    assert all(_same_serve(solve_via_compression(other, p, c), r) for c, r in zip(test, serves))
    assert [check_exact(other, p, c) for c in test] == verdicts


def test_a_serve_at_a_degenerate_start_shifts_its_stall_away(monkeypatch):
    # the packing recipe at 56 blocks (d = 840, m = 1,736) with a model
    # from 40 costs (rank 40): z = 0 is a degenerate vertex of the reduced
    # LP, and every serve here makes a run of _DEGENERATE_RUN degenerate
    # pivots.  Walked out by Bland's rule, the median serve took 249
    # pivots; with the stall shift it takes 119.  The cap leaves 26% above
    # that and is 40% below the unshifted median.  Each served value is the
    # reduced LP's cold optimum.  A shifted serve whose end basis fails the
    # closing pricing at the true b finishes cold: none of the 20 does
    # under one BLAS thread, one under two, where A U and the model differ
    # in their last bits.  The bits are those of the dense referee, which
    # mirrors the stall rule
    inst = gen_instance("packing", {**PRESETS["packing-360"]["params"], "blocks": 56}, 0)
    p = inst.polytope
    model, _ = learner.learn(p, make_anchor(p, inst.c0), sample_costs(inst, 40, seed=0))
    test = sample_costs(inst, 20, seed=1, stream=STREAM_TEST)
    assert (p.d, model.rank) == (840, 40)
    pivots, cold = [], []
    real_eliminate, real_simplex = lp_core._eliminate, lp_core._simplex
    with monkeypatch.context() as spy:
        spy.setattr(lp_core, "_eliminate", lambda *a: pivots.append(1) or real_eliminate(*a))
        spy.setattr(lp_core, "_simplex", lambda *a: cold.append(1) or real_simplex(*a))
        served, counts = [], []
        for c in test:
            pivots.clear()
            served.append(solve_via_compression(model, p, c))
            counts.append(len(pivots))
    assert len(cold) <= 1
    assert np.median(counts) <= 150
    starts = compression._starts(model, p)
    assert starts.reduced.m < p.m
    for c, r in zip(test, served):
        reduced, c_red, offset = build_reduced_lp(model, p, c)
        v = offset + solve_lp(reduced, c_red).value
        assert r.value == pytest.approx(v, abs=VALUE_TOL * (1.0 + abs(v)))
        full = solve_lp(p, c, start=starts.anchor).value
        assert r.value >= full - VALUE_TOL * (1.0 + abs(full))  # the slice is a restriction
    monkeypatch.setattr(lp_core, "_dual_simplex", helpers.dense_dual_simplex)
    assert all(_same_serve(solve_via_compression(model, p, c), r) for c, r in zip(test, served))


def test_a_twin_polytope_reuses_the_carried_reduced_lp_and_another_b_does_not():
    p, model, test = _learned("example1")
    read = model_from_json(model_to_json(model))
    twin = Polytope(p.A.copy(), p.b.copy())
    wider = Polytope(p.A, p.b + 1.0)  # x0 is still a point of it
    reduced = build_reduced_lp(model, p, test[0])[0]
    for c in test:
        assert build_reduced_lp(model, twin, c)[0] is reduced
        assert compression._starts(model, twin).anchor.p is twin  # re-pointed
        assert _same_serve(solve_via_compression(model, twin, c), solve_via_compression(model, p, c))
    for c in test:
        assert build_reduced_lp(model, wider, c)[0] is not reduced
        assert _same_serve(solve_via_compression(model, wider, c), solve_via_compression(read, wider, c))


def test_model_json_round_trip(square):
    m = append_direction(vertical_slice(), np.array([0.0, 0.0]))
    doc = model_to_json(m)
    m2 = model_from_json(doc)
    assert np.array_equal(m2.U, m.U)
    assert np.allclose(m2.x0, m.x0)
    assert m2.rank == m.rank
    assert model_to_json(m2) == doc
    assert "tol" not in doc
    # files written while tolerances were a model field carry the default block
    old = {"eps_feas": 1e-7, "eps_face": 1e-7, "tau_rank": 1e-8, "tau_range": 1e-7, "tau_contain": 1e-6}
    m3 = model_from_json({**doc, "tol": old})
    assert np.array_equal(m3.U, m.U) and np.array_equal(m3.Q, m.Q)
    with pytest.raises(ValueError, match="tolerances"):
        model_from_json({**doc, "tol": {**old, "tau_contain": 1e-3}})


def _decision_case(name: str):
    """(p, model, test costs) of a served-vertex decision case: packing-360
    learned from 8 or 30 ``sample_costs``, and randomlp-a under its law with
    R and R_C scaled by 30 (rank 7), whose costs move the optimum off x0."""
    if name.startswith("packing-360"):
        inst, n = make_preset("packing-360"), int(name.rsplit("-", 1)[1])
    else:
        params = PRESETS["randomlp-a"]["params"]
        cost = {**params["cost"], "R": 30 * params["cost"]["R"], "R_C": 30 * params["cost"]["R_C"]}
        inst, n = gen_instance("randomlp", {**params, "cost": cost}, 0), 60
    p = inst.polytope
    model, _ = learner.learn(p, make_anchor(p, inst.c0), sample_costs(inst, n, seed=0))
    return p, model, sample_costs(inst, 60, seed=4, stream=STREAM_TEST)


@pytest.mark.parametrize("name", ["packing-360-8", "packing-360-30", "randomlp-a-wide"])
def test_verdicts_decided_at_the_served_vertex_are_those_of_face_containment(name):
    # check_exact decides at the served vertex when one basis solve can, and
    # asks contains_optimal_face otherwise: every verdict is the latter's
    p, model, test = _decision_case(name)
    decided = {True: 0, False: 0, None: 0}
    for c in test:
        want = contains_optimal_face(model, p, c).contained
        verdict = compression._verdict_at_served_vertex(model, p, c)
        decided[verdict] += 1
        assert verdict is None or verdict == want
        assert check_exact(model, p, c) == want
    assert decided[True] + decided[False] >= 0.9 * len(test), decided


@pytest.mark.parametrize("case", ["square", "grid-4", "maxflow-300", "packing-360"])
def test_the_served_vertex_is_tried_only_above_the_split_dimension_at_a_nondegenerate_anchor(case, square, monkeypatch):
    # at d <= 64 a serve costs about what the whole check does, and at an
    # anchor with more than d active rows (maxflow-300 under its own law)
    # the served points are degenerate: there check_exact neither serves
    # nor solves for multipliers.  packing-360 shows that the spies see both
    if case == "square":
        p, costs = square, [np.array([-1.0, -2.0]), np.array([1.0, -2.0]), np.array([-1.0, 0.5])]
        model, _ = learner.learn(p, np.array([1.0, 1.0]), costs)
    else:
        inst = make_preset(case)
        p, costs = inst.polytope, sample_costs(inst, 8, seed=0)
        model, _ = learner.learn(p, make_anchor(p, inst.c0), costs)
    anchor = compression._starts(model, p).anchor
    assert anchor is not None
    active = np.count_nonzero(np.abs(anchor.slack) <= _active_tol(p))
    assert (p.d > compression._SPLIT_DIM and active == p.d) == (case == "packing-360"), active
    calls = []  # the reduced solves (fewer than d variables) and the transposed basis solves
    solve, basis_solve = compression.solve_lp, compression._basis_solve

    def spy_solve(q, cost, start=None):
        if q.d < p.d:
            calls.append("serve")
        return solve(q, cost, start=start)

    def spy_basis_solve(q, rows, rhs=None, transpose=False):
        if transpose:
            calls.append("transposed")
        return basis_solve(q, rows, rhs, transpose)

    monkeypatch.setattr(compression, "solve_lp", spy_solve)
    monkeypatch.setattr(compression, "_basis_solve", spy_basis_solve)
    for c in costs:
        check_exact(model, p, c)
    if case == "packing-360":
        assert calls.count("serve") == len(costs) and "transposed" in calls
    else:
        assert calls == []


@pytest.mark.parametrize("k", [0, 100, 359])
def test_a_basis_multiplier_between_the_two_cuts_falls_back_to_face_containment(k, monkeypatch):
    # c = -A_B^T y, B the anchor's basis and y all ones but y_k = 0: x0 is
    # optimal, so the serve ends there, and its smallest multiplier is
    # neither clearly positive nor below the optimality cut
    inst = make_preset("packing-360")
    p = inst.polytope
    model, _ = learner.learn(p, make_anchor(p, inst.c0), sample_costs(inst, 8, seed=0))
    anchor = compression._starts(model, p).anchor
    y = np.ones(p.d)
    y[k] = 0.0
    c = -(p.A[anchor.rows].T @ y)
    cut, fallback = [], []
    limits, contains = compression._limits, compression.contains_optimal_face
    monkeypatch.setattr(compression, "_limits", lambda q, cost: cut.append(1) or limits(q, cost))
    assert compression._verdict_at_served_vertex(model, p, c) is None
    assert cut == [1]  # it got past the positive cut to the negative one
    monkeypatch.setattr(compression, "contains_optimal_face", lambda *a: fallback.append(1) or contains(*a))
    assert check_exact(model, p, c) == contains(model, p, c).contained
    assert fallback == [1]


@pytest.mark.parametrize("how", ["json", "pickle"])
@pytest.mark.parametrize("case", ["packing-360", "grid-4", "grid-4-int"])
def test_a_model_read_back_or_pickled_derives_its_starts_once_and_answers_as_the_learned_model(case, how):
    # a model read back from model.json carries no starts, and one pickled
    # into a bench worker, served on a pickled copy of p, carries starts on
    # another object: after its first check and serve it makes no call
    # that the learned model on its own p does not make.  That is none,
    # but on grid-4 with integer costs, where each check builds its face
    # LPs' polytope and start.  Answers are the learned model's
    p, model, test = _learned(case, n_test=21)
    if how == "json":
        other, q = model_from_json(model_to_json(model)), p
    else:
        other, q = pickle.loads(pickle.dumps(model)), pickle.loads(pickle.dumps(p))
    calls = []
    inv, first, post_init, equal = np.linalg.inv, lp_core.first_independent, Polytope.__post_init__, np.array_equal

    def spied(m, q):
        check_exact(m, q, test[0])
        solve_via_compression(m, q, test[0])
        calls.clear()
        with pytest.MonkeyPatch.context() as spy:
            spy.setattr(np.linalg, "inv", lambda a: calls.append(("inv", a.shape)) or inv(a))
            spy.setattr(lp_core, "first_independent", lambda M, k: calls.append(("first", M.shape)) or first(M, k))
            spy.setattr(Polytope, "__post_init__", lambda s: post_init(s) or calls.append(("polytope", s.A.shape)))
            spy.setattr(np, "array_equal", lambda a, b, **k: calls.append(("equal", np.shape(a))) or equal(a, b, **k))
            verdicts = [check_exact(m, q, c) for c in test[1:]]
            serves = [solve_via_compression(m, q, c) for c in test[1:]]
        return verdicts, serves, list(calls)

    verdicts, serves, made = spied(model, p)
    assert (made == []) == (case != "grid-4-int")
    assert not {("polytope", p.A.shape), ("polytope", (p.m, model.rank)), ("equal", p.A.shape)} & set(made)
    got = spied(other, q)
    assert got[2] == made
    assert got[0] == verdicts
    assert all(_same_serve(a, b) for a, b in zip(got[1], serves))
