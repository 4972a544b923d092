import copy
import dataclasses
import pickle

import numpy as np
import pytest

import helpers
import lpslice.compression as compression
import lpslice.learner as learner
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
from lpslice.instances import PRESETS, gen_instance, make_preset, sample_costs
from lpslice.linalg import check_orthonormal
from lpslice.oracle import exact_check_bruteforce
from lpslice.tolerances import MULTIPLIER_TOL, TAU_CONTAIN


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
    for c in costs[40:]:
        res = solve_lp(p, c, start=x0)
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
    # learn keeps the start it built at x0; a model read back from JSON has
    # none and starts each solve at x0 itself, one-shot: same bits.  grid-4
    # with integer costs has a degenerate anchor and ties, so face LPs run
    inst = make_preset(preset)
    p = inst.polytope
    x0 = learner.make_anchor(p, inst.c0)
    costs = sample_costs(inst, 12, seed=1)
    if preset == "grid-4":
        costs = np.round(costs)
    model, _ = learner.learn(p, x0, costs[:8])
    read = model_from_json(model_to_json(model))
    assert model.start is not None and read.start is None
    assert model.U.tobytes() == read.U.tobytes() and model.Q.tobytes() == read.Q.tobytes()
    for c in costs[8:]:
        a, b = contains_optimal_face(model, p, c), contains_optimal_face(read, p, c)
        assert a.contained == b.contained
        assert (a.witness is None) == (b.witness is None)
        assert a.witness is None or a.witness.tobytes() == b.witness.tobytes()
        assert check_exact(model, p, c) == check_exact(read, p, c) == a.contained


def test_a_start_from_another_polytope_is_not_used(square):
    model, _ = learner.learn(square, np.array([1.0, 1.0]), [np.array([-1.0, -2.0]), np.array([1.0, -2.0])])
    assert model.start is not None and model.start.p is square
    wider = Polytope(square.A, 2.0 * square.b)  # same d: x0 is still a point of it
    c = np.array([1.0, -2.0])
    assert contains_optimal_face(model, wider, c).contained == contains_optimal_face(model_from_json(model_to_json(model)), wider, c).contained


def _learned(case: str):
    """(p, model learned from 8 costs, 4 test costs) of a serve case."""
    if case == "randomlp":  # a rank-0 model: every cost is optimal at x0
        inst = gen_instance("randomlp", {**PRESETS["randomlp-a"]["params"], "d": 40, "rows": 40}, 0)
    else:
        inst = make_preset(case.removesuffix("-int"))
    p = inst.polytope
    costs = sample_costs(inst, 12, seed=1)
    if case.endswith("-int"):  # ties: degenerate reduced LPs
        costs = np.round(costs)
    model, _ = learner.learn(p, learner.make_anchor(p, inst.c0), costs[:8])
    return p, model, costs[8:]


def _same_serve(a, b) -> bool:
    return (a.value, a.basis_id) == (b.value, b.basis_id) and a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


@pytest.mark.parametrize("case,rank", [("packing-360", None), ("grid-4-int", None), ("example1", 1), ("randomlp", 0)])
def test_serves_from_the_carried_reduced_lp_give_the_bits_of_a_model_read_back_without_it(case, rank):
    # a learned model builds the reduced LP and its start at z = 0 on its
    # first serve; a model read back from JSON has no start at x0, so it
    # has neither and builds both one-shot on every serve
    p, model, test = _learned(case)
    assert rank is None or model.rank == rank
    assert model.reduced is not None and model.reduced.p.d == model.rank
    read = model_from_json(model_to_json(model))
    assert read.reduced is None
    for c in test:
        assert build_reduced_lp(model, p, c)[0] is model.reduced.p
        assert _same_serve(solve_via_compression(model, p, c), solve_via_compression(read, p, c))


def test_a_model_grown_after_learn_serves_from_its_own_start():
    # the serve start is a function of (start, U): a grown model keeps the
    # start at x0 and derives the reduced LP of its own U
    p, model, test = _learned("packing-360")
    x = next(r.x for r in (solve_lp(p, -c) for c in test) if not in_range(model, r.x - model.x0))
    old = model.reduced
    grown = append_direction(model, x)
    assert grown.start is model.start and model.reduced is old
    assert grown.reduced.p.d == grown.rank == model.rank + 1
    assert grown.reduced.p.A.tobytes() == (p.A @ grown.U).tobytes()
    read = model_from_json(model_to_json(grown))
    for c in test:
        assert build_reduced_lp(grown, p, c)[0] is grown.reduced.p
        assert _same_serve(solve_via_compression(grown, p, c), solve_via_compression(read, p, c))


def test_a_model_pickled_before_its_first_serve_serves_the_bytes_of_one_pickled_after():
    # --jobs workers receive pickled models: one pickled fresh from learn
    # builds its serve start in the worker, one pickled after a serve
    # carries it; the start's polytope is then a copy that fits p
    p, model, test = _learned("grid-4-int")
    before = pickle.loads(pickle.dumps(model))
    served = [solve_via_compression(model, p, c) for c in test]
    after = pickle.loads(pickle.dumps(model))
    assert after.reduced is not model.reduced and after.reduced.p.A.tobytes() == model.reduced.p.A.tobytes()
    for m in (before, after):
        assert all(_same_serve(solve_via_compression(m, p, c), r) for c, r in zip(test, served))


def test_a_twin_polytope_reuses_the_carried_reduced_lp_and_another_b_does_not():
    p, model, test = _learned("example1")
    read = model_from_json(model_to_json(model))
    twin = Polytope(p.A.copy(), p.b.copy())
    wider = Polytope(p.A, p.b + 1.0)  # x0 is still a point of it
    for c in test:
        assert build_reduced_lp(model, twin, c)[0] is model.reduced.p
        assert _same_serve(solve_via_compression(model, twin, c), solve_via_compression(model, p, c))
        assert build_reduced_lp(model, wider, c)[0] is not model.reduced.p
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
