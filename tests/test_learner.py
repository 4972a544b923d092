import numpy as np
import pytest

import lpslice.compression as compression
import lpslice.learner as learner
from helpers import small_lp
from lpslice import (
    Polytope,
    certificate_bound,
    check_exact,
    learn,
    make_anchor,
    solve_lp,
    solve_via_compression,
)
from lpslice import lp_core
from lpslice.instances import PRESETS, gen_instance, make_preset, sample_costs
from lpslice.learner import (
    replay_on_hard_subsequence,
    trace_from_json,
    trace_to_json,
)
from lpslice.lp_core import VertexStart


def test_make_anchor_returns_vertex(square):
    assert np.allclose(make_anchor(square, np.array([-1.0, -0.1])), [1.0, 1.0])
    # zero cost is fine: any vertex, deterministically the same one each time
    a = make_anchor(square, np.zeros(2))
    b = make_anchor(square, np.zeros(2))
    assert np.array_equal(a, b)
    assert np.allclose(a, [1.0, 1.0])


def test_make_anchor_example_instance(example1):
    x0 = make_anchor(example1.polytope, example1.c0)
    assert np.allclose(x0, [1.0, 1.0])


def test_make_anchor_rejects_unbounded():
    half = Polytope(np.array([[-1.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        make_anchor(half, np.array([-1.0]))


def test_learn_two_costs_reaches_rank_one(square):
    costs = [np.array([-1.1, 0.3]), np.array([-1.05, -0.7])]
    model, trace = learn(square, np.array([1.0, 0.0]), costs)
    assert model.rank == 1
    assert np.allclose(np.abs(model.Q[:, 0]), [0.0, 1.0])
    assert trace.processed == [1, 2]
    assert trace.hard == [1]
    assert trace.appends_per_sample == [1, 0]
    assert trace.final_rank == 1
    assert model.provenance["hard_indices"] == [1]
    # both training costs are exact afterwards
    for c in costs:
        assert check_exact(model, square, c)


def test_learn_all_costs_optimize_at_anchor(square):
    x0 = np.array([1.0, 1.0])
    model, trace = learn(square, x0, [np.array([-1.0, -0.1]), np.array([-0.5, -1.0])])
    assert model.rank == 0
    assert trace.hard == []
    assert trace.appends_per_sample == [0, 0]


def test_learn_requires_feasible_anchor(square):
    # outside X, just outside at a corner and on an edge, and not a number:
    # learn leaves the check to VertexStart.at, which refuses each point by
    # the Polytope.contains rule before any cost is read
    def costs():
        raise AssertionError("a cost was read")
        yield

    for x0 in ([2.0, 0.0], [1.0 + 1e-6, 1.0], [1.0 + 1e-6, 0.0], [np.nan, 0.0]):
        assert not square.contains(np.array(x0))
        with pytest.raises(ValueError, match="not a point of X"):
            learn(square, np.array(x0), costs())


def test_learn_refuses_an_anchor_outside_the_reduced_rule():
    # the box [-1000, 1000]^2 and x0 2e-7 past a face: a vertex of X by the
    # start's rule, which scales with |b|, but z = 0 is outside the reduced
    # LP, whose right-hand side is the slack b - A x0.  Every serve of a
    # model anchored there raises, so learn refuses the anchor
    box = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.full(4, 1000.0))
    x0 = np.array([1000.0 + 2e-7, 1000.0])
    assert box.contains(x0)
    with pytest.raises(ValueError, match="outside the reduced LP"):
        learn(box, x0, [np.array([-1.0, -1.0])])
    with pytest.raises(ValueError, match="not a point of X"):
        solve_via_compression(compression.CompressionModel.empty(x0), box, np.array([-1.0, -1.0]))


def test_learn_accepts_custom_ids(square):
    costs = [np.array([-1.1, 0.3]), np.array([-1.05, -0.7])]
    _, trace = learn(square, np.array([1.0, 0.0]), costs, ids=["a", "b"])
    assert trace.processed == ["a", "b"]
    assert trace.hard == ["a"]


def test_learn_rank_never_exceeds_dimension():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        p = small_lp(rng, d, int(rng.integers(d + 1, 7)))
        x0 = make_anchor(p, rng.standard_normal(d))
        costs = [rng.standard_normal(d) for _ in range(15)]
        model, trace = learn(p, x0, costs)
        assert len(trace.hard) <= model.rank <= d
        assert sum(trace.appends_per_sample) == model.rank


def test_learn_solves_each_full_lp_once(monkeypatch):
    # appends do not change the full LP, so a hard sample is solved once
    # however many directions it adds
    inst = make_preset("grid-4")
    p = inst.polytope
    x0 = make_anchor(p, inst.c0)
    costs = np.round(sample_costs(inst, 12, seed=4))  # the first sample appends three times
    solved = []  # full LPs: solves of p itself, not of the face LPs containment runs
    for mod in (learner, compression):
        real = mod.solve_lp

        def counted(q, c, *args, _real=real, **kwargs):
            if q is p:
                solved.append(np.asarray(c).tobytes())
            return _real(q, c, *args, **kwargs)

        monkeypatch.setattr(mod, "solve_lp", counted)
    model, trace = learn(p, x0, costs)
    assert sum(trace.appends_per_sample) > len(trace.hard) > 0  # some sample appends twice
    assert solved == [c.tobytes() for c in costs]


def test_replay_on_hard_subsequence_is_bitwise(square):
    rng = np.random.default_rng(3)
    c0 = np.array([-1.0, 0.05])
    x0 = make_anchor(square, c0)
    # c0 itself comes first and is easy, so the hard ids do not start at 1
    costs = [c0] + [c0 + rng.uniform(-0.5, 0.5, 2) for _ in range(15)]
    model, trace = learn(square, x0, costs)
    assert trace.hard[0] > 1
    replayed = replay_on_hard_subsequence(square, x0, trace, costs)
    assert np.array_equal(replayed.U, model.U)
    assert np.array_equal(replayed.Q, model.Q)
    assert replayed.provenance == model.provenance
    assert compression.model_to_json(replayed) == compression.model_to_json(model)


def test_deleting_easy_samples_leaves_model_unchanged():
    rng = np.random.default_rng(5)
    d = 3
    p = small_lp(rng, d, 6)
    c0 = rng.standard_normal(d)
    x0 = make_anchor(p, c0)
    costs = [c0 + rng.uniform(-0.4, 0.4, d) for _ in range(18)]
    model, trace = learn(p, x0, costs)
    hard = set(trace.hard)
    for mask_seed in range(6):
        mrng = np.random.default_rng(mask_seed)
        keep = [i for i in trace.processed if i in hard or mrng.random() < 0.5]
        sub = [costs[i - 1] for i in keep]
        model2, _ = learn(p, x0, sub)
        assert np.array_equal(model2.U, model.U)


def test_certificate_bound_values():
    c = certificate_bound(10000, 5, 0.1)
    assert c.lower_bound == pytest.approx(0.9866789659628024, abs=1e-15)
    assert (c.n, c.t, c.delta) == (10000, 5, 0.1)
    assert certificate_bound(40, 1, 0.1).lower_bound == pytest.approx(0.06974149070059543, abs=1e-15)
    # vacuous regimes clamp to zero
    assert certificate_bound(0, 0, 0.1).lower_bound == 0.0
    assert certificate_bound(10, 5, 0.1).lower_bound == 0.0


def test_certificate_bound_monotonicity():
    lbs = [certificate_bound(n, 2, 0.05).lower_bound for n in (100, 500, 2000, 10000)]
    assert lbs == sorted(lbs)
    assert certificate_bound(2000, 1, 0.05).lower_bound > certificate_bound(2000, 4, 0.05).lower_bound


def test_certificate_bound_validation():
    with pytest.raises(ValueError):
        certificate_bound(-1, 0, 0.1)
    with pytest.raises(ValueError):
        certificate_bound(10, 0, 1.5)


def test_trace_json_round_trip(square):
    costs = [np.array([-1.1, 0.3]), np.array([-1.05, -0.7])]
    x0 = np.array([1.0, 0.0])
    _, trace = learn(square, x0, costs)
    assert trace.anchor_provenance == ""
    trace.anchor_provenance = "known c0"  # the CLI's label
    # the optima of learn's full solves stay in memory, out of trace.json
    assert len(trace.optima) == len(trace.processed)
    for c, x in zip(costs, trace.optima):
        assert x.tobytes() == solve_lp(square, c, start=VertexStart.at(square, x0)).x.tobytes()
    doc = trace_to_json(trace)
    assert set(doc) == {"processed", "hard", "appends_per_sample", "final_rank", "anchor_provenance"}
    t2 = trace_from_json(doc)
    assert t2.processed == trace.processed
    assert t2.hard == trace.hard
    assert t2.appends_per_sample == trace.appends_per_sample
    assert t2.final_rank == trace.final_rank
    assert t2.anchor_provenance == "known c0"


def test_nondegenerate_anchor_never_runs_phase_one(monkeypatch):
    # with d active rows at the anchor, every full solve of learn and
    # check_exact, and every reduced solve of a serve, starts from a vertex
    inst = gen_instance("randomlp", {**PRESETS["randomlp-a"]["params"], "d": 40, "rows": 40}, 0)
    p = inst.polytope
    x0 = make_anchor(p, inst.c0)
    assert np.sum(np.abs(p.b - p.A @ x0) <= 1e-9 * (1.0 + np.abs(p.b))) == p.d
    costs = inst.c0 + 0.3 * np.mean(np.abs(inst.c0)) * np.random.default_rng(2).standard_normal((18, p.d))
    phase_one = []
    real = lp_core._simplex
    monkeypatch.setattr(lp_core, "_simplex", lambda *a: phase_one.append(1) or real(*a))
    model, trace = learn(p, x0, costs[:12])
    assert model.rank > 0 and trace.hard
    for c in costs[12:]:
        check_exact(model, p, c)
        solve_via_compression(model, p, c)
    assert phase_one == []


def test_learn_factors_the_anchor_basis_once(monkeypatch):
    # learn builds one start at x0 and the model keeps it: one basis pick
    # and one inverse for the whole learn.  The first serve builds the
    # reduced LP and its start at z = 0, one more pick and inverse; later
    # checks and serves factor nothing and build no polytope.  Counts,
    # unlike a time budget, do not depend on how busy the host is
    inst = make_preset("grid-4")  # a degenerate anchor: more active rows than d
    p = inst.polytope
    x0 = make_anchor(p, inst.c0)
    s = float(np.mean(np.abs(inst.c0)))
    # a widened continuous law: samples append, and faces are single vertices
    costs = inst.c0 + np.random.default_rng(0).uniform(-s, s, (40, p.d))
    calls = []
    real_inv, real_pick = np.linalg.inv, lp_core.first_independent
    monkeypatch.setattr(np.linalg, "inv", lambda *a: calls.append("inv") or real_inv(*a))
    monkeypatch.setattr(lp_core, "first_independent", lambda *a: calls.append("pick") or real_pick(*a))
    model, trace = learn(p, x0, costs[:20])
    assert model.rank > 0 and trace.hard  # the start passed through appends
    assert sorted(calls) == ["inv", "pick"]
    real_init = Polytope.__post_init__
    monkeypatch.setattr(Polytope, "__post_init__", lambda self: calls.append("polytope") or real_init(self))
    calls.clear()
    check_exact(model, p, costs[20])
    solve_via_compression(model, p, costs[20])
    assert sorted(calls) == ["inv", "pick", "polytope"]  # z = 0 has more active rows than rank too
    calls.clear()
    for c in costs[21:]:
        check_exact(model, p, c)
        solve_via_compression(model, p, c)
    assert calls == []


def test_a_non_vertex_anchor_tries_one_factorization_per_learn(monkeypatch):
    # the square with its row x <= 1 written twice: at x0 = (1, 0) the two
    # active rows are that row twice, a singular basis, so x0 is no start
    # and every full solve is the cold one; the one inverse is tried once
    # for the whole learn, not once per cost
    p = Polytope(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(5))
    x0 = np.array([1.0, 0.0])
    costs = [np.array([-1.0, a]) for a in (-0.5, 0.3, -0.2, 0.7, -0.9)]
    calls = []
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda *a: calls.append("inv") or real_inv(*a))
    model, trace = learn(p, x0, costs)
    assert calls == ["inv"]
    starts = compression._starts(model, p)
    assert starts.anchor is None and "serve" not in vars(starts)
    monkeypatch.undo()
    assert trace.hard and model.rank > 0
    for c, x in zip(costs, trace.optima):
        assert x.tobytes() == solve_lp(p, c).x.tobytes()


def test_a_large_learn_inverts_the_anchor_basis_once(monkeypatch):
    # on packing-360 (d > _SPLIT_DIM, so the basis solves are split ones) a
    # learn inverts the anchor basis once and forms its vertex once, and
    # forms one x per training cost; the first check factors the reduced
    # start at z = 0 for its serve, and each check then serves and solves
    # for the served vertex's multipliers, which refute all 8 test costs
    # here, so no check forms a d x d x; no serve solves a d x d basis
    inst = make_preset("packing-360")
    p = inst.polytope
    x0 = make_anchor(p, inst.c0)
    costs = sample_costs(inst, 16, seed=0)
    calls = []
    real = lp_core._basis_solve

    def counted(q, rows, rhs=None, transpose=False):
        calls.append((q.d, "inverse" if rhs is None else "y" if transpose else "x"))
        return real(q, rows, rhs, transpose)

    monkeypatch.setattr(lp_core, "_basis_solve", counted)
    monkeypatch.setattr(compression, "_basis_solve", counted)
    model, trace = learn(p, x0, costs[:8])
    assert p.d > lp_core._SPLIT_DIM >= model.rank > 0
    r = model.rank
    assert sorted(calls) == sorted([(p.d, "inverse")] + [(p.d, "x")] * 9)
    calls.clear()
    assert not any(check_exact(model, p, c) for c in costs[8:])
    assert calls[:2] == [(r, "inverse"), (r, "x")]
    assert calls[2:] == [(r, "x"), (p.d, "y")] * 8
    calls.clear()
    for c in costs[8:]:
        solve_via_compression(model, p, c)
    assert calls == [(r, "x")] * 8
