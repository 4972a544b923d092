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
    with pytest.raises(ValueError):
        learn(square, np.array([2.0, 0.0]), [np.array([-1.0, 0.0])])


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
    costs = [c0 + rng.uniform(-0.5, 0.5, 2) for _ in range(15)]
    model, trace = learn(square, x0, costs)
    replayed = replay_on_hard_subsequence(square, x0, trace, costs)
    assert np.array_equal(replayed.U, model.U)
    assert np.array_equal(replayed.Q, model.Q)
    assert np.array_equal(replayed.Qperp, model.Qperp)


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
    _, trace = learn(square, np.array([1.0, 0.0]), costs, anchor_provenance="known c0")
    doc = trace_to_json(trace)
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
