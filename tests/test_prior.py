import math

import numpy as np
import pytest

import lpslice.prior as prior_mod
from helpers import binom_tail, cutoff_oracle, member_loop
from lpslice import binomial_cutoff_size_bound
from lpslice.instances import STREAM_PILOT, cost_stream, make_preset, sample_costs
from lpslice.prior import (
    EstimatedPrior,
    Exhausted,
    ScoreParams,
    anchor_cost,
    binomial_cutoff,
    calibrate,
    composite_certificate,
    fit_score,
    member,
    prior_from_json,
    prior_to_json,
    retain_stream,
    score,
)


def two_point_params() -> ScoreParams:
    return fit_score(np.array([[0.0, 0.0], [2.0, 0.0]]), lam=1.0)


def test_fit_score_single_sample_regularizes():
    p = fit_score(np.array([[3.0, -1.0]]), lam=0.5)
    assert np.allclose(p.mu, [3.0, -1.0])
    assert np.allclose(p.M, np.eye(2) / 0.5)
    assert score(p, np.array([3.0, -1.0])) == pytest.approx(0.0, abs=1e-15)


def test_fit_score_two_points():
    p = two_point_params()
    assert np.allclose(p.mu, [1.0, 0.0])
    assert np.allclose(p.M, np.diag([1.0 / 3.0, 1.0]))


def test_score_values():
    p = two_point_params()
    assert score(p, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert score(p, np.array([2.0, 0.0])) == pytest.approx(1.0 / 3.0)
    assert score(p, np.array([3.0, 0.0])) == pytest.approx(4.0 / 3.0)
    assert score(p, np.array([1.0, 2.0])) == pytest.approx(4.0)


def test_score_translation_invariance():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 3))
    v = np.array([5.0, -2.0, 0.25])
    p1 = fit_score(X, lam=0.1)
    p2 = fit_score(X + v, lam=0.1)
    for _ in range(10):
        x = rng.standard_normal(3)
        assert score(p1, x) == pytest.approx(score(p2, x + v), abs=1e-9)


def test_default_ridge_scales_with_spread():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    p = fit_score(X)
    # covariance trace is 4/3 here, so the default ridge is 1e-3 * (4/3) / 2
    assert p.lam == pytest.approx(1e-3 * (4.0 / 3.0) / 2.0)
    # a degenerate sample falls back to the absolute default
    tiny = fit_score(np.zeros((5, 2)))
    assert tiny.lam == pytest.approx(1e-3)
    assert score(tiny, np.array([1.0, 0.0])) == pytest.approx(1000.0)


def test_binomial_cutoff_known_values():
    assert binomial_cutoff(0, 0.1, 0.05) == 1
    assert binomial_cutoff(100, 0.1, 0.05) == 96
    assert binomial_cutoff(120, 0.1, 0.05) == 114
    assert binomial_cutoff(200, 0.1, 0.05) == 188
    assert binomial_cutoff(5, 0.01, 0.01) == 6  # infeasible at small m: threshold is +inf


def test_binomial_cutoff_matches_direct_summation_oracle():
    grid_m = list(range(0, 201, 13)) + [1, 2, 5, 100, 120, 199, 200]
    for rho in (0.05, 0.1, 0.3):
        for delta0 in (0.01, 0.05, 0.1):
            for m in grid_m:
                assert binomial_cutoff(m, rho, delta0) == cutoff_oracle(m, rho, delta0)


def test_binomial_cutoff_within_size_bound():
    assert binomial_cutoff_size_bound(100, 0.1, 0.05) == 100
    for rho in (0.05, 0.1, 0.3):
        for delta0 in (0.01, 0.05, 0.1):
            for m in (10, 50, 100, 150, 200):
                assert binomial_cutoff(m, rho, delta0) <= binomial_cutoff_size_bound(m, rho, delta0)


def test_tail_oracle_sanity():
    # the helper itself must be trusted, so check it on hand cases
    assert binom_tail(3, 0.5, 0) == 1.0
    assert binom_tail(3, 0.5, 4) == 0.0
    assert binom_tail(3, 0.5, 3) == pytest.approx(0.125)
    assert binom_tail(2, 0.25, 1) == pytest.approx(1 - 0.75**2)


def test_calibrate_threshold_is_order_statistic():
    p = ScoreParams(mu=np.zeros(1), M=np.eye(1), lam=1.0)
    cal = np.array([[1.0], [-2.0], [0.5], [3.0], [-0.25]])  # scores 1, 4, .25, 9, .0625
    # P[Bin(5, 0.5) >= 3] = 0.5 <= 0.6 while P[... >= 2] = 0.8125, so k = 3
    prior = calibrate(p, cal, rho=0.5, delta0=0.6)
    assert prior.k == binomial_cutoff(5, 0.5, 0.6) == 3
    assert prior.threshold == pytest.approx(1.0)  # third smallest score
    assert prior.m == 5


def test_calibrate_infeasible_cutoff_gives_infinite_threshold():
    p = ScoreParams(mu=np.zeros(1), M=np.eye(1), lam=1.0)
    prior = calibrate(p, np.array([[1.0], [2.0]]), rho=0.1, delta0=0.01)
    assert prior.k == 3  # m + 1
    assert math.isinf(prior.threshold)
    assert member(prior, np.array([1e9]))


def test_calibrate_constant_scores():
    p = ScoreParams(mu=np.zeros(1), M=np.eye(1), lam=1.0)
    prior = calibrate(p, np.ones((40, 1)), rho=0.1, delta0=0.1)
    assert prior.threshold == pytest.approx(1.0)


def test_member_boundary():
    p = ScoreParams(mu=np.zeros(1), M=np.eye(1), lam=1.0)
    prior = EstimatedPrior(params=p, threshold=1.0, k=1, m=1, rho=0.1, delta0=0.05)
    assert member(prior, np.array([0.5]))
    assert member(prior, np.array([1.0]))  # boundary included
    assert not member(prior, np.array([1.5]))


def test_member_region_is_convex():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 3))
    prior = calibrate(fit_score(X), X, rho=0.1, delta0=0.1)
    pts = [x for x in rng.standard_normal((200, 3)) if member(prior, x)]
    for i in range(0, len(pts) - 1, 2):
        midpoint = 0.5 * (pts[i] + pts[i + 1])
        assert member(prior, midpoint)


def test_retain_stream_keeps_members_in_order():
    p = ScoreParams(mu=np.zeros(1), M=np.eye(1), lam=1.0)
    prior = EstimatedPrior(params=p, threshold=1.0, k=1, m=1, rho=0.1, delta0=0.05)
    stream = iter([np.array([v]) for v in (0.5, 2.0, 0.3, 3.0, 0.1, 4.0)])
    retained, skipped = retain_stream(prior, stream, 3)
    assert [float(v[0]) for v in retained] == [0.5, 0.3, 0.1]
    assert skipped == 2


def test_retain_stream_zero_request_and_exhaustion():
    p = ScoreParams(mu=np.zeros(1), M=np.eye(1), lam=1.0)
    prior = EstimatedPrior(params=p, threshold=1.0, k=1, m=1, rho=0.1, delta0=0.05)
    assert retain_stream(prior, iter([]), 0) == ([], 0)
    with pytest.raises(Exhausted):
        retain_stream(prior, iter([np.array([0.5])]), 2)


def _example1_prior(seed: int):
    """example1 under the CLI's estimated-prior defaults: 40 pilot costs
    fit the score, 120 calibrate it at rho = 0.1, delta0 = 0.05."""
    inst = make_preset("example1", 0)
    pilot = sample_costs(inst, 160, seed, stream=STREAM_PILOT)
    return inst, pilot[40:], calibrate(fit_score(pilot[:40]), pilot[40:], 0.1, 0.05)


def _retained(run, prior, stream, n1):
    """(bytes of each retained cost, skipped), or the Exhausted message."""
    try:
        retained, skipped = run(prior, stream, n1)
    except Exhausted as e:
        return str(e)
    return [c.tobytes() for c in retained], skipped


@pytest.mark.parametrize("seed", range(6))
def test_retain_stream_is_the_per_cost_member_loop_bitwise(seed):
    # perfbench desk-example1's filter at seed 0 (2,000 of 4,000 candidates)
    # and five more seeds
    inst, _, prior = _example1_prior(seed)
    candidates = sample_costs(inst, 4000, seed)
    got = _retained(retain_stream, prior, candidates, 2000)
    assert got == _retained(member_loop, prior, candidates, 2000)
    assert isinstance(got, tuple) and got[1] > 0


def test_retain_stream_asks_member_at_the_threshold(monkeypatch):
    # the k-th score of the calibration sample is the threshold itself: the
    # batched score cannot decide it, and member does
    _, cal, prior = _example1_prior(0)
    asked = []
    real = prior_mod.member
    monkeypatch.setattr(prior_mod, "member", lambda pr, c: asked.append(c.tobytes()) or real(pr, c))
    scores = [score(prior.params, c) for c in cal]
    at = [c.tobytes() for c, s in zip(cal, scores) if s == prior.threshold]
    for n1 in (prior.k, len(cal)):  # the k members, then more than the sample holds
        asked.clear()
        assert _retained(retain_stream, prior, cal, n1) == _retained(member_loop, prior, cal, n1)
        assert at and set(at) <= set(asked)


def test_retain_stream_reads_a_generator_up_to_the_n1th_member():
    # blocks of the members still needed never read past the n1-th member,
    # so the stream is left where the per-cost loop leaves it
    inst, _, prior = _example1_prior(1)
    for n1 in (1, 7, 300):
        streams = [cost_stream(inst, 3), cost_stream(inst, 3)]
        assert _retained(retain_stream, prior, streams[0], n1) == _retained(member_loop, prior, streams[1], n1)
        assert next(streams[0]).tobytes() == next(streams[1]).tobytes()
    stream = (c for c in sample_costs(inst, 50, 3))  # a finite generator runs out
    assert _retained(retain_stream, prior, stream, 60) == _retained(member_loop, prior, iter(sample_costs(inst, 50, 3)), 60)


def test_retain_stream_with_an_infinite_threshold_keeps_every_candidate():
    _, _, fitted = _example1_prior(2)
    prior = EstimatedPrior(params=fitted.params, threshold=math.inf, k=121, m=120, rho=0.1, delta0=0.05)
    costs = np.random.default_rng(0).normal(0.0, 1e6, (40, 2))
    assert _retained(retain_stream, prior, costs, 40) == ([c.tobytes() for c in costs], 0)


def test_retain_stream_judges_a_block_that_does_not_stack_by_member():
    # a scalar broadcasts against mu in score, as member sees it, and a cost
    # with a nan entry goes to member too; a cost of another length raises
    # there, in both loops
    p = ScoreParams(mu=np.zeros(2), M=np.eye(2), lam=1.0)
    prior = EstimatedPrior(params=p, threshold=1.0, k=1, m=1, rho=0.1, delta0=0.05)
    stream = [np.array([0.5, 0.0]), 0.5, np.array([2.0, 0.0]), [0.1, 0.1], np.array([np.nan, 0.0]), np.array([0.0, 0.2])]
    got, want = retain_stream(prior, stream, 4), member_loop(prior, stream, 4)
    assert [np.asarray(c).tobytes() for c in got[0]] == [np.asarray(c).tobytes() for c in want[0]] and got[1] == want[1]
    for run in (retain_stream, member_loop):
        with pytest.raises(ValueError):
            run(prior, [np.array([0.5, 0.0]), np.zeros(3)], 2)


def test_composite_certificate_values():
    assert composite_certificate(0.1, 10000, 5, 0.1) == pytest.approx(0.8866789659628024, abs=1e-15)
    # shrinking rho recovers the plain certificate up to the rho term
    from lpslice import certificate_bound

    plain = certificate_bound(10000, 5, 0.1).lower_bound
    assert composite_certificate(1e-12, 10000, 5, 0.1) == pytest.approx(plain, abs=1e-9)
    assert composite_certificate(0.1, 0, 3, 0.05) == 0.0
    assert composite_certificate(0.1, 10, 5, 0.05) == 0.0  # clamped
    with pytest.raises(ValueError):
        composite_certificate(0.0, 10, 1, 0.05)


def test_anchor_cost_is_fitted_mean():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    prior = calibrate(fit_score(X, lam=1.0), X, rho=0.2, delta0=0.5)
    assert np.allclose(anchor_cost(prior), [1.0, 0.0])


def test_prior_json_round_trip_finite_and_infinite():
    p = ScoreParams(mu=np.array([1.0, -2.0]), M=np.diag([0.5, 2.0]), lam=0.25)
    for thr in (1.75, math.inf):
        prior = EstimatedPrior(params=p, threshold=thr, k=3, m=7, rho=0.1, delta0=0.05)
        doc = prior_to_json(prior)
        p2 = prior_from_json(doc)
        assert p2.threshold == prior.threshold
        assert p2.k == 3 and p2.m == 7
        assert np.array_equal(p2.params.mu, prior.params.mu)
        assert np.array_equal(p2.params.M, prior.params.M)
        assert prior_to_json(p2) == doc
