"""Estimated cost priors: ridge Mahalanobis score, calibrated threshold, composite bound.

When the cost distribution is unknown, a working prior is estimated in two
stages: fit a quadratic typicality score on one pilot sample, then pick the
score threshold as an order statistic of a second, held-out calibration
sample.  The order is chosen by an exact binomial tail computation so that
with probability at least 1 - delta0 the resulting sublevel set has
coverage at least 1 - rho.  ``composite_certificate`` then combines the
coverage budget with the learner's exactness certificate on retained
samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .learner import _gap

__all__ = [
    "ScoreParams",
    "EstimatedPrior",
    "Exhausted",
    "fit_score",
    "score",
    "binomial_cutoff",
    "binomial_cutoff_size_bound",
    "calibrate",
    "member",
    "retain_stream",
    "composite_certificate",
    "anchor_cost",
    "prior_to_json",
    "prior_from_json",
]


class Exhausted(RuntimeError):
    """The candidate stream ended before enough members were retained."""


@dataclass(frozen=True)
class ScoreParams:
    """Parameters of the ridge Mahalanobis score s(c) = (c-mu)^T M (c-mu).

    M = (Sigma + lam I)^{-1} computed from a Cholesky factor and symmetrized,
    so M is symmetric positive definite for any lam > 0.
    """

    mu: np.ndarray
    M: np.ndarray
    lam: float


@dataclass(frozen=True)
class EstimatedPrior:
    """Score sublevel set {c : s(c) <= threshold} with its calibration record.

    threshold = +inf iff the cutoff order k exceeded the calibration size m
    (the prior then accepts everything, which keeps the coverage guarantee).
    """

    params: ScoreParams
    threshold: float
    k: int
    m: int
    rho: float
    delta0: float


def fit_score(sample: np.ndarray, lam: float | None = None) -> ScoreParams:
    """Fit mu and the ridge-regularized inverse covariance from pilot costs.

    ``sample`` is (N, d) with N >= 1.  The covariance uses denominator
    max(1, N - 1).  Default ridge: lam = 1e-3 * trace(Sigma)/d, floored at
    1e-3 when the sample covariance is identically zero so that M always
    exists.
    """
    X = np.asarray(sample, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("sample must be (N, d) with N >= 1")
    n, d = X.shape
    mu = X.mean(axis=0)
    R = X - mu
    Sigma = (R.T @ R) / max(1, n - 1)
    if lam is None:
        lam = 1e-3 * float(np.trace(Sigma)) / d
        if lam <= 0.0:
            lam = 1e-3
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    L = np.linalg.cholesky(Sigma + lam * np.eye(d))
    Linv = np.linalg.inv(L)
    M = Linv.T @ Linv
    M = 0.5 * (M + M.T)
    return ScoreParams(mu=mu, M=M, lam=float(lam))


def score(params: ScoreParams, c: np.ndarray) -> float:
    """Typicality score, >= 0; invariant under joint translation of fit and query."""
    r = np.asarray(c, dtype=float) - params.mu
    return max(0.0, float(r @ params.M @ r))


def _log_binom_tail_suffix(m: int, p: float) -> np.ndarray:
    """log P[Bin(m, p) >= k] for k = 0..m, computed stably in log space."""
    j = np.arange(m + 1)
    lgam = math.lgamma
    logpmf = np.array(
        [lgam(m + 1) - lgam(jj + 1) - lgam(m - jj + 1) for jj in j]
    ) + j * math.log(p) + (m - j) * math.log1p(-p)
    # suffix logsumexp via reverse accumulate
    rev = logpmf[::-1]
    acc = np.logaddexp.accumulate(rev)
    return acc[::-1]


def binomial_cutoff(m: int, rho: float, delta0: float) -> int:
    """Smallest k in {1, ..., m+1} with P[Bin(m, 1-rho) >= k] <= delta0.

    Exact tail computation in log space (no normal approximation); k = m+1
    encodes that no admissible order statistic exists, in which case the
    calibrated threshold is +inf.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if not (0.0 < rho < 1.0 and 0.0 < delta0 < 1.0):
        raise ValueError("rho and delta0 must be in (0, 1)")
    if m == 0:
        return 1
    tails = _log_binom_tail_suffix(m, 1.0 - rho)
    logd = math.log(delta0)
    for k in range(1, m + 1):
        if tails[k] <= logd:
            return k
    return m + 1


def binomial_cutoff_size_bound(m: int, rho: float, delta0: float) -> int:
    """Closed-form upper bound on binomial_cutoff (Bernstein-style):
    k <= floor(m(1-rho) + sqrt(2 m rho (1-rho) L) + 2L/3) + 1 with L = log(1/delta0),
    capped at m+1."""
    L = math.log(1.0 / delta0)
    val = m * (1.0 - rho) + math.sqrt(2.0 * m * rho * (1.0 - rho) * L) + 2.0 * L / 3.0
    return min(m + 1, int(math.floor(val)) + 1)


def calibrate(params: ScoreParams, cal_sample: np.ndarray, rho: float, delta0: float) -> EstimatedPrior:
    """Set the score threshold from a held-out calibration sample.

    Scores are sorted ascending (stable) and the binomial-cutoff order
    statistic becomes the threshold; k = m+1 yields threshold +inf.
    """
    X = np.asarray(cal_sample, dtype=float)
    if X.ndim != 2:
        raise ValueError("calibration sample must be (m, d)")
    m = X.shape[0]
    k = binomial_cutoff(m, rho, delta0)
    if k == m + 1:
        thr = math.inf
    else:
        scores = np.array([score(params, X[i]) for i in range(m)])
        scores = np.sort(scores, kind="stable")
        thr = float(scores[k - 1])
    return EstimatedPrior(params=params, threshold=thr, k=k, m=m, rho=rho, delta0=delta0)


def member(prior: EstimatedPrior, c: np.ndarray) -> bool:
    """Is c inside the calibrated working prior?"""
    return score(prior.params, c) <= prior.threshold


def _members(prior: EstimatedPrior, block: list) -> list:
    """``member`` of each candidate of block, from one product where
    rounding cannot change the answer.

    When the candidates stack into an (n, d) array they are scored at once,
    ((R M) * R).sum(1) with R = C - mu.  Each score, this one or
    ``score``'s (r M) r, rounds a sum of d products of sums of d products,
    so it lies within about d eps (|r|^T |M| |r|) of the exact value
    (Higham 2002, section 3.1): (2d + 2) eps (|r|^T |M| |r|) bounds the
    difference of the two, with a margin for the rounding of the bound and
    of s +- bound.  A candidate whose batched score lies farther than that
    from the threshold is decided by it; every other one, and every
    candidate of a block that does not stack or has a non-finite entry,
    goes through ``member`` itself.
    """
    params, thr = prior.params, prior.threshold
    d = params.mu.shape[0]
    try:
        C = np.array(block, dtype=float)
    except (TypeError, ValueError):  # candidates of several shapes
        C = None
    sure = np.zeros(len(block), dtype=bool)
    inside = np.zeros(len(block), dtype=bool)
    if C is not None and C.shape == (len(block), d):
        fin = np.isfinite(C).all(axis=1)
        R = C[fin] - params.mu
        with np.errstate(all="ignore"):  # an overflow leaves nan or inf, which decides nothing
            s = np.maximum(((R @ params.M) * R).sum(axis=1), 0.0)  # score's clamp
            absR = np.abs(R)
            bound = (2 * d + 2) * np.finfo(float).eps * ((absR @ np.abs(params.M)) * absR).sum(axis=1)
            inside[fin] = s + bound <= thr
            sure[fin] = inside[fin] | (s - bound > thr)
    return [k if ok else member(prior, c) for c, ok, k in zip(block, sure.tolist(), inside.tolist())]


def retain_stream(prior: EstimatedPrior, stream, n1: int):
    """First n1 members of the stream in order, plus the skip count.

    Candidates are read in blocks of the n1 - len(retained) members still
    needed, so no candidate after the n1-th member is read.  A block is
    scored by one product, and ``member`` itself judges each candidate
    whose batched score lies within a rounding bound of the threshold
    (``_members``), so the retained list is bitwise the one a per-cost
    ``member`` loop keeps.  Raises Exhausted (reporting the shortfall) if
    the stream ends first.
    """
    retained: list[np.ndarray] = []
    skipped = 0
    if n1 <= 0:
        return retained, skipped
    stream = iter(stream)
    while block := list(itertools.islice(stream, n1 - len(retained))):
        for c, keep in zip(block, _members(prior, block)):
            if keep:
                retained.append(np.asarray(c, dtype=float))
            else:
                skipped += 1
        if len(retained) == n1:
            return retained, skipped
    raise Exhausted(
        f"stream exhausted with {len(retained)}/{n1} retained ({skipped} skipped)"
    )


def composite_certificate(rho: float, n1: int, t: int, delta1: float) -> float:
    """Unconditional exactness bound: max(0, 1 - rho - (4/n1)(6t + log(e/delta1))).

    Valid with probability at least 1 - delta0 - delta1 when the prior was
    calibrated at (rho, delta0) and the learner saw n1 retained samples with
    hard-set size t.
    """
    if n1 < 0 or t < 0:
        raise ValueError("need n1 >= 0 and t >= 0")
    if not (0.0 < rho < 1.0 and 0.0 < delta1 < 1.0):
        raise ValueError("rho and delta1 must be in (0, 1)")
    if n1 == 0:
        return 0.0
    return max(0.0, 1.0 - rho - _gap(n1, t, delta1))


def anchor_cost(prior: EstimatedPrior) -> np.ndarray:
    """Representative cost used to anchor the slice: the fitted mean."""
    return prior.params.mu


def prior_to_json(prior: EstimatedPrior) -> dict:
    return {
        "mu": [float(v) for v in prior.params.mu],
        "M": [[float(v) for v in row] for row in prior.params.M],
        "lambda": prior.params.lam,
        "threshold": "inf" if math.isinf(prior.threshold) else prior.threshold,
        "k": prior.k,
        "m": prior.m,
        "rho": prior.rho,
        "delta0": prior.delta0,
    }


def prior_from_json(doc: dict) -> EstimatedPrior:
    thr = doc["threshold"]
    return EstimatedPrior(
        params=ScoreParams(
            mu=np.array(doc["mu"], dtype=float),
            M=np.array(doc["M"], dtype=float),
            lam=float(doc["lambda"]),
        ),
        threshold=math.inf if thr == "inf" else float(thr),
        k=int(doc["k"]),
        m=int(doc["m"]),
        rho=float(doc["rho"]),
        delta0=float(doc["delta0"]),
    )
