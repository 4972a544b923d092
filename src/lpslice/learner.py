"""Cumulative slice learning from a stream of cost vectors.

``learn`` processes costs in order and keeps one anchored slice model.  For
each cost it tests whether the current slice contains the entire optimal
face; while it does not, a face vertex outside the slice is appended as a
new direction.  Samples that trigger at least one append form the hard set,
and the model is a deterministic function of the hard subsequence alone:
replaying it (or deleting any non-hard samples) reproduces the model
bitwise.  The size of the hard set feeds a distribution-free certificate of
out-of-sample exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compression import CompressionModel, _contains_given_solve, _starts, append_direction
from .lp_core import InternalError, Polytope, SolveStatus, solve_lp

__all__ = [
    "LearnTrace",
    "Certificate",
    "make_anchor",
    "learn",
    "replay_on_hard_subsequence",
    "certificate_bound",
    "trace_to_json",
    "trace_from_json",
]


@dataclass
class LearnTrace:
    """Processing record of one learn run.

    processed            ids in processing order (1-based by default)
    hard                 ordered ids of samples that triggered >= 1 append
    appends_per_sample   append count aligned with ``processed``
    final_rank           rank of the returned model
    anchor_provenance    free-form note on how the anchor point was obtained;
                         learn leaves it empty for the caller to fill
    optima               x of each sample's full solve, aligned with
                         ``processed``; in memory only, trace_to_json
                         does not write it
    """

    processed: list = field(default_factory=list)
    hard: list = field(default_factory=list)
    appends_per_sample: list = field(default_factory=list)
    final_rank: int = 0
    anchor_provenance: str = ""
    optima: list = field(default_factory=list)


@dataclass(frozen=True)
class Certificate:
    """Distribution-free lower bound on out-of-sample exactness probability.

    lower_bound = max(0, 1 - (4/n) * (6 t + log(e/delta))), valid with
    probability at least 1 - delta over an i.i.d. sample of size n when t is
    the size of the learner's hard set.
    """

    n: int
    t: int
    delta: float
    lower_bound: float


def make_anchor(p: Polytope, c0: np.ndarray) -> np.ndarray:
    """Vertex optimizer for the anchor cost; the slice is anchored here."""
    r = solve_lp(p, np.asarray(c0, dtype=float))
    if r.status is not SolveStatus.OPTIMAL:
        raise ValueError(f"anchor solve is {r.status.value}; need a feasible bounded LP")
    return r.x


def learn(p: Polytope, x0: np.ndarray, costs, ids=None):
    """Run the cumulative learner over an iterable of costs.

    Returns (model, trace).  ``costs`` is consumed lazily; ``ids`` optionally
    relabels samples (default 1-based positions).  Appends across the whole
    run are capped at d; exceeding the cap means the containment test and
    the range test disagree, which is reported as InternalError rather than
    looping.  Every threshold of the run is a constant of
    :mod:`lpslice.tolerances`.  The model's provenance holds only
    ``hard_indices`` and the trace's ``anchor_provenance`` is empty, so a
    replay returns an equal model; labels such as the instance name are the
    caller's to add.  Every full solve starts from the model's anchor start
    on p, the ``VertexStart`` at x0, which each grown model takes over, so
    the returned model serves and checks on p without factoring it again;
    when x0 is not a vertex there is none and every solve is cold.
    ValueError when x0 is not a point of X, by the ``Polytope.contains``
    rule, or when z = 0 is not a point of the reduced LP {z : (A U) z <=
    b - A x0} by the same rule, which is stricter, since that LP's
    right-hand side is the slack itself: every serve of the model would
    raise.  The model's serve start is left to its first serve.
    """
    model = CompressionModel.empty(x0)
    start = _starts(model, p).anchor
    if not _starts(model, p).reduced.contains(np.zeros(0)):  # (A U) 0 = 0: z = 0 of every slice
        raise ValueError("x0 is outside the reduced LP of every slice: its serves would raise")
    trace = LearnTrace()
    d = p.d
    total_appends = 0
    for pos, c in enumerate(costs, start=1):
        sid = ids[pos - 1] if ids is not None else pos
        c = np.asarray(c, dtype=float)
        full = solve_lp(p, c, start=start)  # appends do not change the full LP: solve it once
        n_app = 0
        while True:
            res = _contains_given_solve(model, p, c, full)
            if res.contained:
                break
            model = append_direction(model, res.witness)
            n_app += 1
            total_appends += 1
            if total_appends > d:
                raise InternalError("append count exceeded the ambient dimension")
        trace.processed.append(sid)
        trace.appends_per_sample.append(n_app)
        trace.optima.append(full.x)
        if n_app:
            trace.hard.append(sid)
    trace.final_rank = model.rank
    model.provenance["hard_indices"] = list(trace.hard)
    return model, trace


def replay_on_hard_subsequence(p: Polytope, x0: np.ndarray, trace: LearnTrace, costs) -> CompressionModel:
    """Re-run the learner on the ordered hard subsequence only.

    ``costs`` must be the full indexable sequence the original run saw, with
    positions matching ``trace.processed``.  The result reproduces the
    original model bitwise (sample compression property), and the replayed
    samples keep their ids, so its provenance, ``{"hard_indices": ...}``, is
    that of ``learn``'s model too.
    """
    pos_of = {sid: k for k, sid in enumerate(trace.processed)}
    sub = [costs[pos_of[sid]] for sid in trace.hard]
    model, _ = learn(p, x0, sub, ids=list(trace.hard))
    return model


def certificate_bound(n: int, t: int, delta: float) -> Certificate:
    """Exactness certificate from sample size n, hard-set size t, failure budget delta.

    n = 0 is allowed and yields the vacuous bound 0 (nothing was observed).
    """
    if n < 0 or t < 0 or t > max(n, 0):
        raise ValueError("need 0 <= n and 0 <= t <= n")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    if n == 0:
        return Certificate(n=0, t=t, delta=delta, lower_bound=0.0)
    raw = 1.0 - (4.0 / n) * (6.0 * t + 1.0 - math.log(delta))
    return Certificate(n=n, t=t, delta=delta, lower_bound=max(0.0, min(1.0, raw)))


def trace_to_json(trace: LearnTrace) -> dict:
    return {
        "processed": list(trace.processed),
        "hard": list(trace.hard),
        "appends_per_sample": list(trace.appends_per_sample),
        "final_rank": trace.final_rank,
        "anchor_provenance": trace.anchor_provenance,
    }


def trace_from_json(doc: dict) -> LearnTrace:
    return LearnTrace(
        processed=list(doc["processed"]),
        hard=list(doc["hard"]),
        appends_per_sample=list(doc["appends_per_sample"]),
        final_rank=int(doc["final_rank"]),
        anchor_provenance=doc.get("anchor_provenance", ""),
    )
