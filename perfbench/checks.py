"""Output checks against computations that share no code with lpslice.

Reference optima come from a closed form (the [-1, 1]^2 box), a dynamic
program over the grid DAG, or HiGHS through scipy.  Before a reference is
trusted it is compared with HiGHS on a few costs, so a wrong reference
cannot pass a wrong program.  scipy is imported here only, after the timed
phases and after peak memory has been read.
"""

from __future__ import annotations

import math

import numpy as np

import lpslice as ls

# relative tolerance on optimal values: |v - ref| <= VALUE_TOL * (1 + |ref|)
VALUE_TOL = 1e-6
# relative feasibility slack on A x <= b
FEAS_TOL = 1e-6
# confidence parameter of the certificate the exact share is checked against
CERT_DELTA = 0.01
SELF_CHECK_COSTS = 5


def highs_value(p, c) -> float:
    from scipy.optimize import linprog

    r = linprog(c, A_ub=p.A, b_ub=p.b, bounds=[(None, None)] * p.d, method="highs")
    if r.status != 0:
        raise RuntimeError(f"HiGHS did not solve the reference LP: {r.message}")
    return float(r.fun)


def square_value(c) -> float:
    """min c.x over the box [-1, 1]^d."""
    return -float(np.sum(np.abs(c)))


def grid_value(arcs, c) -> float:
    """Min-cost unit path from node 0 to the last node of a DAG.

    Every grid arc goes right or down, so node ids (row-major) are a
    topological order and one forward sweep relaxes each arc once.  With
    unit supply and capacities in [0, 1] the LP optimum is this path cost.
    """
    n = 1 + max(v for _, v in arcs)
    dist = [math.inf] * n
    dist[0] = 0.0
    out = [[] for _ in range(n)]
    for a, (u, v) in enumerate(arcs):
        out[u].append((v, a))
    for u in range(n):
        for v, a in out[u]:
            dist[v] = min(dist[v], dist[u] + float(c[a]))
    return dist[n - 1]


def _close(v, ref) -> bool:
    return abs(v - ref) <= VALUE_TOL * (1.0 + abs(ref))


def _feasible(p, x) -> bool:
    return bool(np.all(p.A @ x <= p.b + FEAS_TOL * (1.0 + np.abs(p.b))))


def reference_values(prep, costs, problems) -> list:
    """Optimal values of ``costs``, after the reference passes its self-check."""
    if prep.kind == "highs":
        return [highs_value(prep.p, c) for c in costs]
    ref = square_value if prep.kind == "square" else (lambda c: grid_value(prep.p.meta["arcs"], c))
    for c in costs[:SELF_CHECK_COSTS]:
        if not _close(ref(c), highs_value(prep.p, c)):
            problems.append(f"{prep.kind} reference disagrees with HiGHS at c={list(c)}")
    return [ref(c) for c in costs]


def check_outputs(wl, prep, run) -> tuple:
    """Every mismatch found in the run's first answers, one line each, and
    the serve costs whose answer is certified exact but wrong.

    No mismatch means correct.  A wrong certified serve is a failed
    operation where the test costs are fixed, so it fails in every run;
    where they come from --seed it is a mismatch.
    """
    problems: list = []
    if run.mismatches:
        problems.append(f"{run.mismatches} repeats of the same inputs gave different outputs")
    served, full, verdicts = (run.answers[ph] for ph in ("serve", "full", "check"))

    p, test = prep.p, prep.test
    ref = reference_values(prep, test[: wl.n_serve], problems)

    for i, res in enumerate(full):
        if res is None:
            continue
        if res.status is not ls.SolveStatus.OPTIMAL or not _close(res.value, ref[i]):
            problems.append(f"full solve {i}: {res.status.value} {res.value} vs reference {ref[i]}")
        elif not _feasible(p, res.x):
            problems.append(f"full solve {i}: x is infeasible")

    for i, res in enumerate(served):
        if res is None:
            continue
        c = test[i]
        if not _feasible(p, res.x):
            problems.append(f"serve {i}: x is infeasible")
        if not _close(res.value, float(c @ res.x)):
            problems.append(f"serve {i}: value {res.value} != c.x {float(c @ res.x)}")
        # the reduced LP is a restriction of the full LP
        if res.value < ref[i] - VALUE_TOL * (1.0 + abs(ref[i])):
            problems.append(f"serve {i}: value {res.value} below the optimum {ref[i]}")

    wrong = []
    for i, ok in enumerate(verdicts):
        res = served[i]
        if ok and res is not None:
            lines = []
            if not _close(res.value, ref[i]):
                lines.append(f"check {i}: certified exact but served {res.value} != optimum {ref[i]}")
            if prep.kind == "grid" and float(np.max(np.abs(res.x - np.round(res.x)))) > 1e-6:
                lines.append(f"serve {i}: certified exact but x is not integral")
            if lines and wl.fixed_costs:
                wrong.append(i)
            else:
                problems += lines

    model, trace = run.model, run.trace
    if prep.kind == "square":
        for i, ok in enumerate(verdicts):
            if ok is not None and ok != ls.exact_check_bruteforce(model, p, test[i]):
                problems.append(f"check {i}: verdict {ok} disagrees with vertex enumeration")

    if wl.check_train and not all(ls.check_exact(model, p, c) for c in prep.train):
        problems.append("a training cost is not exact for the final model")

    verdicts = [v for v in verdicts if v is not None]
    n1, t = len(prep.train), len(trace.hard)
    if prep.prior:
        bound = ls.composite_certificate(prep.prior["rho"], n1, t, CERT_DELTA)
    else:
        bound = ls.certificate_bound(n1, t, CERT_DELTA).lower_bound
    if verdicts and sum(verdicts) / len(verdicts) < bound:
        problems.append(f"exact share {sum(verdicts)}/{len(verdicts)} below the certified {bound:.4f}")
    return problems, wrong
