"""Shared test utilities: small random LP builders, the dense pivot
update that the solver's sparse one must match bitwise, the dense tableau
simplex that the solver's revised cold path must match, the started dual
simplex with dense pivot products that its sparse ones must match, the LU
basis solves that its singleton-first ones must match, the Gram-Schmidt
loop that rebuilds its span with ``np.column_stack`` and the Gram-Schmidt
free face, which the library's loop and its basis-inverse free face must
match, the all-complement containment referee, the per-cost loops that
``learn`` and ``retain_stream`` must match bitwise, and independent
binomial oracles computed by direct summation (math.comb + fsum), so the
package's log-space tail code is checked against arithmetic it does not
share."""

from __future__ import annotations

import math

import numpy as np

from lpslice import ContainmentResult, InternalError, Polytope, SolveResult, SolveStatus, lp_core, solve_lp
from lpslice.compression import CompressionModel, _contains_given_solve, _residual, _starts, append_direction
from lpslice.learner import LearnTrace
from lpslice.linalg import _project_out, complete_basis, orthonormal_columns
from lpslice.lp_core import VertexStart
from lpslice.prior import Exhausted, member
from lpslice.tolerances import (
    DRIVE_OUT_TOL,
    FACE_SPAN,
    MULTIPLIER_TOL,
    PHASE_ONE_TOL,
    PIVOT_TOL,
    STALL_SHIFT,
    TAU_CONTAIN,
    TAU_RANK,
)

# Half-width factor of the thickened optimal face: |c.x - v| <= EPS_FACE * (1 + |v|).
EPS_FACE = 1e-7


def small_lp(rng: np.random.Generator, d: int, m_struct: int) -> Polytope:
    """Bounded nonempty polytope: m_struct random unit rows with positive
    slack at a random interior point, plus a box that caps every coordinate."""
    xbar = rng.standard_normal(d)
    A = rng.standard_normal((m_struct, d))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = A @ xbar + rng.uniform(0.1, 1.0, m_struct)
    L = float(np.max(np.abs(xbar))) + 2.0
    eye = np.eye(d)
    box_rows = np.vstack([r for j in range(d) for r in (eye[j : j + 1], -eye[j : j + 1])])
    return Polytope(np.vstack([A, box_rows]), np.concatenate([b, np.full(2 * d, L)]))


# Bound rows of each coordinate kind of ``boxed_lp``: (coefficient, side)
# pairs, side "hi" for a row a x_i <= a u_i and "lo" for a x_i <= a l_i.
BOUND_KINDS = {
    "box": ((1.0, "hi"), (-1.0, "lo")),
    "scaled": ((2.0, "hi"), (-3.0, "lo")),  # 2 x_i <= 2 u_i, -3 x_i <= -3 l_i
    "fixed": ((1.0, "hi"), (-1.0, "lo")),  # l_i = u_i: a box of width 0
    "upper": ((1.0, "hi"),),
    "lower": ((-1.0, "lo"),),
    "twice": ((1.0, "wide"), (1.0, "hi"), (-1.0, "lo")),  # a looser upper row first
}


def boxed_lp(rng: np.random.Generator, d: int, m_struct: int, kinds=tuple(BOUND_KINDS)) -> Polytope:
    """Bounded nonempty polytope: m_struct sparse random rows with positive
    slack at an interior point xbar, then the bound rows of a kind drawn
    from ``kinds`` (of ``BOUND_KINDS``) for each coordinate.  A coordinate
    with only an upper (lower) bound is bounded on its other side by one
    row over all of its kind, sum x_i >= sum xbar_i - 1 (<= sum xbar_i +
    1).  A box of width 0 puts two active rows on its coordinate, so no
    optimum of a polytope with one has d active rows."""
    xbar = rng.uniform(-1.0, 1.0, d)
    kinds = rng.choice(list(kinds), d)
    S = rng.standard_normal((m_struct, d)) * (rng.random((m_struct, d)) < 0.1)
    rows, rhs = list(S), list(S @ xbar + rng.uniform(0.1, 1.0, m_struct))
    for i, kind in enumerate(kinds):
        lo, hi = xbar[i] - rng.uniform(0.5, 2.0), xbar[i] + rng.uniform(0.5, 2.0)
        if kind == "fixed":
            lo = hi = xbar[i]
        for a, side in BOUND_KINDS[kind]:
            rows.append(a * np.eye(d)[i])
            rhs.append(a * {"hi": hi, "lo": lo, "wide": hi + 0.5}[side])
    for kind, s in (("upper", -1.0), ("lower", 1.0)):
        mask = kinds == kind
        if mask.any():
            rows.append(s * mask)
            rhs.append(s * xbar[mask].sum() + 1.0)
    return Polytope(np.array(rows), np.array(rhs))


def every_breakpoint_flips_lp(rng: np.random.Generator, d: int):
    """(p, c): a box l <= x <= u of unit rows and the row sum x_i >= sum
    u_i + 1, which no point of the box meets; c > 0.  The crash takes the
    lower rows, so phase one makes no pivot and phase two starts at the
    corner l, where that row alone is violated.  Each of its breakpoints
    is a lower row whose partner, the upper row, the box holds, and after
    all of them the row is still violated by 1."""
    lo, hi = rng.uniform(-2.0, 0.0, d), rng.uniform(0.5, 2.0, d)
    A = np.vstack([np.eye(d), -np.eye(d), -np.ones((1, d))])
    return Polytope(A, np.concatenate([hi, -lo, [-hi.sum() - 1.0]])), rng.uniform(0.5, 1.5, d)


def dense_eliminate(T: np.ndarray, r: int, col: np.ndarray) -> None:
    """The pivot update of ``lp_core._eliminate`` over every entry of T, in
    blocks of 64 rows: row r is divided by col[r], and col[i] times the new
    row r is subtracted from every other row i, zero products included."""
    prow = T[r] / col[r]
    for i in range(0, T.shape[0], 64):
        block = T[i : i + 64]
        block -= np.outer(col[i : i + 64], prow)
    T[r] = prow


def _tableau_pivot(T: np.ndarray, r: int, j: int) -> None:
    """Pivot the tableau T on entry (r, j) and set column j to e_r exactly."""
    dense_eliminate(T, r, T[:, j].copy())
    T[:, j] = 0.0
    T[r, j] = 1.0


def _tableau_iterate(T, basis, n_priced, tol_rc, max_iter, bounded=False):
    """Pivot the tableau T (body rows, then the reduced-cost row; the last
    column is the RHS, T[-1, -1] = -objective) until no priced column has
    reduced cost < -tol_rc, by the rules of ``lp_core._primal``: Dantzig's
    rule with the Bland fallback after ``lp_core._DEGENERATE_RUN``
    degenerate pivots, the minimum ratio with ties to the lowest basic
    index, and in phase one (``bounded``) a column without an eligible entry
    set to 0.  Returns the number of pivots, or -1 on an unbounded ray."""
    p = T.shape[0] - 1
    it = 0
    degenerate = 0
    while True:
        z = T[p, :n_priced]
        if degenerate < lp_core._DEGENERATE_RUN:
            j = int(np.argmin(z))
            if z[j] >= -tol_rc:
                return it
        else:
            cand = np.flatnonzero(z < -tol_rc)
            if cand.size == 0:
                return it
            j = int(cand[0])
        col = T[:p, j]
        elig = col > PIVOT_TOL * (1.0 + np.max(np.abs(col)))
        if not np.any(elig):
            if not bounded:
                return -1
            T[p, j] = 0.0
            continue
        rows = np.flatnonzero(elig)
        ratios = np.maximum(T[rows, -1], 0.0) / col[rows]
        rmin = ratios.min()
        ties = rows[ratios == rmin]
        r = int(ties[np.argmin(basis[ties])])
        _tableau_pivot(T, r, j)
        basis[r] = j
        degenerate = degenerate + 1 if rmin == 0.0 else 0
        it += 1
        if it > max_iter:
            raise InternalError("simplex iteration limit exceeded")


def tableau_simplex(poly, c):
    """min g.w s.t. M w = q, w >= 0, with M = A^T, q = -c and g = b of
    ``poly``, on a dense two-phase tableau: the reference for
    ``lp_core._simplex``, with its arguments, thresholds, limits and
    return value (status, w, basis columns).  Every pivot rewrites the
    whole (p + 1) x (n + p + 1) tableau with ``dense_eliminate``.  It
    ignores the polytope's bound rows, which the revised path crashes from
    and flips: the tableau starts from the all-artificial basis and pivots
    at every breakpoint."""
    M, q, g = poly.A.T, -c, poly.b
    p, n = M.shape
    tol_rc, max_iter = lp_core._limits(poly, c)
    sgn = np.where(q < 0.0, -1.0, 1.0)
    T = np.zeros((p + 1, n + p + 1))
    T[:p, :n] = M * sgn[:, None]
    T[:p, n : n + p] = np.eye(p)
    T[:p, -1] = q * sgn
    T[p, : n + p] = -T[:p, : n + p].sum(axis=0)
    T[p, n : n + p] = 0.0
    T[p, -1] = -T[:p, -1].sum()
    basis = np.arange(n, n + p)
    _tableau_iterate(T, basis, n + p, tol_rc, max_iter, bounded=True)
    if -T[p, -1] > PHASE_ONE_TOL * (1.0 + float(np.sum(np.abs(q)))):
        return "infeasible", None, None
    # drive residual artificials out of the basis; drop redundant rows
    in_basis = np.zeros(n + p, dtype=bool)
    in_basis[basis] = True
    keep = []
    for r in range(p):
        if basis[r] >= n:
            row = np.where(in_basis[:n], 0.0, np.abs(T[r, :n]))
            jbest = int(np.argmax(row))
            if row[jbest] <= DRIVE_OUT_TOL * (1.0 + float(np.max(np.abs(T[r, :n]), initial=0.0))):
                continue
            _tableau_pivot(T, r, jbest)
            in_basis[basis[r]] = False
            in_basis[jbest] = True
            basis[r] = jbest
        keep.append(r)
    T = np.hstack([T[keep + [p], :n], T[keep + [p], -1:]])
    basis = basis[keep]
    T[-1, :-1] = g - g[basis] @ T[:-1, :-1]
    T[-1, -1] = -float(g[basis] @ T[:-1, -1])
    if _tableau_iterate(T, basis, n, tol_rc, max_iter) < 0:
        return "unbounded", None, None
    w = np.zeros(n)
    w[basis] = T[:-1, -1]
    return "optimal", w, basis.copy()


def dense_dual_simplex(start, c):
    """The referee of ``lp_core._dual_simplex``: the same started dual
    simplex with each pivot's leaving row A (B^-1)_r and entering column
    B^-1 a_j formed as dense products over all of their terms, as every
    started solve pivoted before those products skipped zero factors.  Its
    stall rule is the solver's: the first run of ``lp_core._DEGENERATE_RUN``
    degenerate pivots raises the slack of each nonbasic row j at or below
    tol_rc by STALL_SHIFT (1 + scale) (1 + frac(j (sqrt 5 - 1) / 2)), and
    the next falls back to Bland's rule."""
    A, b, inv = start.p.A, start.p.b, start.inv
    q = -c
    tol_rc, max_iter = lp_core._limits(start.p, c)
    basis, z = start.rows, start.slack
    y_B = inv @ q
    it = 0
    degenerate = 0
    shifted = False
    while True:
        r = int(y_B.argmin())
        if y_B[r] >= -tol_rc:
            break
        if it == 0:
            inv, basis = inv.copy(), basis.copy()
            z = z.copy()
            z[basis] = 0.0
        if degenerate >= lp_core._DEGENERATE_RUN and not shifted:
            for j in range(z.size):
                if z[j] <= tol_rc and j not in basis:
                    z[j] += STALL_SHIFT * (1.0 + start.p.scale) * (1.0 + math.fmod(j * (math.sqrt(5.0) - 1.0) / 2.0, 1.0))
            shifted, degenerate = True, 0
        ties = (y_B == y_B[r] if degenerate < lp_core._DEGENERATE_RUN else y_B < -tol_rc).nonzero()[0]
        r = int(ties[basis[ties].argmin()])
        row = A @ inv[r]
        row[basis] = 0.0
        row[basis[r]] = 1.0
        elig = (row < -PIVOT_TOL * (1.0 + np.abs(row).max())).nonzero()[0]
        if elig.size == 0:
            return lp_core._INFEASIBLE, None, None
        ratios = np.maximum(z[elig], 0.0) / -row[elig]
        k = int(ratios.argmin())
        j = int(elig[k])
        z -= z[j] * (row / row[j])
        z[j] = 0.0
        col = inv @ A[j]
        col[r] = row[j]
        lp_core._eliminate(inv, r, col)
        basis[r] = j
        y_B = inv @ q
        degenerate = degenerate + 1 if ratios[k] == 0.0 else 0
        it += 1
        if it > max_iter:
            raise InternalError("simplex iteration limit exceeded")
    if it:
        z = b - A @ (b[basis] @ inv)
    if float(z.min()) < -tol_rc:
        return None
    w = np.zeros(A.shape[0])
    w[basis] = y_B
    return lp_core._OPTIMAL, w, basis


def lu_basis_solve(p: Polytope, rows, rhs) -> np.ndarray:
    """The referee of ``lp_core._basis_solve``: A_B^-1 rhs by LAPACK's LU
    of the whole d x d basis of the ascending ``rows``, as every basis
    solve was formed before the singleton-first split."""
    return np.linalg.solve(p.A[rows], rhs)


def lu_basis_inverse(p: Polytope, rows) -> np.ndarray:
    """The referee of ``lp_core._basis_solve`` without rhs: the inverse of
    A_B^T by LAPACK."""
    return np.linalg.inv(p.A.T[:, rows])


def column_stack_extend(Q: np.ndarray, V: np.ndarray, cutoff: float, limit: int) -> np.ndarray:
    """The reference for ``linalg.extend``: Q with up to ``limit`` more
    orthonormal columns from V's, the span rebuilt by ``np.column_stack``
    of Q and every kept column after each one, with no stop at d columns."""
    span = Q
    kept: list[np.ndarray] = []
    for k in range(V.shape[1]):
        if len(kept) == limit:
            break
        w = _project_out(span, V[:, k].copy())
        nrm = float(np.linalg.norm(w))
        if nrm <= cutoff or nrm == 0.0:
            continue
        kept.append(w / nrm)
        span = np.column_stack([Q] + kept)
    return span


def gram_schmidt_free_face(model, p: Polytope, res: SolveResult):
    """``compression._free_face`` as it was before it read the free
    directions off the solve's basis inverse: N = ``complete_basis`` of the
    Gram-Schmidt basis of A_S^T, S the rows with multipliers above thr (a row
    of A_S counts as dependent below TAU_RANK times the largest row norm).
    The rest is the library's: (N, F, B), or None for a single-vertex face
    or an empty B."""
    d = model.d
    y = res.y
    thr = MULTIPLIER_TOL * (1.0 + float(np.max(np.abs(y))))
    basis = list(res.basis_id)
    if len(basis) == d and float(np.min(y[basis])) > thr:
        return None
    N = complete_basis(orthonormal_columns(p.A[y > thr].T))
    B = orthonormal_columns(_residual(model, N), rank_tol=TAU_CONTAIN / FACE_SPAN)
    if B.shape[1] == 0:
        return None
    AN = p.A @ N
    moves = np.linalg.norm(AN, axis=1) > TAU_RANK * np.linalg.norm(p.A, axis=1)
    if not moves.any():
        raise InternalError("no row of X moves along the optimal face's free directions, though X is bounded")
    slack = np.maximum(p.b - p.A @ res.x, 0.0)
    return N, Polytope(AN[moves], slack[moves]), B


def solve_on_optimal_face(p: Polytope, c, v: float, a, sense: str = "max") -> SolveResult:
    """Optimize a.x over the optimal face {x in X : c.x = v}, thickened.

    The face is represented by the inequality pair c.x <= v + band and
    -c.x <= band - v with band = EPS_FACE * (1 + |v|), so the feasible set is
    a thin slab around the true face and the returned point is a vertex of
    that slab.  status INFEASIBLE signals that v is not the optimal value of
    (p, c) within tolerance.  ``value`` is a.x under either sense.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    v = float(v)
    band = EPS_FACE * (1.0 + abs(v))
    face = Polytope(np.vstack([p.A, c[None, :], -c[None, :]]), np.concatenate([p.b, [v + band, band - v]]))
    r = solve_lp(face, -a if sense == "max" else a)
    if r.status is SolveStatus.UNBOUNDED:
        raise InternalError("optimal-face solve reported unbounded; X is not bounded")
    if r.status is SolveStatus.INFEASIBLE:
        return SolveResult(SolveStatus.INFEASIBLE)
    return SolveResult(SolveStatus.OPTIMAL, float(a @ r.x), r.x, r.basis_id, r.y)


def referee(model, p: Polytope, c, res: SolveResult | None = None) -> ContainmentResult:
    """All-complement containment referee, sharing no route with the library's.

    Every column a of ``complete_basis(model.Q)``, a basis of the complement
    of range(U), gets a maximum and a minimum of a.x over the thickened
    optimal face; the first one farther than tau = TAU_CONTAIN * (1 + ||x0||)
    from a.x0 is the witness.  ``res`` is the full solve of (p, c) when the
    caller has it (the signature of ``compression._contains_given_solve``).

    The thickened face reaches past the face by about band / y_j along rows
    with small multipliers, so on badly conditioned geometry, or on integer
    costs with |v| much larger than ||x0||, the referee can report a
    violation that the library does not.  A True from the referee implies a
    True from the library; the reverse does not hold.
    """
    c = np.asarray(c, dtype=float)
    if res is None:
        res = solve_lp(p, c, start=VertexStart.at(p, model.x0))
    if res.status is not SolveStatus.OPTIMAL:
        raise ValueError(f"containment requires a feasible bounded LP, got {res.status.value}")
    if model.rank == model.d:
        return ContainmentResult(True)
    tau = TAU_CONTAIN * (1.0 + float(np.linalg.norm(model.x0)))
    for a in complete_basis(model.Q).T:
        base = float(a @ model.x0)
        for sense in ("max", "min"):
            fr = solve_on_optimal_face(p, c, res.value, a, sense)
            if fr.status is not SolveStatus.OPTIMAL:
                raise InternalError("optimal-face restriction reported infeasible")
            if abs(fr.value - base) > tau:
                return ContainmentResult(False, fr.x)
    return ContainmentResult(True)


def sequential_learn(p: Polytope, x0: np.ndarray, costs, ids=None):
    """``learner.learn`` as a per-cost loop: every cost, read lazily, is
    solved from the anchor start and tested in order, with no screen at
    the anchor.  Returns (model, trace) as ``learn`` does."""
    model = CompressionModel.empty(x0)
    start = _starts(model, p).anchor
    if not _starts(model, p).reduced.contains(np.zeros(0)):
        raise ValueError("x0 is outside the reduced LP of every slice: its serves would raise")
    trace = LearnTrace()
    for pos, c in enumerate(costs, start=1):
        sid = ids[pos - 1] if ids is not None else pos
        c = np.asarray(c, dtype=float)
        full = solve_lp(p, c, start=start)
        n_app = 0
        while True:
            res = _contains_given_solve(model, p, c, full)
            if res.contained:
                break
            model = append_direction(model, res.witness)
            n_app += 1
        trace.processed.append(sid)
        trace.appends_per_sample.append(n_app)
        trace.optima.append(full.x)
        if n_app:
            trace.hard.append(sid)
    trace.final_rank = model.rank
    model.provenance["hard_indices"] = list(trace.hard)
    return model, trace


def member_loop(prior, stream, n1: int):
    """``prior.retain_stream`` as a per-cost ``member`` loop: the first n1
    members of the stream, read one at a time, and the skip count;
    Exhausted with the same message when the stream ends first."""
    retained: list[np.ndarray] = []
    skipped = 0
    if n1 <= 0:
        return retained, skipped
    for c in stream:
        if member(prior, c):
            retained.append(np.asarray(c, dtype=float))
            if len(retained) == n1:
                return retained, skipped
        else:
            skipped += 1
    raise Exhausted(f"stream exhausted with {len(retained)}/{n1} retained ({skipped} skipped)")


def binom_tail(m: int, q: float, k: int) -> float:
    """P[Bin(m, q) >= k] by direct summation of exact-integer binomials."""
    if k <= 0:
        return 1.0
    if k > m:
        return 0.0
    terms = [math.comb(m, j) * q**j * (1.0 - q) ** (m - j) for j in range(k, m + 1)]
    return math.fsum(terms)


def cutoff_oracle(m: int, rho: float, delta0: float) -> int:
    """Smallest k in 1..m with P[Bin(m, 1-rho) >= k] <= delta0, else m + 1."""
    if m == 0:
        return 1
    for k in range(1, m + 1):
        if binom_tail(m, 1.0 - rho, k) <= delta0:
            return k
    return m + 1
