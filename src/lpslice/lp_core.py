"""Inequality-form LP model and a deterministic dense simplex solver.

The central object is ``Polytope``: X = {x : A x <= b} with A dense (m x d).
``solve_lp`` minimizes c.x over X and, whenever the problem is feasible and
bounded in direction c, returns a *vertex* optimizer together with a canonical
basis identifier, so repeated solves of the same data are bitwise identical.

The solver is a dense tableau simplex applied to the dual in standard form:

    min b.y   s.t.  A^T y = -c,  y >= 0.

A dual basis is a set of d linearly independent rows of A; its primal point
x = A_B^{-1} b_B is a vertex of X, and the reduced cost of column j is the
slack b_j - A_j x.  So the dual optimality test is exactly primal
feasibility.  Free primal variables therefore never need splitting, which
keeps the vertex guarantee that a direct x = x+ - x- formulation would lose.

Cold solves run two phases from the all-artificial basis.  Pricing is
Dantzig's rule (most negative reduced cost enters, lowest index among ties);
after a run of ``_DEGENERATE_RUN`` consecutive degenerate pivots it falls
back to Bland's rule (lowest eligible index enters) until the next
non-degenerate pivot.  The leaving row is the minimum ratio, lowest basic
index among ties.  Bland's rule cannot cycle, so each degenerate run is
finite, and the objective strictly falls between runs, so the simplex
terminates.

A solve given a ``start`` that is a vertex of X skips phase one.  The rows
active at the start form a basis whose reduced costs (the slacks) are
nonnegative for every cost c, so the dual simplex (Lemke, 1954) runs from
it: the most negative basic value leaves, lowest basic index among ties,
and the minimum-ratio column enters, lowest index among ties; the same
Bland fallback applies to the leaving row.  In primal terms every pivot
moves along an edge of X from the start towards the optimum.  A phase-two
pass of the cold pricing then ends the solve under the cold optimality
test, and the terminal basis goes through the same post-processing, so
whenever it is the cold terminal basis, x, value and basis_id are bitwise
the cold ones.  Both paths share the thresholds below.  Neither keeps
state between calls: every result depends only on (p, c, start).

Status mapping: dual unbounded means the primal is infeasible; dual
infeasible is split into primal Infeasible / Unbounded with one Farkas cone
solve (or is Unbounded outright when a feasible start was given).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import first_independent, orthonormal_columns

__all__ = [
    "ToleranceSet",
    "DEFAULT_TOL",
    "Polytope",
    "SolveStatus",
    "FeasibilityStatus",
    "SolveResult",
    "GeneralLP",
    "VariableMap",
    "InternalError",
    "RejectedInstance",
    "solve_lp",
    "solve_on_optimal_face",
    "check_feasible_bounded",
    "normalize_to_inequality_form",
    "polytope_to_json",
    "polytope_from_json",
    "dump_json",
    "load_json",
]


class InternalError(RuntimeError):
    """An invariant the solver relies on was violated at runtime."""


class RejectedInstance(ValueError):
    """The general-form problem cannot be normalized (e.g. doubly free variable)."""


@dataclass(frozen=True)
class ToleranceSet:
    """Numerical tolerances shared across the package.

    eps_feas    relative feasibility slack: A x <= b + eps_feas * (1 + |b|).
    eps_face    half-width factor of the optimal-value band used to restrict
                to an optimal face: |c.x - v| <= eps_face * (1 + |v|).
    tau_rank    rank cutoff for orthonormalization, relative to the largest
                column norm of the matrix being factored.
    tau_range   subspace membership: ||Qperp^T w|| <= tau_range * (1 + ||w||).
    tau_contain face containment: |a_j . (x - x0)| <= tau_contain * (1 + ||x0||).
    """

    eps_feas: float = 1e-7
    eps_face: float = 1e-7
    tau_rank: float = 1e-8
    tau_range: float = 1e-7
    tau_contain: float = 1e-6

    def to_dict(self) -> dict:
        return {
            "eps_feas": self.eps_feas,
            "eps_face": self.eps_face,
            "tau_rank": self.tau_rank,
            "tau_range": self.tau_range,
            "tau_contain": self.tau_contain,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ToleranceSet":
        return cls(**d)


DEFAULT_TOL = ToleranceSet()


@dataclass(frozen=True)
class Polytope:
    """X = {x in R^d : A x <= b}, A dense (m x d), with free metadata.

    Frozen after construction; the arrays are normalized to float64 and made
    read-only.  d = 0 is allowed so that a rank-0 reduced problem (the
    empty-variable LP) has a representation; regular instances have d >= 1.
    """

    A: np.ndarray
    b: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        A = np.ascontiguousarray(np.asarray(self.A, dtype=float))
        b = np.ascontiguousarray(np.asarray(self.b, dtype=float))
        if A.ndim != 2:
            raise ValueError("A must be a 2-d array")
        if b.ndim != 1 or b.shape[0] != A.shape[0]:
            raise ValueError("b must be a vector with one entry per row of A")
        if A.shape[0] < 1:
            raise ValueError("need at least one row")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("A and b must be finite")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def contains(self, x: np.ndarray, tol: ToleranceSet = DEFAULT_TOL) -> bool:
        """Componentwise feasibility with relative slack eps_feas * (1 + |b|)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError("point has wrong dimension")
        return bool(np.all(self.A @ x <= self.b + tol.eps_feas * (1.0 + np.abs(self.b))))


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class FeasibilityStatus(enum.Enum):
    FEASIBLE_BOUNDED = "feasible_bounded"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one LP solve.

    When status is OPTIMAL, ``x`` is a vertex optimizer (for polytopes that
    have vertices), ``value`` equals c.x exactly as computed from ``x``,
    ``basis_id`` is the sorted tuple of active row indices defining the
    terminal basis, and ``y`` holds the nonnegative row multipliers of the
    dual solve (length m; complementary to the slack of each row).
    """

    status: SolveStatus
    value: float | None = None
    x: np.ndarray | None = None
    basis_id: tuple[int, ...] | None = None
    y: np.ndarray | None = None


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------

_OPTIMAL, _INFEASIBLE, _UNBOUNDED = "optimal", "infeasible", "unbounded"

# Thresholds of the simplex, shared by the cold and the vertex-started path.
# An entry may pivot when it exceeds _PIVOT_TOL times 1 + the largest
# magnitude in its column (row, for the dual ratio test).  A reduced cost
# below -_REDUCED_COST_TOL * scale prices in, and on the vertex path a basic
# value below the same bound leaves; scale is 1 + the largest magnitude of
# the data (see _limits).  Phase one ends feasible when its objective is at
# most _PHASE_ONE_TOL * (1 + sum|q|).  A residual artificial is driven out
# of the basis on an entry above _DRIVE_OUT_TOL times 1 + the largest
# magnitude of its row.
_PIVOT_TOL = 1e-10
_REDUCED_COST_TOL = 1e-9
_PHASE_ONE_TOL = 1e-8
_DRIVE_OUT_TOL = 1e-9

# Rows per block of the pivot update.  Updating in blocks keeps the rank-one
# temporary small and in cache instead of allocating a whole tableau per pivot.
_ROW_BLOCK = 64


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    prow = T[r] / T[r, j]
    for i in range(0, T.shape[0], _ROW_BLOCK):
        block = T[i : i + _ROW_BLOCK]
        block -= np.outer(block[:, j], prow)
    T[r] = prow
    T[:, j] = 0.0
    T[r, j] = 1.0


# Consecutive degenerate pivots after which pricing falls back to Bland's rule.
_DEGENERATE_RUN = 50


def _iterate(T, basis, n_priced, tol_rc, max_iter, bounded=False):
    """Pivot until no priced column has reduced cost < -tol_rc.

    T has shape (p+1, ncols+1): body rows, then the reduced-cost row; last
    column is the RHS (with T[-1, -1] = -objective).  Only the first
    ``n_priced`` columns may enter.  Returns the number of iterations, or -1
    when an unbounded ray is detected; raises InternalError past max_iter.
    With ``bounded`` (phase one, whose objective is at least 0) there is no
    ray: a column that prices in without an eligible entry has a reduced
    cost made of rounding, so it is set to 0 and pricing goes on.

    Pricing is Dantzig's rule: the most negative reduced cost enters, ties
    to the lowest index.  A pivot whose ratio-test step is 0 is degenerate;
    after ``_DEGENERATE_RUN`` of them in a row pricing switches to Bland's
    rule (lowest eligible index enters) until the next non-degenerate pivot.
    The leaving row is the minimum ratio, ties to the lowest basic index.
    Termination: Bland's rule cannot cycle (Bland 1977), so every degenerate
    stretch ends after finitely many pivots; each non-degenerate pivot
    strictly lowers the objective, so no basis from an earlier stretch
    recurs.  Every choice depends only on T, the basis and the pivots
    made so far, so runs are deterministic.
    """
    p = T.shape[0] - 1
    it = 0
    degenerate = 0
    while True:
        z = T[p, :n_priced]
        if degenerate < _DEGENERATE_RUN:
            j = int(np.argmin(z))
            if z[j] >= -tol_rc:
                return it
        else:
            cand = np.flatnonzero(z < -tol_rc)
            if cand.size == 0:
                return it
            j = int(cand[0])
        col = T[:p, j]
        elig = col > _PIVOT_TOL * (1.0 + np.max(np.abs(col)))
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
        _pivot(T, r, j)
        basis[r] = j
        degenerate = degenerate + 1 if rmin == 0.0 else 0
        it += 1
        if it > max_iter:
            raise InternalError("simplex iteration limit exceeded")


def _dual_iterate(T, basis, tol, max_iter):
    """Dual simplex pivots until no basic value is below -tol.

    T is laid out as for ``_iterate`` (all n columns priced) and its basis
    is dual feasible: reduced costs >= 0 up to rounding, which the ratio
    test clips at 0.  Returns the number of iterations, or -1 when the
    leaving row has no eligible entry, so that no w >= 0 solves M w = q.

    The leaving row is the most negative basic value (Dantzig), ties to the
    lowest basic index; after ``_DEGENERATE_RUN`` degenerate pivots in a row
    it is the lowest basic index among the negative values (Bland) until
    the next non-degenerate pivot.  The entering column is the minimum
    ratio of reduced cost to -T[r, j] over entries below -_PIVOT_TOL times
    1 + the row's largest magnitude, ties to the lowest index.  A pivot is
    degenerate when that ratio is 0.  Termination: the dual of Bland's rule
    cannot cycle, and each non-degenerate pivot strictly raises g.w.
    """
    p, n = T.shape[0] - 1, T.shape[1] - 1
    it = 0
    degenerate = 0
    while True:
        rhs = T[:p, -1]
        r = int(rhs.argmin())
        if rhs[r] >= -tol:
            return it
        ties = (rhs == rhs[r] if degenerate < _DEGENERATE_RUN else rhs < -tol).nonzero()[0]
        r = int(ties[basis[ties].argmin()])
        row = T[r, :n]
        elig = (row < -_PIVOT_TOL * (1.0 + np.abs(row).max())).nonzero()[0]
        if elig.size == 0:
            return -1
        ratios = np.maximum(T[p, elig], 0.0) / -row[elig]
        k = int(ratios.argmin())  # the first minimum: lowest index
        rmin = ratios[k]
        j = int(elig[k])
        _pivot(T, r, j)
        basis[r] = j
        degenerate = degenerate + 1 if rmin == 0.0 else 0
        it += 1
        if it > max_iter:
            raise InternalError("simplex iteration limit exceeded")


def _limits(M: np.ndarray, q: np.ndarray, g: np.ndarray):
    """(tol_rc, max_iter) of min g.w s.t. M w = q, w >= 0, on both paths."""
    # M (a view of A^T) is the largest input: read it without temporaries
    # of its size, here and when it is copied into the tableau
    scale = 1.0 + max(
        max(float(M.max()), -float(M.min())) if M.size else 0.0,
        float(np.max(np.abs(q))),
        float(np.max(np.abs(g))) if g.size else 0.0,
    )
    return _REDUCED_COST_TOL * scale, 2000 + 60 * sum(M.shape)


def _simplex(M: np.ndarray, q: np.ndarray, g: np.ndarray):
    """min g.w  s.t.  M w = q, w >= 0   (two-phase tableau, see ``_iterate``).

    Phase one prices all columns, artificials included; phase two drops the
    artificial columns and prices the n columns of M.

    Returns (status, w, basis_columns).  ``basis_columns`` indexes columns of
    M (sorted order is up to the caller); redundant equality rows detected in
    phase one are dropped, so len(basis_columns) can be below M.shape[0].
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    g = np.asarray(g, dtype=float)
    p, n = M.shape
    if p == 0:
        if np.any(g < 0.0):
            return _UNBOUNDED, None, None
        return _OPTIMAL, np.zeros(n), np.zeros(0, dtype=int)

    tol_rc, max_iter = _limits(M, q, g)
    sgn = np.where(q < 0.0, -1.0, 1.0)
    T = np.zeros((p + 1, n + p + 1))
    T[:p, :n] = M
    T[:p, :n] *= sgn[:, None]
    T[:p, n : n + p] = np.eye(p)
    T[:p, -1] = q * sgn
    # phase-1 reduced costs for the all-artificial basis
    T[p, : n + p] = -T[:p, : n + p].sum(axis=0)
    T[p, n : n + p] = 0.0
    T[p, -1] = -T[:p, -1].sum()
    basis = np.arange(n, n + p)

    _iterate(T, basis, n + p, tol_rc, max_iter, bounded=True)
    if -T[p, -1] > _PHASE_ONE_TOL * (1.0 + float(np.sum(np.abs(q)))):
        return _INFEASIBLE, None, None

    # drive residual artificials out of the basis; drop redundant rows
    in_basis = np.zeros(n + p, dtype=bool)
    in_basis[basis] = True
    drop_rows = []
    for r in range(p):
        if basis[r] < n:
            continue
        row = np.where(in_basis[:n], 0.0, np.abs(T[r, :n]))
        jbest = int(np.argmax(row))
        if row[jbest] > _DRIVE_OUT_TOL * (1.0 + float(np.max(np.abs(T[r, :n]), initial=0.0))):
            _pivot(T, r, jbest)
            in_basis[basis[r]] = False
            in_basis[jbest] = True
            basis[r] = jbest
        else:
            drop_rows.append(r)
    if drop_rows:
        keep = np.setdiff1d(np.arange(p), drop_rows)
        T = np.vstack([T[keep], T[-1:]])
        basis = basis[keep]

    # phase 2 never prices the artificial columns, so it drops them
    return _phase_two(np.hstack([T[:, :n], T[:, -1:]]), basis, g, tol_rc, max_iter)


def _price(T: np.ndarray, g: np.ndarray, basis: np.ndarray) -> None:
    """Fill T's cost row anew with the reduced costs of g for the basis."""
    T[-1, :-1] = g - g[basis] @ T[:-1, :-1]
    T[-1, -1] = -float(g[basis] @ T[:-1, -1])


def _phase_two(T, basis, g, tol_rc, max_iter):
    """The last phase of both paths: price g, pivot until no reduced cost
    is below -tol_rc (``_iterate``) and read off (status, w, basis)."""
    _price(T, g, basis)
    n = T.shape[1] - 1
    if _iterate(T, basis, n, tol_rc, max_iter) < 0:
        return _UNBOUNDED, None, None
    w = np.zeros(n)
    w[basis] = T[:-1, -1]
    return _OPTIMAL, w, basis.copy()


def _simplex_from_vertex(M: np.ndarray, q: np.ndarray, g: np.ndarray, slack: np.ndarray, rank_tol: float):
    """min g.w  s.t.  M w = q, w >= 0, from the columns j with |slack_j| <= tol_rc.

    M is A^T and slack = b - A x at a point x of X, so these columns are
    the rows active at x.  They give the starting basis: all of them when
    there are exactly p, or exactly p nonzero ones, else the first p
    independent ones in index order (``linalg.first_independent`` with
    ``rank_tol``).  Returns None when x is not a vertex (fewer than p
    independent active rows, or a singular basis), else (status, w, basis)
    as ``_simplex`` returns them, after ``_dual_iterate`` from that basis
    and ``_phase_two``.
    """
    p, n = M.shape
    tol_rc, max_iter = _limits(M, q, g)
    basis = np.flatnonzero(np.abs(slack) <= tol_rc)
    if basis.size > p:  # a zero row is in no basis
        basis = basis[np.any(M[:, basis], axis=0)]
    if basis.size > p:
        basis = basis[first_independent(M[:, basis], p, rank_tol)]
    if basis.size < p:
        return None
    try:
        inv = np.linalg.inv(M[:, basis])
    except np.linalg.LinAlgError:
        return None
    T = np.empty((p + 1, n + 1))
    np.matmul(inv, M, out=T[:p, :n])  # written in place: no tableau-sized temporary
    T[:p, n] = inv @ q
    T[:p, basis] = np.eye(p)
    _price(T, g, basis)
    if _dual_iterate(T, basis, tol_rc, max_iter) < 0:
        return _INFEASIBLE, None, None
    return _phase_two(T, basis, g, tol_rc, max_iter)


# ---------------------------------------------------------------------------
# public solve operations
# ---------------------------------------------------------------------------


def solve_lp(
    p: Polytope,
    c: np.ndarray,
    tol: ToleranceSet = DEFAULT_TOL,
    start: np.ndarray | None = None,
) -> SolveResult:
    """Minimize c.x over X = {A x <= b}.

    Deterministic: the same (p, c, start) always yields the same basis_id
    and a bitwise identical x; no state is kept between calls.  For
    feasible bounded directions the optimizer is a vertex of X (guaranteed
    whenever X has vertices, i.e. rank(A) = d).

    ``start`` is an optional point of X (ValueError when it is not, by the
    ``Polytope.contains`` rule).  When it is a vertex, the solve skips
    phase one: the dual simplex runs from its active rows, |b_j - A_j x| at
    most the reduced-cost threshold (exactly d of them, or exactly d nonzero
    ones, as they are; else the first d independent ones in index order),
    pricing as in the module docstring, and ends under the cold path's
    optimality test.
    x, value and basis_id are then bitwise the cold solve's whenever the
    terminal basis is the cold one, which it is when the optimum is a
    vertex with d active rows and positive multipliers.  On degenerate
    optima the two paths may stop at different optimal bases.  When
    ``start`` is not a vertex the solve is the cold one.
    """
    A, b = p.A, p.b
    m, d = A.shape
    c = np.asarray(c, dtype=float)
    if c.shape != (d,):
        raise ValueError(f"cost vector has shape {c.shape}, expected ({d},)")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost vector must be finite")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (d,):
            raise ValueError(f"start has shape {start.shape}, expected ({d},)")

    if d == 0:
        if np.all(b >= -tol.eps_feas * (1.0 + np.abs(b))):
            return SolveResult(SolveStatus.OPTIMAL, 0.0, np.zeros(0), (), np.zeros(m))
        if start is not None:
            raise ValueError("start is not a point of X")
        return SolveResult(SolveStatus.INFEASIBLE)

    out = None
    if start is not None:
        slack = b - A @ start
        if not np.all(slack >= -tol.eps_feas * (1.0 + np.abs(b))):
            raise ValueError("start is not a point of X")
        out = _simplex_from_vertex(A.T, -c, b, slack, tol.tau_rank)
    status, w, basis = out if out is not None else _simplex(A.T, -c, b)
    if status == _OPTIMAL:
        rows = np.sort(basis)
        Asub, bsub = A[rows], b[rows]
        if rows.size == d:
            x = np.linalg.solve(Asub, bsub)
        else:
            x = np.linalg.lstsq(Asub, bsub, rcond=None)[0]
        slack = A @ x - b
        if np.any(slack > tol.eps_feas * (1.0 + np.abs(b))):
            raise InternalError("terminal basis produced an infeasible point")
        return SolveResult(
            SolveStatus.OPTIMAL,
            float(c @ x),
            x,
            tuple(int(i) for i in rows),
            w,
        )
    if status == _UNBOUNDED:
        # dual unbounded below => primal infeasible
        if start is not None:
            raise InternalError("dual ray although X holds the start")
        return SolveResult(SolveStatus.INFEASIBLE)

    # dual infeasible: primal is either infeasible or unbounded (Farkas split)
    if start is not None:
        return SolveResult(SolveStatus.UNBOUNDED)  # X holds start
    status0, _, _ = _simplex(A.T, np.zeros(d), b)
    if status0 == _UNBOUNDED:
        return SolveResult(SolveStatus.INFEASIBLE)
    return SolveResult(SolveStatus.UNBOUNDED)


def solve_on_optimal_face(
    p: Polytope,
    c: np.ndarray,
    v: float,
    a: np.ndarray,
    sense: str = "max",
    tol: ToleranceSet = DEFAULT_TOL,
) -> SolveResult:
    """Optimize a.x over the optimal face {x in X : c.x = v}.

    The face is represented by the inequality pair c.x <= v + band and
    -c.x <= band - v with band = eps_face * (1 + |v|), so the feasible set is
    a thin slab around the true face and the returned point is a vertex of
    that slab.  status INFEASIBLE signals that v is not the optimal value of
    (p, c) within tolerance, which is a caller bug.  ``value`` is a.x under
    either sense.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    v = float(v)
    band = tol.eps_face * (1.0 + abs(v))
    A2 = np.vstack([p.A, c[None, :], -c[None, :]])
    b2 = np.concatenate([p.b, [v + band, band - v]])
    face = Polytope(A2, b2, meta={"face_of": p.meta.get("name", "")})
    r = solve_lp(face, -a if sense == "max" else a, tol)
    if r.status is SolveStatus.UNBOUNDED:
        raise InternalError("optimal-face solve reported unbounded; X is not bounded")
    if r.status is SolveStatus.INFEASIBLE:
        return SolveResult(SolveStatus.INFEASIBLE)
    return SolveResult(SolveStatus.OPTIMAL, float(a @ r.x), r.x, r.basis_id, r.y)


def check_feasible_bounded(p: Polytope, tol: ToleranceSet = DEFAULT_TOL) -> FeasibilityStatus:
    """Classify X: infeasible, unbounded, or feasible and bounded.

    Stiemke's theorem: a nonempty X is bounded iff its recession cone
    {r : A r <= 0} is {0}, that is iff rank(A) = d and some y > 0 has
    A^T y = 0.  Three steps:

    - one feasibility solve with cost -A^T 1, whose dual is feasible at
      y = 1, so the answer is Optimal or Infeasible (a zero cost would make
      every dual pivot degenerate);
    - rank(A) = d, counted by Gram-Schmidt over the rows of A with the
      cutoff tau_rank relative to the largest row norm;
    - one phase-one LP for y = 1 + u, u >= 0, A^T u = -A^T 1.
    """
    ones_cost = -p.A.sum(axis=0)
    if solve_lp(p, ones_cost, tol).status is SolveStatus.INFEASIBLE:
        return FeasibilityStatus.INFEASIBLE
    if p.d == 0:
        return FeasibilityStatus.FEASIBLE_BOUNDED
    if orthonormal_columns(p.A.T, rank_tol=tol.tau_rank).shape[1] < p.d:
        return FeasibilityStatus.UNBOUNDED
    if _simplex(p.A.T, ones_cost, np.zeros(p.m))[0] != _OPTIMAL:
        return FeasibilityStatus.UNBOUNDED
    return FeasibilityStatus.FEASIBLE_BOUNDED


# ---------------------------------------------------------------------------
# general-form problems and normalization
# ---------------------------------------------------------------------------


@dataclass
class GeneralLP:
    """A general-form LP: sense, objective, relational rows, variable bounds.

    ``rel`` entries are "<=", ">=" or "=".  Bounds may be +-inf; both-sided
    infinite bounds are legal here and rejected only at normalization.
    """

    sense: str
    c: np.ndarray
    A: np.ndarray
    rel: tuple
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    name: str = ""
    row_names: tuple = ()
    col_names: tuple = ()
    obj_constant: float = 0.0

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.obj_constant = float(self.obj_constant)
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float).reshape(len(self.rel), self.c.shape[0])
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        d = self.c.shape[0]
        if self.lo.shape != (d,) or self.hi.shape != (d,):
            raise ValueError("bounds must have one entry per variable")
        if self.rhs.shape[0] != len(self.rel):
            raise ValueError("rhs must have one entry per row")
        for t in self.rel:
            if t not in ("<=", ">=", "="):
                raise ValueError(f"unknown relation {t!r}")
        both = np.isfinite(self.lo) & np.isfinite(self.hi)
        if np.any(self.lo[both] > self.hi[both]):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def d(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class VariableMap:
    """Invertible record of the normalization transform.

    Normalized variables are x' = x - shift; the normalized problem is always
    a minimization.  original_value maps the normalized optimal value back:
    v_orig = sense_sign * (v_norm + offset) with offset = c_min . shift.
    """

    shift: np.ndarray
    sense_sign: float
    offset: float
    col_names: tuple = ()

    def original_solution(self, x_norm: np.ndarray) -> np.ndarray:
        return np.asarray(x_norm, dtype=float) + self.shift

    def original_value(self, value_norm: float) -> float:
        return self.sense_sign * (value_norm + self.offset)


def normalize_to_inequality_form(g: GeneralLP):
    """Losslessly rewrite a GeneralLP as (Polytope, cost, value_offset, VariableMap).

    Maximization is negated; >= rows are negated; = rows are split into a <=
    pair; every variable with a finite lower bound is shifted by it (so its
    bound row is -x' <= 0); finite bounds become rows.  Raises
    RejectedInstance if a variable is free in both directions.
    """
    d = g.d
    free = ~np.isfinite(g.lo) & ~np.isfinite(g.hi)
    if np.any(free):
        names = [g.col_names[j] if g.col_names else str(j) for j in np.flatnonzero(free)]
        raise RejectedInstance(f"variables free in both directions: {', '.join(names)}")

    sense_sign = 1.0 if g.sense == "min" else -1.0
    c = sense_sign * g.c
    shift = np.where(np.isfinite(g.lo), g.lo, 0.0)
    # offset folds both the bound shift and any objective constant, so
    # original_value(v_norm) recovers the general-form optimum exactly
    offset = float(c @ shift) + sense_sign * g.obj_constant

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for i in range(len(g.rel)):
        a = g.A[i]
        bi = float(g.rhs[i] - a @ shift)
        if g.rel[i] == "<=":
            rows.append(a)
            rhs.append(bi)
        elif g.rel[i] == ">=":
            rows.append(-a)
            rhs.append(-bi)
        else:
            rows.append(a)
            rhs.append(bi)
            rows.append(-a)
            rhs.append(-bi)
    for j in range(d):
        e = np.zeros(d)
        if np.isfinite(g.lo[j]):
            e[j] = -1.0
            rows.append(e.copy())
            rhs.append(0.0)
            e[j] = 0.0
        if np.isfinite(g.hi[j]):
            e[j] = 1.0
            rows.append(e.copy())
            rhs.append(float(g.hi[j] - shift[j]))
            e[j] = 0.0

    poly = Polytope(
        np.array(rows),
        np.array(rhs),
        meta={"name": g.name, "normalized_from": g.sense, "n_structural_rows": len(g.rel)},
    )
    vmap = VariableMap(shift=shift, sense_sign=sense_sign, offset=offset, col_names=g.col_names)
    return poly, c, offset, vmap


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def dump_json(obj: dict, path) -> None:
    """Write a JSON document with stable formatting (sorted keys, 2-space indent).

    Floats are emitted with Python's shortest round-trip repr, which is
    lossless for IEEE-754 doubles (never more than 17 significant digits).
    """
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def polytope_to_json(p: Polytope) -> dict:
    return {"A": [list(map(float, row)) for row in p.A], "b": [float(v) for v in p.b], "meta": p.meta}


def polytope_from_json(doc: dict) -> Polytope:
    return Polytope(np.array(doc["A"], dtype=float), np.array(doc["b"], dtype=float), meta=dict(doc.get("meta", {})))
