"""Inequality-form LP model and a deterministic revised simplex solver.

The central object is ``Polytope``: X = {x : A x <= b} with A dense (m x d).
``solve_lp`` minimizes c.x over X and, whenever the problem is feasible and
bounded in direction c, returns a *vertex* optimizer together with a canonical
basis identifier, so repeated solves of the same data are bitwise identical.

The solver is a simplex method applied to the dual in standard form:

    min b.y   s.t.  A^T y = -c,  y >= 0.

A dual basis is a set of d linearly independent rows of A; its primal point
x = A_B^{-1} b_B is a vertex of X, and the reduced cost of column j is the
slack b_j - A_j x.  So the dual optimality test is exactly primal
feasibility.  Free primal variables therefore never need splitting, which
keeps the vertex guarantee that a direct x = x+ - x- formulation would lose.

Every path runs in revised form (Dantzig & Orchard-Hays 1954) on one basis
representation: the d x d inverse of the basis, updated in product form
(Bartels & Golub 1969) beside the basic values.  Cold solves run two phases
of the primal simplex (``_primal``) from a crash basis (Bixby 1992):
coordinate i takes, in place of its artificial, the lowest-index row of A
that is e_i when c_i <= 0 or -e_i when c_i > 0, and the inverse is still
the identity.  In primal terms the solve starts at the corner that
minimizes c over the bound rows, so phase one makes no pivots when every
coordinate has such a row.  Pricing is Dantzig's rule (most negative reduced
cost enters, lowest index among ties); after a run of ``_DEGENERATE_RUN``
consecutive degenerate pivots it falls back to Bland's rule (lowest
eligible index enters) until the next non-degenerate pivot.  The leaving
row is the minimum ratio, lowest basic index among ties.  Bland's rule
cannot cycle, so each degenerate run is finite, and the objective strictly
falls between runs, so the simplex terminates.  A pivot reads A at most
once and writes only the inverse and the reduced costs; a tableau pivot
rewrote all d (m + d) of its entries.

Pivots are hyper-sparse on the network and packing presets (Hall &
McKinnon 2005; Bixby 2002): a cold packing-360 entering column B^-1 a_j is
about 4% nonzero and a row of B^-1 under 1%.  So a pivot forms the entering
column from the nonzeros of a_j and the pivot row (B^-1)_r A^T from the
nonzeros of (B^-1)_r, and the update of a large inverse touches only the
rows where the entering column is nonzero and the columns where the pivot
row is (``_eliminate``).  Each skipped entry would have had a product of a
zero subtracted, which changes no value, only at most the sign of a zero,
and no choice reads that sign.  The started dual simplex below forms its
leaving row A (B^-1)_r and entering column B^-1 a_j the same way above
``_SPLIT_DIM``: a started packing-360 inverse has 2 nonzeros in each row.
At or below it, as on a reduced LP of low rank, both stay dense products,
which cost less there than finding the nonzeros.

A started solve skips phase one.  Its start is a ``VertexStart``, the one
state a started solve runs from: a vertex of X with d of its active rows
as the dual basis and the inverse of that basis, factored once per
(polytope, vertex) by ``VertexStart.at`` and reused by every solve from
it.  A point start is shorthand for ``VertexStart.at`` at that point, and
a point that is not a vertex gives no start and a cold solve.  The active
rows' reduced costs are the slacks, nonnegative for every cost c, so the
dual simplex (Lemke, 1954) runs from the start in revised form (Bartels &
Golub, 1969), in two stages.  Stage one is one d x d product: when the basic values
y_B = -A_B^{-T} c are nonnegative and the start's slacks price out, the
start is optimal and its own x is returned.  Otherwise stage two pivots:
the most negative basic value leaves, lowest basic index among ties; the
leaving row of B^-1 A^T is formed and its minimum-ratio column enters,
lowest index among ties; the same Bland fallback applies to the leaving
row; and a rank-one step (``_eliminate``) updates a private copy of the
inverse.  Above ``_SPLIT_DIM`` the leaving row and the entering column
are products over their sparse factor's nonzeros (``_sparse_product``),
while y_B = B^-1 q is formed afresh after each pivot.  In
primal terms every pivot moves along an edge of X from the start towards
the optimum.  A closing pricing applies the cold optimality test; only
when rounding makes it fail does the cold path's phase two run from that
basis and its inverse.  The terminal basis goes through the cold
post-processing, x = A_B^-1 b_B on its sorted rows (the start's x is that
formula's result for its own rows), so whenever it is the cold terminal
basis, x, value and basis_id are bitwise the cold ones.  Both paths share
the thresholds of ``tolerances``.  Neither keeps state between calls:
every result depends only on (p, c, start).

Every d x d basis solve, the terminal x, a start's vertex and its inverse,
and the free directions and the served vertex's multipliers of
``compression``, goes through one function, ``_basis_solve``.  Above
``_SPLIT_DIM`` it takes the singleton rows of A_B first (Suhl & Suhl
1990): each bound row fixes its coordinate by one division, and one LU
solves the small block of the other rows on the unfixed coordinates; the
transposed solve, for multipliers, runs the same split backwards.  On
packing-360 that block is 24 x 24 against the 360 x 360 LU it replaces.
At or below ``_SPLIT_DIM`` it is LAPACK's LU of the whole basis.

Status mapping: dual unbounded means the primal is infeasible; dual
infeasible is split into primal Infeasible / Unbounded with one Farkas cone
solve (or is Unbounded outright when the solve ran from a start).  A dual
ray from a start contradicts X holding the start, so it can only be
rounding (the closing phase two can find one after stage two ended
optimal); the cold solve then runs instead.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import first_independent, orthonormal_columns
from .tolerances import DRIVE_OUT_TOL, EPS_FEAS, PHASE_ONE_TOL, PIVOT_TOL, REDUCED_COST_TOL

__all__ = [
    "Polytope",
    "VertexStart",
    "SolveStatus",
    "FeasibilityStatus",
    "SolveResult",
    "GeneralLP",
    "VariableMap",
    "InternalError",
    "RejectedInstance",
    "solve_lp",
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
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
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

    @cached_property
    def singletons(self) -> np.ndarray:
        """For each row, the column of its one nonzero, or -1 when the row
        has none or several: the bound rows a basis solve fixes first
        (``_basis_solve``).  Read-only, computed on first use."""
        nonzero = self.A != 0.0
        col = np.where(np.count_nonzero(nonzero, axis=1) == 1, nonzero.argmax(axis=1), -1)
        col.setflags(write=False)
        return col

    def contains(self, x: np.ndarray) -> bool:
        """Componentwise feasibility with relative slack EPS_FEAS * (1 + |b|)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError("point has wrong dimension")
        return bool((self.A @ x <= self.b + EPS_FEAS * (1.0 + np.abs(self.b))).all())


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

# Rows per block of the pivot update.  Updating in blocks keeps the rank-one
# temporary small and in cache instead of allocating one of T's size per pivot.
_ROW_BLOCK = 64

# A pivot on more than _ROW_BLOCK rows updates only the block it touches when
# that block is under 1/_SPARSE_FACTOR of T.  Timed on one core, the touched
# block alone is up to 1.6x faster than the blocked loop at 1/8 of T (as fast
# at d = 140), about as fast at 1/6 and 1.8x slower at 1/3, on dense arrays
# of 141 x 421 to 481 x 1953 and inverses of 140 x 140 and 360 x 360.  A
# cold packing-360 pivot touches under 0.1% of its inverse.
_SPARSE_FACTOR = 8


def _eliminate(T: np.ndarray, r: int, col: np.ndarray) -> None:
    """T <- E T in place, for the elimination E that maps col to the unit
    vector e_r: row r is divided by col[r], and col[i] times the new row r
    is subtracted from every other row i: the product-form update of a
    basis inverse whose column r is replaced, col being the entering column
    B^-1 a_j.  ``_primal`` applies it to [B^-1 | x_B], ``_dual_simplex``
    to its private copy of B^-1.

    Only the block of rows where col is nonzero and columns where the new
    row r is nonzero changes value, so a hyper-sparse pivot (Hall &
    McKinnon 2005) on more than ``_ROW_BLOCK`` rows updates that block
    alone when it is under 1/``_SPARSE_FACTOR`` of T; smaller or denser
    pivots run the blocked loop over all of T.  Both paths give the same
    values: each entry of the block gets the same single multiply and
    subtract, and each skipped entry would have had a product of a zero,
    +-0, subtracted, which leaves a nonzero entry as it is and can only
    turn -0.0 into +0.0.  No pivot choice reads the sign of a zero: ratio
    tests, pricing and ties compare values, and no path divides by an
    entry that is zero."""
    prow = T[r] / col[r]
    if T.shape[0] > _ROW_BLOCK:
        rows, cols = col.nonzero()[0], prow.nonzero()[0]
        if rows.size * cols.size * _SPARSE_FACTOR < T.size:
            T[rows[:, None], cols] -= col[rows, None] * prow[cols]
            T[r] = prow
            return
    for i in range(0, T.shape[0], _ROW_BLOCK):
        block = T[i : i + _ROW_BLOCK]
        block -= col[i : i + _ROW_BLOCK, None] * prow
    T[r] = prow


# Degenerate pivots in a row after which pricing falls back to Bland's rule.
_DEGENERATE_RUN = 50


def _primal(MS, W, basis, z, tol_rc, max_iter, bounded=False):
    """Primal simplex pivots until no reduced cost in z is below -tol_rc.

    W = [B^-1 | x_B] holds the inverse of the basis ``basis`` of the system
    [MS | I] w = q (MS is k x n; the k artificial columns are priced while z
    is longer than n) and the basic values; once phase one has dropped
    redundant rows, W keeps only their rows of B^-1.  W, basis and z change
    in place.  Returns the number of pivots, or -1 on an unbounded ray;
    InternalError past max_iter.  With ``bounded`` (phase one, whose
    objective is at least 0) there is no ray: a column that prices in
    without an eligible entry has a reduced cost made of rounding, so it is
    set to 0 and pricing goes on.

    Pricing is Dantzig's rule: the most negative reduced cost enters, ties
    to the lowest index.  A pivot whose ratio-test step is 0 is degenerate;
    after ``_DEGENERATE_RUN`` of them in a row pricing switches to Bland's
    rule (lowest eligible index enters) until the next non-degenerate pivot.
    The leaving row is the minimum ratio of x_B, clipped at 0, to the
    entering column B^-1 a_j over its entries above PIVOT_TOL times 1 +
    its largest magnitude, ties to the lowest basic index.  Termination:
    Bland's rule cannot cycle (Bland 1977), and each non-degenerate pivot
    strictly lowers the objective.  Every choice depends only on the data
    and the pivots made so far, so runs are deterministic.  z is updated
    by the pivot row as a tableau's cost row is, and basic columns keep a
    reduced cost of exactly 0.
    """
    k, n = MS.shape
    if not W.shape[0]:  # every row was redundant: no column has an entry
        return -1 if (z < -tol_rc).any() else 0
    inv, xb = W[:, :k], W[:, k]
    ratios = np.empty(W.shape[0])
    it = 0
    degenerate = 0
    while True:
        if degenerate < _DEGENERATE_RUN:
            j = int(z.argmin())
            if z[j] >= -tol_rc:
                return it
        else:
            cand = (z < -tol_rc).nonzero()[0]
            if cand.size == 0:
                return it
            j = int(cand[0])
        if j < n:
            a = MS[:, j]
            nz = a.nonzero()[0]
            col = inv[:, nz] @ a[nz]
        else:
            col = inv[:, j - n].copy()
        mag = np.abs(col)
        ratios.fill(np.inf)
        np.divide(np.maximum(xb, 0.0), col, out=ratios, where=col > PIVOT_TOL * (1.0 + mag[mag.argmax()]))
        rmin = ratios[ratios.argmin()]
        if rmin == np.inf:
            if not bounded:
                return -1
            z[j] = 0.0
            continue
        ties = (ratios == rmin).nonzero()[0]
        r = int(ties[basis[ties].argmin()])
        ir = inv[r]
        nz = ir.nonzero()[0]
        row = ir[nz] @ MS[nz] if 4 * nz.size < k else ir @ MS
        if z.size > n:
            row = np.concatenate((row, ir))
        row[basis[r]] = 1.0
        z -= z[j] * (row / col[r])
        _eliminate(W, r, col)
        basis[r] = j
        z[basis] = 0.0
        degenerate = degenerate + 1 if rmin == 0.0 else 0
        it += 1
        if it > max_iter:
            raise InternalError("simplex iteration limit exceeded")


def _magnitude(a: np.ndarray) -> float:
    """max |a_ij|, 0 for an empty array, without a temporary of a's size."""
    return max(float(a.max()), -float(a.min())) if a.size else 0.0


def _limits(scale: float, shape) -> tuple:
    """(tol_rc, max_iter) of min g.w s.t. M w = q, w >= 0 of this shape,
    on both paths; scale is the largest magnitude in M, q and g."""
    return REDUCED_COST_TOL * (1.0 + scale), 2000 + 60 * sum(shape)


def _simplex(M: np.ndarray, q: np.ndarray, g: np.ndarray):
    """min g.w  s.t.  M w = q, w >= 0, in two phases of ``_primal``.

    Phase one scales the rows of M by the sign of q to MS and crashes a
    basis: row i takes the lowest-index column of MS equal to the unit
    vector e_i (one nonzero, exactly 1.0) and every other row its
    artificial.  Either way B^-1 = I and x_B = |q| >= 0, so the crash is
    feasible; phase one minimizes the sum of the artificials still basic,
    pricing the artificial columns too, and makes no pivot when every row
    crashed.  Without a unit column the start is the all-artificial basis.
    Residual artificials are then driven out of the basis;
    rows where none can leave are redundant and dropped, so the returned
    basis columns (of M, unsorted) can be fewer than M's rows.  Phase two
    prices g over the n columns of M.  Returns (status, w, basis_columns).
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    g = np.asarray(g, dtype=float)
    p, n = M.shape
    if p == 0:
        if (g < 0.0).any():
            return _UNBOUNDED, None, None
        return _OPTIMAL, np.zeros(n), np.zeros(0, dtype=int)

    tol_rc, max_iter = _limits(max(_magnitude(M), _magnitude(q), _magnitude(g)), M.shape)
    sgn = np.where(q < 0.0, -1.0, 1.0)
    MS = np.multiply(M, sgn[:, None], order="C")  # the one scaled copy of M
    W = np.zeros((p, p + 1))
    np.fill_diagonal(W, 1.0)
    W[:, p] = q * sgn
    z = np.zeros(n + p)
    colsum = MS.sum(axis=0)
    basis = np.arange(n, n + p)

    # crash: row i takes the lowest-index column of MS equal to e_i; the
    # reduced costs are those of the artificials still basic (their sum over
    # a crashed column is a sum of zeros, so basic columns price at 0)
    unit = np.flatnonzero((colsum == 1.0) & (np.count_nonzero(MS, axis=0) == 1))
    rows, first = np.unique(MS[:, unit].argmax(axis=0), return_index=True)
    if rows.size:
        basis[rows] = unit[first]
        z[:n] = -MS[basis >= n].sum(axis=0)
        z[n + rows] = 1.0
    else:
        z[:n] = -colsum

    _primal(MS, W, basis, z, tol_rc, max_iter, bounded=True)
    if float(W[basis >= n, p].sum()) > PHASE_ONE_TOL * (1.0 + float(np.abs(q).sum())):
        return _INFEASIBLE, None, None

    # drive residual artificials out of the basis; drop redundant rows
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis[basis < n]] = True
    keep = basis < n
    for r in np.flatnonzero(~keep):
        t = W[r, :p] @ MS
        row = np.where(in_basis, 0.0, np.abs(t))
        jbest = int(row.argmax())
        if row[jbest] > DRIVE_OUT_TOL * (1.0 + _magnitude(t)):
            _eliminate(W, r, W[:, :p] @ MS[:, jbest])
            in_basis[jbest] = True
            basis[r] = jbest
            keep[r] = True
    if not keep.all():
        W, basis = W[keep], basis[keep]
    return _from_basis(MS, W, basis, g, tol_rc, max_iter)


def _from_basis(MS, W, basis, g, tol_rc, max_iter):
    """Phase two, the last phase of both paths: from the feasible basis
    ``basis`` with W = [B^-1 | x_B] (see ``_primal``), price g over the
    columns of MS, pivot until none prices in and read off
    (status, w, basis)."""
    z = g - (g[basis] @ W[:, : MS.shape[0]]) @ MS
    z[basis] = 0.0
    if _primal(MS, W, basis, z, tol_rc, max_iter) < 0:
        return _UNBOUNDED, None, None
    w = np.zeros(MS.shape[1])
    w[basis] = W[:, -1]
    return _OPTIMAL, w, basis.copy()


# Dimension above which ``_basis_solve`` fixes the singleton rows first.
# LAPACK's LU of the whole basis against the split, on the terminal basis at
# a test cost, best of 10-200 runs at one OpenBLAS thread on a 2-core VM
# (numpy 2.4), with the rows left to the LU:
#   grid 5x5, d = 40 (24 left): x 28 -> 39 us, inverse 0.07 -> 0.09 ms
#   grid 6x6, d = 60 (35 left): x 46 -> 51 us, inverse 0.12 -> 0.14 ms
#   grid 8x8, d = 112 (63 left): x 118 -> 73 us, inverse 0.49 -> 0.32 ms
#   randomlp-a, d = 140 (54 left): x 165 -> 53 us, inverse 0.66 -> 0.31 ms
#   maxflow-300 (58 left): x 915 -> 65 us, inverse 4.6 -> 0.9 ms
#   packing-360 (24 left): x 1442 -> 69 us, inverse 8.6 -> 1.2 ms
#   mincostflow-360 (71 left): x 1952 -> 131 us, inverse 7.7 -> 1.5 ms
#   grid-16, d = 480 (255 left): x 4526 -> 1248 us, inverse 16.5 -> 8.6 ms
# At d <= 64 the split wins nothing, and LAPACK keeps the bits of the small
# presets and of every face and reduced LP.
_SPLIT_DIM = 64


def _basis_solve(p: Polytope, rows: np.ndarray, rhs: np.ndarray | None = None, transpose: bool = False) -> np.ndarray:
    """A_B^-1 rhs for the basis B of the d ascending ``rows`` of p, rhs a
    vector or a d x k matrix; with ``transpose``, A_B^-T rhs, the basis
    rows' multipliers for the cost -rhs, one per row in ``rows``' order;
    without rhs, the C-contiguous inverse of A_B^T, the dual basis inverse
    of ``VertexStart``.  LinAlgError when A_B is singular.

    Up to ``_SPLIT_DIM`` this is LAPACK's LU of A_B (of A_B^T for the
    inverse and the transposed solve).  Above it, each singleton row j of
    A_B (``p.singletons``) fixes its coordinate, x_i = rhs_j / A_ji, and
    one LU solves the block left over, the other rows on the unfixed
    coordinates, for rhs less A[:, fixed] x_fixed (Suhl & Suhl 1990).  The
    transposed solve runs the same split backwards: the block's transpose
    gives the other rows' multipliers from rhs on the unfixed coordinates,
    and then each singleton row's multiplier is one division, y_j = (rhs_i
    less the other rows' A[:, i] . y) / A_ji.  Two singleton rows on one
    coordinate make A_B singular.  The inverse is the transpose of the
    split's A_B^-1 I with the entries the fixed rows determine written
    directly: the row of A_B^-1 for x_i is 1/A_ji at row j's place and 0
    elsewhere, and the block's right-hand side is I less A[rest, i] times
    1/A_ji in row j's column, the one nonzero term of the product with
    the fixed rows.  So every value is that of the product; only zeros
    that 0/A_ji made -0.0 are +0.0.  The result depends only on (p, rows,
    rhs), so a started solve that ends at a basis gets the cold solve's x
    bitwise.
    """
    A, d = p.A, p.d
    if d <= _SPLIT_DIM:
        if rhs is None:
            return np.linalg.inv(A.T[:, rows])
        return np.linalg.solve(A.T[:, rows] if transpose else A[rows], rhs)
    col = p.singletons[rows]
    on = col >= 0
    fixed = col[on]
    free = np.ones(d, dtype=bool)
    free[fixed] = False
    if fixed.size + np.count_nonzero(free) != d:
        raise np.linalg.LinAlgError("Singular matrix")
    piv = A[rows[on], fixed]
    rest = A[rows[~on]]
    if transpose:
        Y = np.empty(rhs.shape)
        Y[~on] = np.linalg.solve(rest[:, free].T, rhs[free])
        Y[on] = (rhs[fixed] - rest[:, fixed].T @ Y[~on]) / (piv if rhs.ndim == 1 else piv[:, None])
        return Y
    if rhs is None:
        pos, recip = on.nonzero()[0], 1.0 / piv
        X = np.zeros((d, d))
        X[fixed, pos] = recip
        R = np.zeros((rest.shape[0], d))
        R[np.arange(rest.shape[0]), (~on).nonzero()[0]] = 1.0
        R[:, pos] = 0.0 - rest[:, fixed] * recip  # not -t: a zero term is +0.0, as in I - product
    else:
        X = np.empty(rhs.shape)
        X[fixed] = rhs[on] / (piv if rhs.ndim == 1 else piv[:, None])
        R = rhs[~on] - rest[:, fixed] @ X[fixed]
    X[free] = np.linalg.solve(rest[:, free], R)
    return X if rhs is not None else np.ascontiguousarray(X.T)


@dataclass(frozen=True, eq=False)
class VertexStart:
    """A vertex of X with its dual basis factored: the start of started solves.

    ``VertexStart.at(p, x)`` builds it once; ``solve_lp(p, c, start)`` then
    solves from it for any c without factoring again.  ``solve_lp`` turns a
    point start into ``VertexStart.at(p, point)`` itself, so both give the
    same result; passing the start saves the factorization.  Fields:

    p      the polytope it belongs to; ``solve_lp`` refuses any other
    rows   the d basis rows, ascending: the rows active at the point x0,
           |b_j - A_j x0| at most REDUCED_COST_TOL * (1 + the largest
           magnitude in A and b); all of them when there are exactly d, or
           exactly d nonzero ones, else the first d independent ones in
           index order (``linalg.first_independent``); none at d = 0,
           where the one point of R^0 is the vertex (the reduced LP of a
           rank-0 model)
    inv    the inverse of A[rows]^T, C-contiguous: LAPACK's at d <=
           ``_SPLIT_DIM``, else the transpose of A[rows]^-1 from the
           singleton-first split (``_basis_solve``)
    x      the vertex A[rows]^-1 b[rows], by the cold post-processing
           formula (``_basis_solve``), so a solve that ends at these rows
           returns it bitwise; it was checked to be a point of X when the
           start was built
    slack  b - A x0 at the point x0 the start was built from: the
           reduced costs the solves price the start's basis with
    scale  the largest magnitude in A and b, the cost-free part of the
           simplex's scale (``_limits``)

    The arrays are read-only, and a start is a deterministic function of
    (p, point): it holds no state that depends on the solves made from it.
    """

    p: Polytope
    rows: np.ndarray
    inv: np.ndarray
    x: np.ndarray
    slack: np.ndarray
    scale: float

    @classmethod
    def at(cls, p: Polytope, x: np.ndarray) -> VertexStart | None:
        """The start at the point x of X, or None when x is not a vertex
        (fewer than d independent active rows, or a singular basis) or the
        vertex of its basis is not a point of X.  ValueError when x is not
        a point of X, by the ``Polytope.contains`` rule."""
        x = np.asarray(x, dtype=float)
        if x.shape != (p.d,):
            raise ValueError(f"start has shape {x.shape}, expected ({p.d},)")
        A, b, d = p.A, p.b, p.d
        slack = b - A @ x
        if not (slack >= -EPS_FEAS * (1.0 + np.abs(b))).all():
            raise ValueError("start is not a point of X")
        scale = max(_magnitude(A), _magnitude(b))
        rows = np.flatnonzero(np.abs(slack) <= REDUCED_COST_TOL * (1.0 + scale))
        if rows.size > d:  # a zero row is in no basis
            rows = rows[A[rows].any(axis=1)]
        if rows.size > d:
            rows = rows[first_independent(A.T[:, rows], d)]
        if rows.size < d:
            return None
        try:
            inv = _basis_solve(p, rows)
        except np.linalg.LinAlgError:
            return None
        vertex = _basis_solve(p, rows, b[rows])
        if not p.contains(vertex):
            return None
        for a in (rows, inv, vertex, slack):
            a.setflags(write=False)
        return cls(p, rows, inv, vertex, slack, scale)

    def fits(self, p: Polytope) -> bool:
        """Was this start built on p, or on a polytope with p's A and b?"""
        return self.p is p or (np.array_equal(self.p.A, p.A) and np.array_equal(self.p.b, p.b))


def _sparse_product(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v, from the columns of M where v is nonzero when those are under
    a quarter of v's entries (the gate of ``_primal``'s pivot row)."""
    nz = v.nonzero()[0]
    return M[:, nz] @ v[nz] if 4 * nz.size < v.size else M @ v


def _dual_simplex(A, b, c, rows, inv, slack, scale):
    """min b.w  s.t.  A^T w = -c, w >= 0, from the factored basis ``rows``
    (the fields of ``VertexStart``; stages one and two of the module
    docstring).  Returns (status, w, basis) as ``_simplex`` does; the basis
    is ``rows`` itself when the start is optimal.

    Stage two runs the dual simplex on B^-1, the inverse of A_B^T: each
    pivot forms the leaving row of B^-1 A^T (every basic column set to its
    unit entry, as a tableau holds it) and updates the reduced costs by it,
    as a tableau pivot updates its cost row.  Above ``_SPLIT_DIM`` that row
    is A (B^-1)_r over the nonzeros of (B^-1)_r, and the column B^-1 a_j
    that updates B^-1 is formed over the nonzeros of a_j, each when they
    are under a quarter of its entries (``_sparse_product``).  At or below
    it, as on the benchmark's reduced LPs (rank 12 at most), both are dense
    products.  The short sums skip only terms with a zero factor, but BLAS
    may group the other terms another way, so their bits are the dense
    products' only where the grouping cannot matter.  It did not on any
    preset or benchmark workload (the tests hold them to a dense referee);
    on random LPs at d = 80 with 8 nonzeros in each row and a dense start
    inverse, solves ended at the same bases with y changed in the last
    bits.  The entering column is the
    minimum ratio of reduced cost, clipped at 0, to minus the row's entry,
    over entries below -PIVOT_TOL times 1 + the row's largest magnitude,
    ties to the lowest index; when no entry is eligible, no w >= 0 solves
    A^T w = -c.  A pivot is degenerate when that ratio is 0.  Termination:
    the dual of Bland's rule cannot cycle, and each non-degenerate pivot
    strictly raises the dual objective.
    """
    q = -c
    tol_rc, max_iter = _limits(max(scale, _magnitude(q)), A.shape)
    product = _sparse_product if A.shape[1] > _SPLIT_DIM else np.matmul
    basis, z = rows, slack
    y_B = inv @ q
    it = 0
    degenerate = 0
    while True:
        r = int(y_B.argmin())
        if y_B[r] >= -tol_rc:
            break
        if it == 0:  # the start stays as it is: pivot on private copies
            inv, basis = inv.copy(), basis.copy()
            z = z.copy()
            z[basis] = 0.0
        ties = (y_B == y_B[r] if degenerate < _DEGENERATE_RUN else y_B < -tol_rc).nonzero()[0]
        r = int(ties[basis[ties].argmin()])
        row = product(A, inv[r])
        row[basis] = 0.0
        row[basis[r]] = 1.0
        elig = (row < -PIVOT_TOL * (1.0 + np.abs(row).max())).nonzero()[0]
        if elig.size == 0:
            return _INFEASIBLE, None, None
        ratios = np.maximum(z[elig], 0.0) / -row[elig]
        k = int(ratios.argmin())  # the first minimum: lowest index
        j = int(elig[k])
        z -= z[j] * (row / row[j])
        z[j] = 0.0
        col = product(inv, A[j])
        # the pivot divides by the entry the ratio test admitted: above
        # _SPLIT_DIM the two short sums may group their terms differently
        col[r] = row[j]
        _eliminate(inv, r, col)
        basis[r] = j
        y_B = inv @ q
        degenerate = degenerate + 1 if ratios[k] == 0.0 else 0
        it += 1
        if it > max_iter:
            raise InternalError("simplex iteration limit exceeded")
    if it:
        z = b - A @ (b[basis] @ inv)
    return _close(A, b, inv, basis, y_B, z, tol_rc, max_iter)


def _close(A, b, inv, basis, y_B, z, tol_rc, max_iter):
    """The cold optimality test closing a started solve: the dual basis
    ``basis`` with inverse ``inv`` and basic values y_B is optimal when no
    reduced cost z is below -tol_rc.  Only when rounding makes it fail does
    phase two (``_from_basis``) run from that basis, on copies of it."""
    if float(z.min()) >= -tol_rc:
        w = np.zeros(A.shape[0])
        w[basis] = y_B
        return _OPTIMAL, w, basis
    return _from_basis(A.T, np.column_stack((inv, y_B)), basis.copy(), b, tol_rc, max_iter)


# ---------------------------------------------------------------------------
# public solve operations
# ---------------------------------------------------------------------------


def solve_lp(p: Polytope, c: np.ndarray, start: np.ndarray | VertexStart | None = None) -> SolveResult:
    """Minimize c.x over X = {A x <= b}.

    Deterministic: the same (p, c, start) always yields the same basis_id
    and, under the same number of BLAS threads, a bitwise identical x; no
    state is kept between calls.  x is A_B^-1 b_B on the sorted terminal
    rows (``_basis_solve``); above ``_SPLIT_DIM`` the singleton rows fix
    their coordinates by divisions and LAPACK solves only the block left
    over.  Tests pin the same bytes under OPENBLAS_NUM_THREADS=1 and =2 on
    randomlp-a (d = 140): cold and started solves, a start's inverse, and
    a learn with the serves of its model.  Everywhere else bitwise x holds
    at a fixed thread count only; pin the count before numpy loads for
    equal bytes.  For feasible bounded directions the optimizer is a vertex
    of X (guaranteed whenever X has vertices, i.e. rank(A) = d).

    Its thresholds (EPS_FEAS for the start and the returned x, the
    simplex's, which also pick the rows active at a start) are constants
    of ``tolerances``.

    ``start`` is optional: a ``VertexStart`` built on p (ValueError when it
    was built on a polytope with another A or b), or a point of X, which
    is shorthand for ``VertexStart.at(p, point)``: ValueError when it is
    not a point of X, by the ``Polytope.contains`` rule, and a cold solve
    when it is not a vertex.  A started solve skips
    phase one and runs the two stages of the module docstring from the
    start's basis, ending under the cold path's optimality test.  When
    stage one finds the start optimal, x is the start's own, which is
    bitwise what the cold post-processing computes for its rows.  x, value
    and basis_id are bitwise the cold solve's whenever the terminal basis
    is the cold one, which it is when the optimum is a vertex with d active
    rows and positive multipliers.  On degenerate optima the two paths may
    stop at different optimal bases.  When the started solve ends on a
    dual ray, which says X is empty though it holds the start, rounding
    made it and the cold solve's result is returned instead.

    A cold solve of c = 0 (also from a point that is not a vertex) returns,
    with value 0.0 and y = 0, the vertex that minimizes -A^T w with
    w = (m, m - 1, ..., 1).  Every point of X is optimal for c = 0 and
    every basis of its dual is degenerate, so the simplex would search for
    a vertex with no objective to guide it.  The weighted cost is bounded
    (y = w is dual feasible), and unequal weights keep opposite rows, such
    as the two halves of an equality, from cancelling.
    """
    A, b = p.A, p.b
    m, d = A.shape
    c = np.asarray(c, dtype=float)
    if c.shape != (d,):
        raise ValueError(f"cost vector has shape {c.shape}, expected ({d},)")
    if not np.isfinite(c).all():
        raise ValueError("cost vector must be finite")
    if isinstance(start, VertexStart):
        if not start.fits(p):
            raise ValueError("start was built on another polytope")
    elif start is not None:
        start = VertexStart.at(p, start)  # None when the point is not a vertex: a cold solve

    if d == 0:
        if start is not None or p.contains(np.zeros(0)):  # a start is a point of X
            return SolveResult(SolveStatus.OPTIMAL, 0.0, np.zeros(0), (), np.zeros(m))
        return SolveResult(SolveStatus.INFEASIBLE)

    out = None if start is None else _dual_simplex(A, b, c, start.rows, start.inv, start.slack, start.scale)
    if out is not None and out[0] == _UNBOUNDED:  # a dual ray, though X holds the start: the cold solve decides
        out = start = None
    if out is None and not c.any():
        proxy = -(np.arange(m, 0, -1.0) @ A)
        if proxy.any():
            r = solve_lp(p, proxy)
            if r.status is not SolveStatus.OPTIMAL:
                return r  # Infeasible: the proxy is never unbounded
            return SolveResult(SolveStatus.OPTIMAL, 0.0, r.x, r.basis_id, np.zeros(m))
    status, w, basis = out if out is not None else _simplex(A.T, -c, b)
    if status == _OPTIMAL:
        if start is not None and basis is start.rows:
            rows, x = basis, start.x  # checked feasible when the start was built
        else:
            rows = np.sort(basis)
            if rows.size == d:
                x = _basis_solve(p, rows, b[rows])
            else:
                x = np.linalg.lstsq(A[rows], b[rows], rcond=None)[0]
            if not p.contains(x):
                raise InternalError("terminal basis produced an infeasible point")
        return SolveResult(
            SolveStatus.OPTIMAL,
            float(c @ x),
            x,
            tuple(rows.tolist()),
            w,
        )
    if status == _UNBOUNDED:  # dual unbounded below => primal infeasible
        return SolveResult(SolveStatus.INFEASIBLE)

    # dual infeasible: primal is either infeasible or unbounded (Farkas split)
    if start is not None:
        return SolveResult(SolveStatus.UNBOUNDED)  # X holds start
    status0, _, _ = _simplex(A.T, np.zeros(d), b)
    if status0 == _UNBOUNDED:
        return SolveResult(SolveStatus.INFEASIBLE)
    return SolveResult(SolveStatus.UNBOUNDED)


def check_feasible_bounded(p: Polytope) -> FeasibilityStatus:
    """Classify X: infeasible, unbounded, or feasible and bounded.

    Stiemke's theorem: a nonempty X is bounded iff its recession cone
    {r : A r <= 0} is {0}, that is iff rank(A) = d and some y > 0 has
    A^T y = 0.  Three steps:

    - one feasibility solve with cost -A^T 1, whose dual is feasible at
      y = 1, so the answer is Optimal or Infeasible (a zero cost would make
      every dual pivot degenerate);
    - rank(A) = d, counted by Gram-Schmidt over the rows of A with the
      cutoff TAU_RANK relative to the largest row norm;
    - one phase-one LP for y = 1 + u, u >= 0, A^T u = -A^T 1.
    """
    ones_cost = -p.A.sum(axis=0)
    if solve_lp(p, ones_cost).status is SolveStatus.INFEASIBLE:
        return FeasibilityStatus.INFEASIBLE
    if p.d == 0:
        return FeasibilityStatus.FEASIBLE_BOUNDED
    if orthonormal_columns(p.A.T).shape[1] < p.d:
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
