"""Affine slice models and the exact-containment test.

A ``CompressionModel`` is an affine slice x0 + range(U) of the ambient space,
with U's columns the directions appended so far and Q an orthonormal basis
of range(U).  A point x lies in the slice when the residual of w = x - x0
off range(U), w - Q(Q^T w), is short; no basis of the complement is kept.
The central operation is ``contains_optimal_face``: decide whether the full
optimal face of (p, c) lies inside the slice, and if not, produce a vertex
of the face that sticks out.  Exactness of a slice for cost c means exactly
this containment, so a reduced LP over the slice reproduces the full
optimal value and a subset of its optimizers, vertices included.

The test rests on complementary slackness (Goldman & Tucker, 1956): every
row whose optimal multiplier is positive is active on the whole optimal
face, so the face lies in x* + null(A_S) for those rows S.  The solve puts
positive multipliers only on its d independent basis rows, so null(A_S) is
spanned by the columns of A_B^-1 that belong to the basis rows outside S,
and one QR of those columns gives its orthonormal basis.  Face LPs are
needed only along the part of that null space outside the slice, which is
empty for a single-vertex face and a few directions for the ties of integer
costs, and they run in the face's own free coordinates.

``check_exact`` applies the same rule at the served vertex x* = x0 + U z*
before it pays for the full solve.  When x* has exactly d active rows,
their multipliers y_B = A_B^-T (-c), one transposed basis solve, decide
most checks: all strictly positive make x* the unique optimum, in the
slice, and one clearly negative shows that x* is not optimal, though it is
optimal over the slice, so the optimal face misses the slice.  Only
multipliers between the two cutoffs, or degenerate or low-dimensional
cases where the attempt would not pay, run ``contains_optimal_face``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lp_core import (
    _SPLIT_DIM,
    InternalError,
    Polytope,
    SolveResult,
    SolveStatus,
    VertexStart,
    _basis_solve,
    _limits,
    _magnitude,
    solve_lp,
)
from .tolerances import EPS_FEAS, FACE_SPAN, MULTIPLIER_TOL, REDUCED_COST_TOL, TAU_CONTAIN, TAU_RANGE, TAU_RANK
from . import linalg

__all__ = [
    "RankError",
    "CompressionModel",
    "ContainmentResult",
    "in_range",
    "append_direction",
    "contains_optimal_face",
    "check_exact",
    "build_reduced_lp",
    "lift",
    "solve_via_compression",
    "model_to_json",
    "model_from_json",
]


# Model files of earlier versions carry a "tol" block with these values,
# the only ones the CLI could write.  A file with other values would be
# served under thresholds it did not ask for, so it is refused.
_FILE_TOL = {"eps_feas": EPS_FEAS, "eps_face": 1e-7, "tau_rank": TAU_RANK, "tau_range": TAU_RANGE, "tau_contain": TAU_CONTAIN}


class RankError(ValueError):
    """Attempted to append a direction already inside the slice."""


def _ro(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CompressionModel:
    """Affine slice x0 + range(U) with an orthonormal basis Q of range(U).

    Invariants: U has full column rank; Q is an orthonormal basis of
    range(U), produced by the deterministic Gram-Schmidt in
    :mod:`lpslice.linalg`, so equal inputs give bitwise equal models.
    Instances are frozen; mutation goes through ``append_direction`` which
    returns a new model.

    Both bases are kept on purpose.  U holds the raw vertex differences
    x - x0, and the reduced LP is built on them: their exact ties save
    pivots that the rounding of an orthonormal basis breaks.  Serving from
    Q instead left every model and verdict bitwise equal but took more
    reduced-LP pivots over 100 serves at benchmark seed 0: 445 against 410
    on packing-360, 698 against 686 on grid5-int.  Q gives the residuals
    w - Q(Q^T w) that ``in_range`` and the containment test measure.

    ``start`` is the ``VertexStart`` that ``learn`` built at x0 on its
    polytope, or None (x0 is not a vertex, or the model was made otherwise).
    ``contains_optimal_face`` solves from it whenever it fits the polytope
    at hand, so the basis at x0 is factored once per model instead of once
    per check; every other route starts at the point x0 itself, which
    ``solve_lp`` turns into the same start one-shot.  ``reduced`` is the
    serve start, the start at z = 0 of the reduced LP, built once on the
    model's first serve on a polytope that ``start`` fits, grown models
    included; ``solve_via_compression`` serves from it, so A U, b - A x0 and
    the basis at z = 0 are built once per model instead of once per serve.
    Both are derived data: ``model_to_json`` does not write them, and a
    model read back has neither.
    """

    x0: np.ndarray
    U: np.ndarray
    Q: np.ndarray
    provenance: dict = field(default_factory=dict)
    start: VertexStart | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0", _ro(self.x0))
        object.__setattr__(self, "U", _ro(self.U))
        object.__setattr__(self, "Q", _ro(self.Q))
        d = self.x0.shape[0]
        if self.U.ndim != 2 or self.U.shape[0] != d:
            raise ValueError("U must be d x r")
        if self.Q.shape != self.U.shape:
            raise ValueError("Q must have the shape of U")
        if not linalg.check_orthonormal(self.Q):
            raise ValueError("Q is not orthonormal")

    @property
    def d(self) -> int:
        return self.x0.shape[0]

    @cached_property
    def reduced(self) -> VertexStart | None:
        """The ``VertexStart`` at z = 0 (x0) of the reduced LP {z : (A U) z
        <= b - A x0} over ``start.p``, built once, on first use, for this
        model's U; None when there is no ``start``, when z = 0 is not a
        vertex, or when z = 0 is outside the reduced LP by its own rule (then
        every serve raises, as the one-shot serve of a model read back does).
        A function of (start, U) alone, so a model grown by
        ``append_direction`` derives its own."""
        if self.start is None:
            return None
        try:  # b - A x0 is the start's slack
            return VertexStart.at(Polytope(self.start.p.A @ self.U, self.start.slack), np.zeros(self.rank))
        except ValueError:
            return None

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    @classmethod
    def empty(cls, x0: np.ndarray, start: VertexStart | None = None):
        """Rank-0 model anchored at x0 (the slice is the single point x0),
        with an empty provenance."""
        x0 = np.asarray(x0, dtype=float)
        d = x0.shape[0]
        return cls(x0, np.zeros((d, 0)), np.zeros((d, 0)), start=start)

    @classmethod
    def create(cls, x0: np.ndarray, U: np.ndarray, provenance: dict | None = None):
        """Build a model from raw directions, recomputing Q.

        Raises ValueError if U is column-rank-deficient at tolerance TAU_RANK.
        """
        x0 = np.asarray(x0, dtype=float)
        U = np.asarray(U, dtype=float)
        Q = linalg.orthonormal_columns(U)
        if Q.shape[1] != U.shape[1]:
            raise ValueError("U does not have full column rank")
        return cls(x0, U, Q, provenance or {})


@dataclass(frozen=True)
class ContainmentResult:
    """Outcome of a face-containment test.

    When ``contained`` is False, ``witness`` is a vertex of the optimal face
    (hence of X) outside the slice.
    """

    contained: bool
    witness: np.ndarray | None = None


def _residual(model: CompressionModel, w: np.ndarray) -> np.ndarray:
    """The part of w off range(U): w - Q (Q^T w), column by column for a matrix."""
    return w - model.Q @ (model.Q.T @ w)


def in_range(model: CompressionModel, w: np.ndarray) -> bool:
    """Is w in range(U)?  ||w - Q Q^T w|| <= TAU_RANGE * (1 + ||w||)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (model.d,):
        raise ValueError("direction has wrong dimension")
    resid = float(np.linalg.norm(_residual(model, w)))
    return resid <= TAU_RANGE * (1.0 + float(np.linalg.norm(w)))


def append_direction(model: CompressionModel, x: np.ndarray) -> CompressionModel:
    """New model whose slice also spans x - x0.

    Precondition: x - x0 is outside the current range (RankError otherwise).
    The first rank(U) columns of the new Q equal the old Q bitwise, which is
    what makes replays of the learner reproduce models exactly.  The new
    model keeps ``start`` and derives its own ``reduced`` for the new U.
    """
    x = np.asarray(x, dtype=float)
    w = x - model.x0
    if in_range(model, w):
        raise RankError("direction already lies in the slice")
    try:
        Q = linalg.append_orthonormal(model.Q, w)
    except ValueError as e:  # between TAU_RANK and TAU_RANGE: treat as rank failure
        raise RankError(str(e)) from e
    U = np.column_stack([model.U, w])
    return CompressionModel(model.x0, U, Q, dict(model.provenance), model.start)


def contains_optimal_face(model: CompressionModel, p: Polytope, c: np.ndarray) -> ContainmentResult:
    """Does the slice contain the whole optimal face of min c.x over X?

    One full solve, started from the anchor x0 (``model.start`` when it
    fits p, else x0 itself), gives a vertex optimizer
    x* and multipliers y.  A face point x leaves the slice when the
    residual of x - x0 off range(U) is longer than tau = TAU_CONTAIN *
    (1 + ||x0||).  The test looks only at what can leave the slice, in
    three steps:

    1. The optimizer: if x* leaves the slice, x* is the witness.
    2. The face's free directions.  Let S = {j : y_j > thr}, with thr =
       MULTIPLIER_TOL * (1 + max|y|).  By complementary slackness every
       row of S is active on the whole face, so the face is x* + N F, with
       N an orthonormal basis of null(A_S) and F = {z : (A N) z <= b - A x*}.
       If the d basis rows of the solve have multipliers above thr, the face
       is the single vertex x*: no factorization, and the answer is True.
       Otherwise S lies inside the solve's basis rows (y is 0 off them),
       and N is the Q factor of one QR of the columns of A_B^-1 that belong
       to the basis rows outside S, each orthogonal to every other basis row.
    3. Face LPs along B, an orthonormal basis of (I - QQ^T) N, the part of
       the free directions outside the slice.  If B is empty the answer is
       True.  Otherwise, for each column of B in order, the maximum and then
       the minimum over F, an LP in the k = dim null(A_S) free coordinates
       started from z = 0 (x*, a vertex of F), whose basis is factored
       once per check (``VertexStart``; cold when ``VertexStart.at``
       refuses z = 0); the first face point
       x* + N z that leaves the slice is the witness, a vertex of the face
       and hence of X.

    The cutoffs are one-sided, so they can only add work, never a wrong
    True (see ``_free_face``): rows that barely move along N are left out
    of F, and a direction of B is dropped only when it leaves the slice by
    less than TAU_CONTAIN / FACE_SPAN per unit of motion (all constants of
    ``tolerances``).  Leaving out rows only enlarges F, and X is bounded,
    so an F with no rows or an unbounded face LP raises InternalError.
    """
    c = np.asarray(c, dtype=float)
    if p.d != model.d:
        raise ValueError("model and polytope dimensions differ")
    start = model.start if model.start is not None and model.start.fits(p) else model.x0
    return _contains_given_solve(model, p, c, solve_lp(p, c, start=start))


def _contains_given_solve(model: CompressionModel, p: Polytope, c: np.ndarray, res: SolveResult) -> ContainmentResult:
    """``contains_optimal_face`` on the full solve ``res`` of (p, c)."""
    if res.status is not SolveStatus.OPTIMAL:
        raise ValueError(f"containment requires a feasible bounded LP, got {res.status.value}")
    if model.rank == model.d:
        return ContainmentResult(True)
    tau = TAU_CONTAIN * (1.0 + float(np.linalg.norm(model.x0)))

    def outside(x):
        return float(np.linalg.norm(_residual(model, x - model.x0))) > tau

    if outside(res.x):
        return ContainmentResult(False, res.x)
    free = _free_face(model, p, res)
    if free is None:
        return ContainmentResult(True)
    N, face, B = free
    start = VertexStart.at(face, np.zeros(N.shape[1]))  # at x*: one factorization for every face LP of this check
    for b in B.T:
        g = N.T @ b  # b . (x* + N z) = b . x* + g . z
        for cost in (-g, g):
            r = solve_lp(face, cost, start=start)
            if r.status is not SolveStatus.OPTIMAL:
                raise InternalError(f"face LP in the free coordinates is {r.status.value}, though X is bounded")
            x = res.x + N @ r.x
            if outside(x):
                return ContainmentResult(False, x)
    return ContainmentResult(True)


def _free_face(model: CompressionModel, p: Polytope, res: SolveResult):
    """The optimal face in its free coordinates, or None when none of them
    leaves the slice.

    Returns (N, F, B).  N (d x k) is an orthonormal basis of null(A_S), S
    the rows with multipliers above thr, so the face is x* + N F with F =
    {z : (A N) z <= b - A x*} over the rows that move along N (the rows of
    S do not; InternalError when none does, since X is bounded).  B is an
    orthonormal basis of (I - QQ^T) N.

    S is a subset of the solve's d basis rows, which are independent, so
    null(A_S) is spanned by the columns of A_B^-1 that belong to the free
    basis rows (multiplier at most thr), and N is the Q factor of their
    QR.  Only those columns are solved for, A_B^-1 times the matching
    columns of I (``lp_core._basis_solve``).  A basis of fewer than d rows
    means rank(A) < d, which a bounded X rules out: InternalError.  B comes
    from the Gram-Schmidt of :mod:`lpslice.linalg`, deterministic like the
    model's own.  Every cutoff can only enlarge F or B: a row with
    ||A_j N|| <= TAU_RANK ||A_j|| counts as not moving and is left out of
    F, so rounding noise cannot cut F through x*; and a column of
    (I - QQ^T) N is dropped from B only when its residual is below
    TAU_CONTAIN / FACE_SPAN (relative to the largest column, of norm at
    most 1).
    """
    y = res.y
    thr = MULTIPLIER_TOL * (1.0 + float(np.max(np.abs(y))))
    basis = np.array(res.basis_id, dtype=int)
    if len(basis) == p.d and float(np.min(y[basis])) > thr:
        return None
    if len(basis) < p.d:
        raise InternalError(f"the optimal basis has {len(basis)} rows, fewer than d = {p.d}, though X is bounded")
    free = np.eye(p.d)[:, y[basis] <= thr]
    N = np.ascontiguousarray(np.linalg.qr(_basis_solve(p, basis, free))[0])
    B = linalg.orthonormal_columns(_residual(model, N), rank_tol=TAU_CONTAIN / FACE_SPAN)
    if B.shape[1] == 0:
        return None
    AN = p.A @ N
    moves = np.linalg.norm(AN, axis=1) > TAU_RANK * np.linalg.norm(p.A, axis=1)
    if not moves.any():
        raise InternalError("no row of X moves along the optimal face's free directions, though X is bounded")
    slack = np.maximum(p.b - p.A @ res.x, 0.0)
    return N, Polytope(AN[moves], slack[moves]), B


def check_exact(model: CompressionModel, p: Polytope, c: np.ndarray) -> bool:
    """True iff solving over the slice is exact for cost c (face containment).

    Above ``_SPLIT_DIM`` it decides at the served vertex first
    (``_verdict_at_served_vertex``), where one d x d basis solve settles
    most checks; ``contains_optimal_face`` runs only when that cannot
    decide.  Both give the same verdict wherever the first decides.
    """
    c = np.asarray(c, dtype=float)
    verdict = _verdict_at_served_vertex(model, p, c)
    return contains_optimal_face(model, p, c).contained if verdict is None else verdict


def _verdict_at_served_vertex(model: CompressionModel, p: Polytope, c: np.ndarray) -> bool | None:
    """Complementary slackness (Goldman & Tucker 1956) at the served vertex
    x* = x0 + U z*: True or False when it decides exactness, else None.

    Let B be the rows active at x*, by ``VertexStart.at``'s rule, and y_B =
    A_B^-T (-c) their multipliers.  With exactly d rows in B:
    min y_B > MULTIPLIER_TOL (1 + max|y_B|) makes x* the unique optimum,
    and it lies in the slice: True (``_free_face``'s single-vertex rule).
    min y_B < -tol_rc, the started solve's own optimality cut
    (``lp_core._limits``), means x* is not optimal; x* is optimal over the
    slice, so the optimal face misses it: False.  Anything else is None:
    multipliers between the two cuts, |B| != d, a singular A_B, or a serve
    that raises.

    The attempt is made only where it pays, by properties of the inputs:
    d above ``_SPLIT_DIM`` (below it a serve costs about as much as a
    check) and an anchor x0 with exactly d active rows (``VertexStart.active``;
    at a degenerate anchor the served points are degenerate too).  B's slacks are the
    reduced LP's, (b - A x0) - (A U) z*.  When the serve ends on its
    start's basis (x* = x0; always so at rank 0), B is the anchor's basis
    and y_B is one product with its inverse, the started solve's stage one.
    """
    start = model.start
    if p.d <= _SPLIT_DIM or start is None or start.active != p.d or not start.fits(p):
        return None
    serve = model.reduced
    if serve is None:
        return None
    tol = REDUCED_COST_TOL * (1.0 + start.scale)
    try:
        r = solve_lp(serve.p, model.U.T @ c, start=serve)
    except InternalError:
        return None
    if r.status is not SolveStatus.OPTIMAL:
        return None
    if r.basis_id == tuple(serve.rows.tolist()):
        y = start.inv @ -c
    else:
        rows = np.flatnonzero(np.abs(serve.p.b - serve.p.A @ r.x) <= tol)
        if rows.size != p.d:
            return None
        try:
            y = _basis_solve(p, rows, -c, transpose=True)
        except np.linalg.LinAlgError:
            return None
    low = float(y.min())
    if low > MULTIPLIER_TOL * (1.0 + float(np.max(np.abs(y)))):
        return True
    if low < -_limits(max(start.scale, _magnitude(c)), p.A.shape)[0]:
        return False
    return None


def build_reduced_lp(model: CompressionModel, p: Polytope, c: np.ndarray):
    """Reduced data over slice coordinates: ({z : (A U) z <= b - A x0}, U^T c, c . x0).

    The polytope is that of the model's serve start (``reduced.p``) when
    its start fits p, else built here; both are the same arrays bit for bit.
    For rank 0 the reduced polytope has zero variables; solve_lp handles that
    case directly (value 0 when feasible), so the identity
    full value = offset + reduced value still holds.
    """
    c = np.asarray(c, dtype=float)
    start = _serve_start(model, p)
    if start is not None:
        reduced = start.p
    elif p.d != model.d:
        raise ValueError("model and polytope dimensions differ")
    else:
        reduced = Polytope(p.A @ model.U, p.b - p.A @ model.x0)
    return reduced, model.U.T @ c, float(c @ model.x0)


def _serve_start(model: CompressionModel, p: Polytope) -> VertexStart | None:
    """``model.reduced`` when the model's start fits p, else None."""
    return model.reduced if model.start is not None and model.start.fits(p) else None


def lift(model: CompressionModel, z: np.ndarray) -> np.ndarray:
    """Map slice coordinates to the ambient space: x0 + U z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (model.rank,):
        raise ValueError("slice point has wrong dimension")
    return model.x0 + model.U @ z


def solve_via_compression(model: CompressionModel, p: Polytope, c: np.ndarray) -> SolveResult:
    """Solve the reduced LP and lift: value = offset + reduced value, x = x0 + U z.

    The reduced problem holds z = 0 (x0; ValueError when x0 is not in X)
    and is bounded whenever X is bounded, so any other status is an
    internal error.  z = 0 is a vertex of it when x0 is a vertex of X, and
    the solve starts there: from ``model.reduced`` when the model's start
    fits p, built on the first such serve, so every later one costs U^T c,
    c . x0, the started solve and the lift; else from the point z = 0,
    which ``solve_lp`` turns into the same start one-shot.
    The returned multipliers are those of the reduced solve; its rows are in
    one-to-one correspondence with the rows of p.
    """
    reduced, c_red, offset = build_reduced_lp(model, p, c)
    start = _serve_start(model, p)
    r = solve_lp(reduced, c_red, start=np.zeros(model.rank) if start is None else start)
    if r.status is not SolveStatus.OPTIMAL:
        raise InternalError(f"reduced LP reported {r.status.value} though the anchor is feasible")
    x = lift(model, r.x)
    return SolveResult(SolveStatus.OPTIMAL, offset + r.value, x, r.basis_id, r.y)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def model_to_json(model: CompressionModel) -> dict:
    """Model document: U stored column-major (a list of columns)."""
    return {
        "x0": [float(v) for v in model.x0],
        "U": [[float(v) for v in model.U[:, k]] for k in range(model.rank)],
        "provenance": model.provenance,
    }


def model_from_json(doc: dict) -> CompressionModel:
    """Inverse of ``model_to_json``; refuses a "tol" block other than _FILE_TOL."""
    if doc.get("tol", _FILE_TOL) != _FILE_TOL:
        raise ValueError(f"model file asks for tolerances {doc['tol']}; this version applies {_FILE_TOL}")
    x0 = np.array(doc["x0"], dtype=float)
    cols = doc.get("U", [])
    U = np.array(cols, dtype=float).T if cols else np.zeros((x0.shape[0], 0))
    return CompressionModel.create(x0, U, dict(doc.get("provenance", {})))
