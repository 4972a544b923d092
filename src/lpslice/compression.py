"""Affine slice models and the exact-containment test.

A ``CompressionModel`` is an affine slice x0 + range(U) of the ambient space,
with U's columns the directions appended so far and cached orthonormal bases
Q (for range(U)) and Qperp (for its complement).  The central operation is
``contains_optimal_face``: decide whether the full optimal face of (p, c)
lies inside the slice, and if not, produce a vertex of the face that sticks
out.  Exactness of a slice for cost c means exactly this containment, so a
reduced LP over the slice reproduces the full optimal value and a subset of
its optimizers, vertices included.

The test rests on complementary slackness (Goldman & Tucker, 1956): every
row whose optimal multiplier is positive is active on the whole optimal
face, so the face lies in x* + null(A_S) for those rows S.  Face LPs are
needed only along the part of that null space outside the slice, which is
empty for a single-vertex face and a few directions for the ties of integer
costs, and they run in the face's own free coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lp_core import (
    DEFAULT_TOL,
    InternalError,
    Polytope,
    SolveResult,
    SolveStatus,
    ToleranceSet,
    solve_lp,
    solve_on_optimal_face,
)
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


# A multiplier above MULTIPLIER_TOL * (1 + max|y|) counts as strictly
# positive: its row is active on the whole optimal face.
MULTIPLIER_TOL = 1e-7

# A free direction of the face that leaves the slice by less than
# tau_contain / FACE_SPAN per unit of motion is not tested: the face would
# have to be longer than FACE_SPAN * (1 + ||x0||) along it to leave the
# slice by tau_contain.  The tolerances assume coordinates up to about 1e3.
FACE_SPAN = 1e6


class RankError(ValueError):
    """Attempted to append a direction already inside the slice."""


def _ro(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CompressionModel:
    """Affine slice x0 + range(U) with cached orthonormal complements.

    Invariants: U has full column rank; Q is an orthonormal basis of
    range(U) and Qperp of its orthogonal complement (both produced by the
    deterministic Gram-Schmidt in :mod:`lpslice.linalg`, so equal inputs give
    bitwise equal models).  Instances are frozen; mutation goes through
    ``append_direction`` which returns a new model.
    """

    x0: np.ndarray
    U: np.ndarray
    Q: np.ndarray
    Qperp: np.ndarray
    tol: ToleranceSet = DEFAULT_TOL
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "x0", _ro(self.x0))
        object.__setattr__(self, "U", _ro(self.U))
        object.__setattr__(self, "Q", _ro(self.Q))
        object.__setattr__(self, "Qperp", _ro(self.Qperp))
        d = self.x0.shape[0]
        if self.U.ndim != 2 or self.U.shape[0] != d:
            raise ValueError("U must be d x r")
        if self.Q.shape != self.U.shape or self.Qperp.shape != (d, d - self.U.shape[1]):
            raise ValueError("cached bases have inconsistent shapes")
        if not (linalg.check_orthonormal(self.Q) and linalg.check_orthonormal(self.Qperp)):
            raise ValueError("cached bases are not orthonormal")

    @property
    def d(self) -> int:
        return self.x0.shape[0]

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    @classmethod
    def empty(cls, x0: np.ndarray, tol: ToleranceSet = DEFAULT_TOL, provenance: dict | None = None):
        """Rank-0 model anchored at x0 (the slice is the single point x0)."""
        x0 = np.asarray(x0, dtype=float)
        d = x0.shape[0]
        U = np.zeros((d, 0))
        return cls(x0, U, np.zeros((d, 0)), np.eye(d), tol, provenance or {})

    @classmethod
    def create(cls, x0: np.ndarray, U: np.ndarray, tol: ToleranceSet = DEFAULT_TOL, provenance: dict | None = None):
        """Build a model from raw directions, recomputing the cached bases.

        Raises ValueError if U is column-rank-deficient at tolerance tau_rank.
        """
        x0 = np.asarray(x0, dtype=float)
        U = np.asarray(U, dtype=float)
        Q = linalg.orthonormal_columns(U, rank_tol=tol.tau_rank)
        if Q.shape[1] != U.shape[1]:
            raise ValueError("U does not have full column rank")
        return cls(x0, U, Q, linalg.complete_basis(Q), tol, provenance or {})


@dataclass(frozen=True)
class ContainmentResult:
    """Outcome of a face-containment test.

    When ``contained`` is False, ``witness`` is a face point outside the
    slice: a vertex of the optimal face (hence of X), or a vertex of the
    eps_face-thickened face when a thickened-face LP found it.
    ``functional_index`` says which test found it.  When the witness is the
    full solve's optimizer, or comes from the all-complement route
    (``shortcut=False``), it is the index of the violated column of Qperp.
    When it comes from a face LP of the default route, it is the index of
    the column of B, the basis of the face's free directions outside the
    slice, along which that LP optimized.
    """

    contained: bool
    witness: np.ndarray | None = None
    functional_index: int | None = None


def in_range(model: CompressionModel, w: np.ndarray) -> bool:
    """Is w in range(U)?  ||Qperp^T w|| <= tau_range * (1 + ||w||)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (model.d,):
        raise ValueError("direction has wrong dimension")
    if model.rank == model.d:
        return True
    resid = float(np.linalg.norm(model.Qperp.T @ w))
    return resid <= model.tol.tau_range * (1.0 + float(np.linalg.norm(w)))


def append_direction(model: CompressionModel, x: np.ndarray) -> CompressionModel:
    """New model whose slice also spans x - x0.

    Precondition: x - x0 is outside the current range (RankError otherwise).
    The first rank(U) columns of the new Q equal the old Q bitwise, which is
    what makes replays of the learner reproduce models exactly.
    """
    x = np.asarray(x, dtype=float)
    w = x - model.x0
    if in_range(model, w):
        raise RankError("direction already lies in the slice")
    try:
        Q = linalg.append_orthonormal(model.Q, w, rank_tol=model.tol.tau_rank)
    except ValueError as e:  # between tau_rank and tau_range: treat as rank failure
        raise RankError(str(e)) from e
    U = np.column_stack([model.U, w])
    return CompressionModel(model.x0, U, Q, linalg.complete_basis(Q), model.tol, dict(model.provenance))


def contains_optimal_face(
    model: CompressionModel,
    p: Polytope,
    c: np.ndarray,
    shortcut: bool = True,
) -> ContainmentResult:
    """Does the slice contain the whole optimal face of min c.x over X?

    One full solve, started from the anchor x0, gives a vertex optimizer
    x* and multipliers y.  A face point x leaves the slice when some column
    a of Qperp has |a . (x - x0)| above tau = tau_contain * (1 + ||x0||).
    The default route tests only
    what can leave the slice, in three steps:

    1. The optimizer: if x* leaves the slice, x* is the witness.
    2. The face's free directions.  Let S = {j : y_j > thr}, with thr =
       MULTIPLIER_TOL * (1 + max|y|).  By complementary slackness every
       row of S is active on the whole face, so the face is x* + N F, with
       N an orthonormal basis of null(A_S) and F = {z : (A N) z <= b - A x*}.
       If the d basis rows of the solve have multipliers above thr, the face
       is the single vertex x*: no factorization, and the answer is True.
    3. Face LPs along B, an orthonormal basis of (I - QQ^T) N, the part of
       the free directions outside the slice.  If B is empty the answer is
       True.  Otherwise, for each column of B in order, the maximum and then
       the minimum over F, an LP in the k = dim null(A_S) free coordinates
       started from z = 0 (x*, a vertex of F); the first face point x* + N z that leaves the slice is the witness,
       a vertex of the face and hence of X.

    The cutoffs are one-sided, so they can only add work, never a wrong
    True (see ``_free_face``): rank(A_S) may be under-counted, rows that
    barely move along N are left out of F, and a direction of B is dropped
    only when it leaves the slice by less than tau_contain / FACE_SPAN per
    unit of motion.  If the rows kept in F do not bound it, that step's LP
    runs over the eps_face-thickened face {x in X : c.x <= v + band}
    instead.

    With ``shortcut=False`` every column of Qperp gets a maximum and a
    minimum over the thickened face.  This all-complement route is kept as
    the tests' referee.  The thickened face reaches past the face by about
    band / y_j along rows with small multipliers, so on badly conditioned
    geometry, or on integer costs with |v| much larger than ||x0||, the
    referee can report a violation that the default route does not.  A True
    from the referee implies a True from the default route, since F lies
    in the thickened face up to the cutoffs above; the reverse does not
    hold.
    """
    c = np.asarray(c, dtype=float)
    if p.d != model.d:
        raise ValueError("model and polytope dimensions differ")
    return _contains_given_solve(model, p, c, solve_lp(p, c, model.tol, start=model.x0), shortcut)


def _contains_given_solve(
    model: CompressionModel,
    p: Polytope,
    c: np.ndarray,
    res: SolveResult,
    shortcut: bool = True,
) -> ContainmentResult:
    """``contains_optimal_face`` on the full solve ``res`` of (p, c)."""
    if res.status is not SolveStatus.OPTIMAL:
        raise ValueError(f"containment requires a feasible bounded LP, got {res.status.value}")
    if model.rank == model.d:
        return ContainmentResult(True)
    tol = model.tol
    tau = tol.tau_contain * (1.0 + float(np.linalg.norm(model.x0)))

    if not shortcut:
        for j in range(model.Qperp.shape[1]):
            a = model.Qperp[:, j]
            base = float(a @ model.x0)
            for sense in ("max", "min"):
                fr = _thickened_face_lp(p, c, res.value, a, sense, tol)
                if abs(fr.value - base) > tau:
                    return ContainmentResult(False, fr.x, j)
        return ContainmentResult(True)

    def outside(x):
        """Columns of Qperp on which x leaves the slice by more than tau."""
        return np.flatnonzero(np.abs(model.Qperp.T @ (x - model.x0)) > tau)

    bad = outside(res.x)
    if bad.size:
        return ContainmentResult(False, res.x, int(bad[0]))
    free = _free_face(model, p, res)
    if free is None:
        return ContainmentResult(True)
    N, face, B = free
    z0 = np.zeros(N.shape[1])  # x*, a vertex of the face
    for j, b in enumerate(B.T):
        g = N.T @ b  # b . (x* + N z) = b . x* + g . z
        for sense, cost in (("max", -g), ("min", g)):
            r = solve_lp(face, cost, tol, start=z0) if face is not None else None
            if r is not None and r.status is SolveStatus.OPTIMAL:
                x = res.x + N @ r.x
            else:  # the kept rows do not bound the face
                x = _thickened_face_lp(p, c, res.value, b, sense, tol).x
            if outside(x).size:
                return ContainmentResult(False, x, j)
    return ContainmentResult(True)


def _thickened_face_lp(p: Polytope, c: np.ndarray, v: float, a: np.ndarray, sense: str, tol: ToleranceSet):
    fr = solve_on_optimal_face(p, c, v, a, sense, tol)
    if fr.status is not SolveStatus.OPTIMAL:
        raise InternalError("optimal-face restriction reported infeasible")
    return fr


def _free_face(model: CompressionModel, p: Polytope, res: SolveResult):
    """The optimal face in its free coordinates, or None when none of them
    leaves the slice.

    Returns (N, F, B).  N (d x k) is an orthonormal basis of null(A_S), S
    the rows with multipliers above thr, so the face is x* + N F with F =
    {z : (A N) z <= b - A x*} over the rows that move along N (None when
    none does; the rows of S do not).  B is an orthonormal basis of
    (I - QQ^T) N.

    The bases come from the Gram-Schmidt helpers of :mod:`lpslice.linalg`,
    deterministic like the model's own.  Every cutoff can only enlarge F
    or B: a row of A_S whose residual is below tau_rank times the largest
    row norm counts as dependent (rank(A_S) under-counted); a row with
    ||A_j N|| <= tau_rank ||A_j|| counts as not moving and is left out of
    F, so rounding noise cannot cut F through x*; and a column of
    (I - QQ^T) N is dropped from B only when its residual is below
    tau_contain / FACE_SPAN (relative to the largest column, of norm at
    most 1).
    """
    d = model.d
    y = res.y
    tol = model.tol
    thr = MULTIPLIER_TOL * (1.0 + float(np.max(np.abs(y))))
    basis = list(res.basis_id)
    if len(basis) == d and float(np.min(y[basis])) > thr:
        return None
    N = linalg.complete_basis(linalg.orthonormal_columns(p.A[y > thr].T, rank_tol=tol.tau_rank))
    B = linalg.orthonormal_columns(N - model.Q @ (model.Q.T @ N), rank_tol=tol.tau_contain / FACE_SPAN)
    if B.shape[1] == 0:
        return None
    AN = p.A @ N
    moves = np.linalg.norm(AN, axis=1) > tol.tau_rank * np.linalg.norm(p.A, axis=1)
    slack = np.maximum(p.b - p.A @ res.x, 0.0)
    face = Polytope(AN[moves], slack[moves]) if moves.any() else None
    return N, face, B


def check_exact(model: CompressionModel, p: Polytope, c: np.ndarray) -> bool:
    """True iff solving over the slice is exact for cost c (face containment)."""
    return contains_optimal_face(model, p, c).contained


def build_reduced_lp(model: CompressionModel, p: Polytope, c: np.ndarray):
    """Reduced data over slice coordinates: ({z : (A U) z <= b - A x0}, U^T c, c . x0).

    For rank 0 the reduced polytope has zero variables; solve_lp handles that
    case directly (value 0 when feasible), so the identity
    full value = offset + reduced value still holds.
    """
    c = np.asarray(c, dtype=float)
    if p.d != model.d:
        raise ValueError("model and polytope dimensions differ")
    reduced = Polytope(
        p.A @ model.U,
        p.b - p.A @ model.x0,
        meta={"reduced_from": p.meta.get("name", ""), "rank": model.rank},
    )
    return reduced, model.U.T @ c, float(c @ model.x0)


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
    the solve starts there.
    The returned multipliers are those of the reduced solve; its rows are in
    one-to-one correspondence with the rows of p.
    """
    reduced, c_red, offset = build_reduced_lp(model, p, c)
    r = solve_lp(reduced, c_red, model.tol, start=np.zeros(model.rank))
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
        "tol": model.tol.to_dict(),
        "provenance": model.provenance,
    }


def model_from_json(doc: dict) -> CompressionModel:
    x0 = np.array(doc["x0"], dtype=float)
    cols = doc.get("U", [])
    U = np.array(cols, dtype=float).T if cols else np.zeros((x0.shape[0], 0))
    tol = ToleranceSet.from_dict(doc["tol"]) if "tol" in doc else DEFAULT_TOL
    return CompressionModel.create(x0, U, tol, dict(doc.get("provenance", {})))
