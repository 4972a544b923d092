"""Affine slice models and the exact-containment test.

A ``CompressionModel`` is an affine slice x0 + range(U) of the ambient space,
with U's columns the directions appended so far and Q an orthonormal basis
of range(U).  A point x lies in the slice when the residual of w = x - x0
off range(U), w - Q(Q^T w) taken twice as Gram-Schmidt takes it, has norm
at most tau = TAU_CONTAIN (1 + ||x0||) (``_tau``); no basis of the
complement is kept.  That one rule decides
``in_range``, the containment test, ``append_direction`` and the rank of a
model built by ``CompressionModel.create``.  Its set is the tube of radius
tau around the slice, which is convex, so a face whose vertices lie in it
lies in it.
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

import dataclasses
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
    _active_tol,
    _basis_solve,
    _limits,
    _twins,
    solve_lp,
)
from .tolerances import EPS_FEAS, FACE_SPAN, MULTIPLIER_TOL, TAU_CONTAIN, TAU_RANK
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
_FILE_TOL = {"eps_feas": EPS_FEAS, "eps_face": 1e-7, "tau_rank": TAU_RANK, "tau_range": 1e-7, "tau_contain": TAU_CONTAIN}


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
    w - Q(Q^T w) that the membership rule measures.

    The starts that serves, checks and containment tests solve from are
    data a model derives for the polytope it is asked about (``_Starts``),
    kept for the last one; neither ``model_to_json`` nor pickle writes
    them.  So the basis at x0 is factored once per model and polytope
    instead of once per check, and A U, b - A x0 and the basis at z = 0
    are built once instead of once per serve, however the model was made.
    A pickled packing-360 model ships 49 KB, not the 3.3 MB of its starts
    (a copy of A and the 360 x 360 anchor inverse).
    """

    x0: np.ndarray
    U: np.ndarray
    Q: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "x0", _ro(self.x0))
        object.__setattr__(self, "U", _ro(self.U))
        object.__setattr__(self, "Q", _ro(self.Q))
        object.__setattr__(self, "_starts", None)  # see _starts
        d = self.x0.shape[0]
        if self.U.ndim != 2 or self.U.shape[0] != d:
            raise ValueError("U must be d x r")
        if self.Q.shape != self.U.shape:
            raise ValueError("Q must have the shape of U")
        if not linalg.check_orthonormal(self.Q):
            raise ValueError("Q is not orthonormal")

    def __getstate__(self):
        return {**vars(self), "_starts": None}

    @property
    def d(self) -> int:
        return self.x0.shape[0]

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    @classmethod
    def empty(cls, x0: np.ndarray):
        """Rank-0 model anchored at x0 (the slice is the single point x0),
        with an empty provenance."""
        d = len(x0)
        return cls(x0, np.zeros((d, 0)), np.zeros((d, 0)))

    @classmethod
    def create(cls, x0: np.ndarray, U: np.ndarray, provenance: dict | None = None):
        """Build a model from raw directions, recomputing Q.

        Q is ``linalg.extend`` of the empty basis by U's columns with cutoff
        tau (``_tau``), the bits ``append_direction`` gives them one at a
        time.  ValueError when a column lies in the slice of the columns
        before it, by the membership rule (its residual is at most tau).
        """
        x0 = np.asarray(x0, dtype=float)
        U = np.asarray(U, dtype=float)
        Q = linalg.extend(np.zeros((len(x0), 0)), U, _tau(x0))
        if Q.shape[1] != U.shape[1]:
            raise ValueError("U does not have full column rank")
        return cls(x0, U, Q, provenance or {})


# A reduced LP drops its dead rows when it has at least this many, rank
# >= 1 and a live row.  A zero row of A U with slack b_j - A_j x0 >= 0 holds
# for every z, so it never enters a basis or prices in: dropping it changes
# no pivot, only the cost of each, which is a product over every row.  On
# packing-360 (rank 8) 659 of 744 rows are dead; at d = 1,200 (rank 40)
# 2,090 of 2,480.  Where fewer rows are dead the index maps cost about what
# the rows save: dropping them all the same left grid5-int serves (58 dead
# of 130) as fast and made example1's (2 of 4) 4-7% slower, in-process.  A
# rank-0 serve makes no pivot, so there the maps are all the cost: randomlp-a
# serves (392 dead of 420) were 25-33% slower.
_DEAD_ROWS = 64


class _Starts:
    """What a model derives on one polytope p: the starts its solves run from.

    anchor   ``VertexStart.at(p, x0)``, the start of full solves, built
             first; None when x0 is not a vertex (ValueError when it is
             not a point of X)
    reduced  the reduced polytope {z : (A U) z <= b - A x0} on its live
             rows, built on first use.  A row is dead when its row of A U
             is exactly zero and its slack b_j - A_j x0 is nonnegative: no
             z moves it.  With rank >= 1, at least ``_DEAD_ROWS`` dead
             rows and a live one the reduced polytope keeps the live rows
             only; else it keeps every row
    live     p's indices of the reduced polytope's rows, ascending, or
             None when it keeps every row; set with ``reduced``
    dead_active  a mask over p's rows of the dropped rows active at x0
             (slack at most ``_active_tol(p)``), which are active at every
             served point; None with ``live``
    serve    ``VertexStart.at(reduced, 0)``, the start of serves at z = 0
             (x0), built on first use; None when z = 0 is not a vertex of
             the reduced polytope, ValueError when it is not a point of it
             by its own rule (``learn`` refuses such an x0)
    """

    live = dead_active = None

    def __init__(self, p: Polytope, model: CompressionModel, anchor: VertexStart | None):
        self.p, self.anchor, self._x0, self._U = p, anchor, model.x0, model.U

    @cached_property
    def reduced(self) -> Polytope:
        AU, slack = self.p.A @ self._U, self.p.b - self.p.A @ self._x0
        dead = ~AU.any(axis=1) & (slack >= 0.0)
        if self._U.shape[1] and _DEAD_ROWS <= np.count_nonzero(dead) < dead.size:
            self.live = (~dead).nonzero()[0]
            self.dead_active = dead & (slack <= _active_tol(self.p))
            AU, slack = AU[self.live], slack[self.live]
        return Polytope(AU, slack)

    @cached_property
    def serve(self) -> VertexStart | None:
        return VertexStart.at(self.reduced, np.zeros(self._U.shape[1]))


def _starts(model: CompressionModel, p: Polytope) -> _Starts:
    """The model's ``_Starts`` on p.  They are kept for the last polytope
    the model was asked about and reused when p is that object or its twin
    (the same A and b, ``lp_core._twins``, the rule ``solve_lp`` holds a
    start to); on a twin they are re-pointed at p, so later calls with p
    compare no arrays."""
    kept = model._starts
    if kept is None or not _twins(kept.p, p):
        if p.d != model.d:
            raise ValueError("model and polytope dimensions differ")
        kept = _Starts(p, model, VertexStart.at(p, model.x0))
        object.__setattr__(model, "_starts", kept)
    elif kept.p is not p:
        kept.p, kept.anchor = p, kept.anchor and dataclasses.replace(kept.anchor, p=p)
    return kept


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


def _tau(x0: np.ndarray) -> float:
    """The membership tolerance of the slices anchored at x0:
    tau = TAU_CONTAIN * (1 + ||x0||)."""
    return TAU_CONTAIN * (1.0 + float(np.linalg.norm(x0)))


def _off_slice(model: CompressionModel, w: np.ndarray, tau: float) -> bool:
    """The membership rule: x0 + w leaves the slice when the residual of w
    off range(U) is longer than tau (``_tau(model.x0)``).  The residual is
    ``linalg._project_out``'s, the two passes by which ``linalg.extend``
    keeps or drops a column of Q, so a direction this rule puts outside is
    one that ``append_direction`` appends."""
    return float(np.linalg.norm(linalg._project_out(model.Q, w))) > tau


def in_range(model: CompressionModel, w: np.ndarray) -> bool:
    """Does x0 + w lie in the slice?  The containment test's rule
    (``_off_slice``): ||w - Q Q^T w|| <= TAU_CONTAIN * (1 + ||x0||), the
    projection taken twice."""
    w = np.asarray(w, dtype=float)
    if w.shape != (model.d,):
        raise ValueError("direction has wrong dimension")
    return not _off_slice(model, w, _tau(model.x0))


def append_direction(model: CompressionModel, x: np.ndarray) -> CompressionModel:
    """New model whose slice also spans x - x0.

    Precondition: x lies outside the slice by ``in_range`` (RankError
    otherwise).  Q grows by ``linalg.extend`` with the same cutoff tau, so
    ``CompressionModel.create`` rebuilds it bitwise from U, and every
    append raises the rank: ``in_range`` measures the residual of the two
    Gram-Schmidt passes that ``extend`` keeps the column by.  The first
    rank(U) columns of the new Q equal the old Q bitwise, which is what
    makes replays of the learner reproduce models exactly.  The new model
    takes over the old one's anchor start and derives the reduced polytope
    and the serve start of its own U.
    """
    x = np.asarray(x, dtype=float)
    w = x - model.x0
    if in_range(model, w):
        raise RankError("direction already lies in the slice")
    Q = linalg.extend(model.Q, w[:, None], _tau(model.x0))  # keeps w: in_range measured its residual as extend does
    U = np.column_stack([model.U, w])
    grown = CompressionModel(model.x0, U, Q, dict(model.provenance))
    if model._starts is not None:
        object.__setattr__(grown, "_starts", _Starts(model._starts.p, grown, model._starts.anchor))
    return grown


def contains_optimal_face(model: CompressionModel, p: Polytope, c: np.ndarray) -> ContainmentResult:
    """Does the slice contain the whole optimal face of min c.x over X?

    One full solve, started from the anchor x0 (the model's anchor start
    on p; cold when x0 is not a vertex), gives a vertex optimizer x* and
    multipliers y.  A face point x leaves the slice by the membership
    rule (``_off_slice``): the residual of x - x0 off range(U) is longer
    than tau = TAU_CONTAIN * (1 + ||x0||).  The test looks only at what
    can leave the slice, in three steps:

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
    return _contains_given_solve(model, p, c, solve_lp(p, c, start=_starts(model, p).anchor))


def _contains_given_solve(model: CompressionModel, p: Polytope, c: np.ndarray, res: SolveResult) -> ContainmentResult:
    """``contains_optimal_face`` on the full solve ``res`` of (p, c)."""
    if res.status is not SolveStatus.OPTIMAL:
        raise ValueError(f"containment requires a feasible bounded LP, got {res.status.value}")
    if model.rank == model.d:
        return ContainmentResult(True)
    tau = _tau(model.x0)

    def outside(x):
        return _off_slice(model, x - model.x0, tau)

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
    reduced LP's, (b - A x0) - (A U) z*, and B takes in the dropped rows
    active at x0 (``_Starts.dead_active``), which no z moves.  When the serve ends on its
    start's basis (x* = x0; always so at rank 0), B is the anchor's basis
    and y_B is one product with its inverse, the started solve's stage one.
    """
    if p.d <= _SPLIT_DIM:
        return None
    starts = _starts(model, p)
    anchor = starts.anchor
    if anchor is None or anchor.active != p.d:
        return None
    try:
        serve = starts.serve
        if serve is None:
            return None
        r = solve_lp(serve.p, model.U.T @ c, start=serve)
    except (ValueError, InternalError):  # ValueError: z = 0 is outside the reduced LP
        return None
    if r.status is not SolveStatus.OPTIMAL:
        return None
    if r.basis_id == tuple(serve.rows.tolist()):
        y = anchor.inv @ -c
    else:
        active = np.abs(serve.p.b - serve.p.A @ r.x) <= _active_tol(p)
        if starts.live is not None:  # with the dropped rows active at x0, which no z moves
            on_p = starts.dead_active.copy()
            on_p[starts.live] = active
            active = on_p
        rows = np.flatnonzero(active)
        if rows.size != p.d:
            return None
        try:
            y = _basis_solve(p, rows, -c, transpose=True)
        except np.linalg.LinAlgError:
            return None
    low = float(y.min())
    if low > MULTIPLIER_TOL * (1.0 + float(np.max(np.abs(y)))):
        return True
    if low < -_limits(p, c)[0]:
        return False
    return None


def build_reduced_lp(model: CompressionModel, p: Polytope, c: np.ndarray):
    """Reduced data over slice coordinates: ({z : (A U) z <= b - A x0}, U^T c, c . x0).

    The polytope is the one the model derives on p (``_Starts.reduced``),
    built on the first call and the same object on every later one.  It
    keeps the live rows only when the dead ones, zero rows of A U with
    nonnegative slack, number at least ``_DEAD_ROWS`` at rank >= 1 (see
    ``_Starts``); those rows hold for every z, so the set is the same.
    For rank 0 the reduced polytope has zero variables; solve_lp handles that
    case directly (value 0 when feasible), so the identity
    full value = offset + reduced value still holds.
    """
    c = np.asarray(c, dtype=float)
    return _starts(model, p).reduced, model.U.T @ c, float(c @ model.x0)


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
    the solve starts there, from the serve start the model derives on p
    (``_Starts.serve``; cold when z = 0 is not a vertex).  It is built on
    the first serve, so every later one costs U^T c, c . x0, the started
    solve and the lift.  The returned multipliers are those of the
    reduced solve, one per row of p: when the reduced polytope keeps only
    its live rows (``_Starts.live``), basis_id is mapped back to p's row
    indices and y is scattered onto p's rows, 0 on the dropped ones, which
    are in no basis.  So the result has the bytes it has when every row
    is kept.
    """
    reduced, c_red, offset = build_reduced_lp(model, p, c)
    starts = _starts(model, p)
    r = solve_lp(reduced, c_red, start=starts.serve)
    if r.status is not SolveStatus.OPTIMAL:
        raise InternalError(f"reduced LP reported {r.status.value} though the anchor is feasible")
    x = lift(model, r.x)
    if starts.live is None:
        return SolveResult(SolveStatus.OPTIMAL, offset + r.value, x, r.basis_id, r.y)
    y = np.zeros(p.m)
    y[starts.live] = r.y
    return SolveResult(SolveStatus.OPTIMAL, offset + r.value, x, tuple(starts.live[list(r.basis_id)].tolist()), y)


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
