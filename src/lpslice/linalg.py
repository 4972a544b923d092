"""Deterministic orthonormalization helpers shared across the package.

Everything here is plain modified Gram-Schmidt with one re-orthogonalization
pass ("twice is enough"), processing columns in a fixed order.  We avoid
Householder QR on purpose: appending a column to an already orthonormalized
set must reproduce the existing columns bit for bit, which the incremental
Gram-Schmidt recursion guarantees and a fresh QR factorization does not.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import COMPLETE_TOL, ORTHO_TOL, TAU_RANK


def _project_out(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Remove the span of Q's columns from v, twice for numerical hygiene."""
    if Q.shape[1] == 0:
        return v
    v = v - Q @ (Q.T @ v)
    v = v - Q @ (Q.T @ v)
    return v


def _extend(Q: np.ndarray, V: np.ndarray, cutoff: float) -> np.ndarray:
    """Q with more orthonormal columns, grown from V's columns.

    The one Gram-Schmidt loop behind the public helpers: V's columns are
    taken left to right, each made orthogonal to Q and to the columns kept
    before it, and kept unless its residual norm is at most ``cutoff`` (or
    zero).  The loop ends once the span has d columns: any later residual
    is rounding noise.  Each kept column makes a fresh span, one
    ``np.concatenate`` of the last span and the column.  Projecting against
    a view of one preallocated array instead changes the rounding, hence
    the bits of every basis and model, so the fresh array stays.  Returns Q
    itself when no column is kept.
    """
    span = Q
    for v in V.T:
        if span.shape[1] == Q.shape[0]:
            break
        w = _project_out(span, v.copy())
        nrm = float(np.linalg.norm(w))
        if nrm <= cutoff or nrm == 0.0:
            continue
        span = np.concatenate((span, (w / nrm)[:, None]), axis=1)
    return span


def orthonormal_columns(V: np.ndarray, rank_tol: float = TAU_RANK) -> np.ndarray:
    """Orthonormal basis for the column span of V.

    ``_extend`` from an empty basis: columns are processed left to right;
    near-dependent columns (residual norm at most ``rank_tol`` times the
    largest column norm of V) are dropped.  Deterministic: identical input
    yields a bitwise identical basis, and the basis for V[:, :k] is a
    bitwise prefix of the basis for V whenever no column of the extension
    is dropped.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected a 2-d array of columns")
    cutoff = rank_tol * float(np.max(np.linalg.norm(V, axis=0), initial=0.0))
    return _extend(np.zeros((V.shape[0], 0)), V, cutoff)


def first_independent(V: np.ndarray, k: int) -> np.ndarray:
    """Indices of the first k columns of V, in order, that are independent
    of the columns picked before them: Gram-Schmidt with the default cutoff
    of ``orthonormal_columns``.  Fewer than k when V has rank below k.

    Kept apart from ``_extend``: it works on rows and skips a column after
    one pass.  It picks the basis at a degenerate vertex when a started
    solve factors one there (``lp_core._factor``): once per
    ``VertexStart``, or once per solve from a point."""
    V = np.asarray(V, dtype=float)
    norms = np.linalg.norm(V, axis=0)
    cutoff = TAU_RANK * float(np.max(norms, initial=0.0))
    Q = np.empty((k, V.shape[0]))  # picked directions as rows
    kept: list[int] = []
    for i in np.flatnonzero(norms > cutoff):
        P = Q[: len(kept)]
        w = V[:, i] - (P @ V[:, i]) @ P
        if math.sqrt(w @ w) <= cutoff:  # dependent after one pass already
            continue
        w -= (P @ w) @ P
        nrm = math.sqrt(w @ w)
        if nrm <= cutoff:
            continue
        Q[len(kept)] = w / nrm
        kept.append(int(i))
        if len(kept) == k:
            break
    return np.array(kept, dtype=int)


def append_orthonormal(Q: np.ndarray, v: np.ndarray):
    """Extend orthonormal Q by one column spanning v's residual direction.

    ``_extend`` by one column.  Returns the extended basis, whose first
    columns are Q bitwise; raises ValueError if v is numerically inside
    span(Q) (residual at most TAU_RANK times max(1, ||v||)).
    """
    v = np.asarray(v, dtype=float)
    out = _extend(Q, v[:, None], TAU_RANK * max(1.0, float(np.linalg.norm(v))))
    if out.shape[1] == Q.shape[1]:
        raise ValueError("direction is numerically dependent on current span")
    return out


def complete_basis(Q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(Q) in R^d.

    ``_extend`` of Q over the standard basis vectors e_0, e_1, ... in index
    order, up to d columns in all; a candidate whose residual norm is at
    most COMPLETE_TOL is skipped.  Deterministic; only the new columns are
    returned.
    """
    Q = np.asarray(Q, dtype=float)
    d, r = Q.shape
    full = _extend(Q, np.eye(d), COMPLETE_TOL)
    if full.shape[1] != d:
        raise ValueError("failed to complete orthonormal basis")
    return np.ascontiguousarray(full[:, r:])  # C order: products with a strided view may round differently


def check_orthonormal(Q: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    """True if Q^T Q is the identity to within tol (max abs deviation)."""
    r = Q.shape[1]
    if r == 0:
        return True
    G = Q.T @ Q
    return bool(np.max(np.abs(G - np.eye(r))) <= tol)


def subspace_gap(Q_sub: np.ndarray, Q_sup: np.ndarray) -> float:
    """Sine of the largest principal angle from span(Q_sub) into span(Q_sup).

    Zero means span(Q_sub) is contained in span(Q_sup).  Both arguments must
    have orthonormal columns.
    """
    if Q_sub.shape[1] == 0:
        return 0.0
    R = Q_sub - Q_sup @ (Q_sup.T @ Q_sub)
    return float(np.linalg.norm(R, 2))
