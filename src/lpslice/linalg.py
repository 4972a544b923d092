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


def extend(Q: np.ndarray, V: np.ndarray, cutoff: float) -> np.ndarray:
    """Q with more orthonormal columns, grown from V's columns.

    The one Gram-Schmidt loop of the package, with the caller's cutoff:
    V's columns are taken left to right, each made orthogonal to Q and to
    the columns kept before it, and kept unless its residual norm is at
    most ``cutoff`` (or zero).  The first columns of the result are Q
    bitwise, so extending by V[:, :k] and then by the rest gives the bits
    of extending by V at once.  The loop ends once the span has d columns:
    any later residual is rounding noise.  Each kept column makes a fresh
    span, one ``np.concatenate`` of the last span and the column.
    Projecting against a view of one preallocated array instead changes
    the rounding, hence the bits of every basis and model, so the fresh
    array stays.  Returns Q itself when no column is kept.
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

    ``extend`` from an empty basis: columns are processed left to right;
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
    return extend(np.zeros((V.shape[0], 0)), V, cutoff)


def first_independent(V: np.ndarray, k: int) -> np.ndarray:
    """Indices of the first k columns of V, in order, that are independent
    of the columns picked before them: Gram-Schmidt with the default cutoff
    of ``orthonormal_columns``.  Fewer than k when V has rank below k.

    Kept apart from ``extend``: it works on rows and skips a column after
    one pass.  It picks the basis at a degenerate vertex when
    ``lp_core.VertexStart.at`` builds a start there."""
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


def complete_basis(Q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(Q) in R^d.

    ``extend`` of Q over the standard basis vectors e_0, e_1, ... in index
    order, up to d columns in all; a candidate whose residual norm is at
    most COMPLETE_TOL is skipped.  Deterministic; only the new columns are
    returned.
    """
    Q = np.asarray(Q, dtype=float)
    d, r = Q.shape
    full = extend(Q, np.eye(d), COMPLETE_TOL)
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
