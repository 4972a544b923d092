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

# Relative rank cutoff: a column whose residual after projection is below
# RANK_TOL times the largest original column norm is treated as dependent.
RANK_TOL = 1e-8

# Orthonormality slack accepted by validation helpers.
ORTHO_TOL = 1e-10


def _project_out(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Remove the span of Q's columns from v, twice for numerical hygiene."""
    if Q.shape[1] == 0:
        return v
    v = v - Q @ (Q.T @ v)
    v = v - Q @ (Q.T @ v)
    return v


def orthonormal_columns(V: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis for the column span of V.

    Columns are processed left to right; near-dependent columns (residual
    norm below ``rank_tol`` times the largest column norm of V) are dropped.
    Deterministic: identical input yields a bitwise identical basis, and the
    basis for V[:, :k] is a bitwise prefix of the basis for V whenever no
    column of the extension is dropped.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected a 2-d array of columns")
    d = V.shape[0]
    if V.shape[1] == 0:
        return np.zeros((d, 0))
    scale = max(float(np.max(np.linalg.norm(V, axis=0))), 0.0)
    cutoff = rank_tol * scale
    cols: list[np.ndarray] = []
    Q = np.zeros((d, 0))
    for k in range(V.shape[1]):
        w = _project_out(Q, V[:, k].copy())
        nrm = float(np.linalg.norm(w))
        if nrm <= cutoff or nrm == 0.0:
            continue
        cols.append(w / nrm)
        Q = np.column_stack(cols)
    return Q if cols else np.zeros((d, 0))


def first_independent(V: np.ndarray, k: int, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Indices of the first k columns of V, in order, that are independent
    of the columns picked before them: Gram-Schmidt with the cutoff of
    ``orthonormal_columns``.  Fewer than k when V has rank below k."""
    V = np.asarray(V, dtype=float)
    norms = np.linalg.norm(V, axis=0)
    cutoff = rank_tol * float(np.max(norms, initial=0.0))
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


def append_orthonormal(Q: np.ndarray, v: np.ndarray, rank_tol: float = RANK_TOL):
    """Extend orthonormal Q by one column spanning v's residual direction.

    Returns the extended basis; raises ValueError if v is numerically inside
    span(Q) (residual below ``rank_tol`` times ||v||).
    """
    v = np.asarray(v, dtype=float)
    w = _project_out(Q, v.copy())
    nrm = float(np.linalg.norm(w))
    if nrm <= rank_tol * max(1.0, float(np.linalg.norm(v))):
        raise ValueError("direction is numerically dependent on current span")
    return np.column_stack([Q, w / nrm])


def complete_basis(Q: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(Q) in R^d.

    Candidate directions are the standard basis vectors e_0, e_1, ... taken
    in index order; near-dependent candidates are skipped.  Deterministic.
    """
    Q = np.asarray(Q, dtype=float)
    d = Q.shape[0]
    want = d - Q.shape[1]
    cols: list[np.ndarray] = []
    cur = Q
    for i in range(d):
        if len(cols) == want:
            break
        e = np.zeros(d)
        e[i] = 1.0
        w = _project_out(cur, e)
        nrm = float(np.linalg.norm(w))
        if nrm <= max(rank_tol, 1e-7):
            continue
        cols.append(w / nrm)
        cur = np.column_stack([Q] + cols)
    if len(cols) != want:
        raise ValueError("failed to complete orthonormal basis")
    return np.column_stack(cols) if cols else np.zeros((d, 0))


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
