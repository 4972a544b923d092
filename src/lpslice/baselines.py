"""Homogeneous projection baselines sharing the core solver.

Both baselines substitute x = P y, restricting the feasible set to a linear
slice through the origin.  P is a plain d x k array with orthonormal
columns, as both producers build it.  They carry no anchor point, which is
the structural difference the affine compression model exploits; the square
example's right edge cannot sit inside any 1-D homogeneous slice.
"""

from __future__ import annotations

import numpy as np

from .linalg import complete_basis, orthonormal_columns
from .lp_core import Polytope, SolveResult, SolveStatus, solve_lp
from .tolerances import TAU_RANK

__all__ = ["random_projection", "pca_projection", "solve_projected"]


def random_projection(d: int, k: int, seed: int) -> np.ndarray:
    """Gaussian N(0, 1/k) d x k matrix, column-orthonormalized; deterministic in seed."""
    if not (1 <= k <= d):
        raise ValueError("need 1 <= k <= d")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), 0x7A11))))
    G = rng.standard_normal((d, k)) / np.sqrt(k)
    P = orthonormal_columns(G)
    if P.shape[1] != k:
        raise ValueError("random matrix came out rank-deficient")
    return P


def pca_projection(training_solutions, k: int) -> np.ndarray:
    """Top-k right singular directions of the observed-solution matrix, as a d x k array.

    Uncentered: the slice must contain the solutions themselves, not their
    deviations from a mean the substitution cannot represent.  Signs are
    fixed by making each direction's largest-magnitude entry positive; if k
    exceeds the numerical rank, the remaining columns are deterministic
    orthonormal completions.
    """
    X = np.asarray(training_solutions, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("training_solutions must be a nonempty (N, d) array")
    d = X.shape[1]
    if not (1 <= k <= d):
        raise ValueError("need 1 <= k <= d")
    _, svals, Vt = np.linalg.svd(X, full_matrices=False)
    rank = int(np.sum(svals > TAU_RANK * (svals[0] if svals.size else 0.0)))
    take = min(k, rank)
    cols = Vt[:take].T.copy()
    for j in range(take):
        i = int(np.argmax(np.abs(cols[:, j])))
        if cols[i, j] < 0:
            cols[:, j] = -cols[:, j]
    if take < k:
        full = complete_basis(cols if take else np.zeros((d, 0)))
        cols = np.hstack([cols, full[:, : k - take]])
    return cols


def solve_projected(p: Polytope, c: np.ndarray, P: np.ndarray) -> SolveResult:
    """Solve the slice-restricted LP min (P^T c) . y over {A P y <= b}; lift x = P y.

    An infeasible slice is reported as such, never repaired: the caller
    decides how to record a baseline that misses the feasible set.
    """
    c = np.asarray(c, dtype=float)
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != p.d or c.shape != (p.d,):
        raise ValueError("projection/cost dimensions do not match the polytope")
    r = solve_lp(Polytope(p.A @ P, p.b), P.T @ c)
    if r.status is not SolveStatus.OPTIMAL:
        return r
    x = P @ r.x
    return SolveResult(status=SolveStatus.OPTIMAL, value=float(c @ x), x=x, basis_id=r.basis_id, y=r.y)
