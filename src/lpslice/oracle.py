"""Brute-force reference computations for desk-scale polytopes.

Everything in this module is deliberately independent of the simplex path:
vertices come from exhaustive enumeration of row subsets, reachability from
normal-cone feasibility problems, and exactness checks from scanning the
enumerated optimal-face vertices.  These are the cross-checks the fast code
is validated against, so they stay simple and aggressively guarded on size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lp_core import Polytope, SolveStatus, solve_lp
from .linalg import orthonormal_columns
from .tolerances import EPS_FEAS

__all__ = [
    "ScaleError",
    "VertexSet",
    "PriorSpec",
    "prior_spec_from_dict",
    "enumerate_vertices",
    "reachable_vertices",
    "dir_star",
    "exact_check_bruteforce",
]

MAX_DIM = 6
MAX_ROWS = 24

# relative shrink applied to priors so reachability is decided on an open set
EPS_OPEN = 1e-6

# pairwise distance under which two enumerated vertices are the same point
DEDUPE_TOL = 1e-7

# a d-row subset is a vertex candidate when its smallest singular value
# exceeds SINGULAR_TOL * max(1, largest singular value)
SINGULAR_TOL = 1e-10

# rows with |A_j x - b_j| <= ACTIVE_TOL * (1 + |b_j|) are active at vertex x,
# and vertices within FACE_VALUE_TOL * (1 + |v|) of the minimum v are optimal
ACTIVE_TOL = 1e-7
FACE_VALUE_TOL = 1e-7


class ScaleError(ValueError):
    """The instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class VertexSet:
    """Vertices of a polytope with their active row sets, in enumeration order."""

    vertices: np.ndarray  # (k, d)
    active_sets: tuple  # tuple of sorted tuples of row indices

    def __len__(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class PriorSpec:
    """A cost-prior region for reachability: an axis box or a euclidean ball.

    shape "box": lo <= c <= hi componentwise.
    shape "ball": ||c - center|| <= radius.
    """

    shape: str
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.shape == "box":
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            if lo.shape != hi.shape or lo.ndim != 1:
                raise ValueError("box prior needs matching lo/hi vectors")
            if np.any(lo > hi):
                raise ValueError("box prior has lo > hi")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        elif self.shape == "ball":
            center = np.asarray(self.center, dtype=float)
            if center.ndim != 1 or self.radius is None or self.radius <= 0:
                raise ValueError("ball prior needs a center vector and radius > 0")
            object.__setattr__(self, "center", center)
        else:
            raise ValueError("prior shape must be 'box' or 'ball'")

    @property
    def d(self) -> int:
        return (self.lo if self.shape == "box" else self.center).shape[0]


def prior_spec_from_dict(doc: dict) -> PriorSpec:
    """Rebuild a PriorSpec from its metadata dictionary form."""
    shape = doc.get("shape")
    if shape == "box":
        return PriorSpec(shape="box", lo=np.array(doc["lo"], dtype=float), hi=np.array(doc["hi"], dtype=float))
    if shape == "ball":
        return PriorSpec(shape="ball", center=np.array(doc["center"], dtype=float), radius=float(doc["radius"]))
    raise ValueError(f"unknown prior shape {shape!r}")


def _guard(p: Polytope) -> None:
    if p.d > MAX_DIM or p.m > MAX_ROWS:
        raise ScaleError(
            f"enumeration limited to d <= {MAX_DIM}, m <= {MAX_ROWS}; got d={p.d}, m={p.m}"
        )


def enumerate_vertices(p: Polytope) -> VertexSet:
    """All vertices of X by exhausting d-row subsets with invertible submatrix.

    Candidates are kept when feasible to EPS_FEAS * (1 + |b|), the rule of
    ``Polytope.contains``, and deduplicated at pairwise distance DEDUPE_TOL.  Order is deterministic (subset lexicographic,
    first representative wins).
    """
    _guard(p)
    A, b = p.A, p.b
    m, d = A.shape
    if d == 0:
        raise ValueError("enumerate_vertices needs d >= 1")
    idx = np.array(list(combinations(range(m), d)), dtype=int)
    Asub = A[idx]  # (K, d, d)
    svals = np.linalg.svd(Asub, compute_uv=False)
    ok = svals[:, -1] > SINGULAR_TOL * np.maximum(svals[:, 0], 1.0)
    idx = idx[ok]
    if idx.shape[0] == 0:
        return VertexSet(np.zeros((0, d)), ())
    # trailing singleton axis: batched solve needs an explicit vector stack
    xs = np.linalg.solve(A[idx], b[idx][:, :, None])[:, :, 0]
    slack_lim = EPS_FEAS * (1.0 + np.abs(b))
    feas = np.all(xs @ A.T <= b[None, :] + slack_lim[None, :], axis=1)
    xs = xs[feas]

    verts: list[np.ndarray] = []
    for x in xs:
        if any(np.max(np.abs(x - v)) <= DEDUPE_TOL for v in verts):
            continue
        verts.append(x)
    if not verts:
        return VertexSet(np.zeros((0, d)), ())
    V = np.array(verts)
    active = []
    for x in V:
        resid = np.abs(A @ x - b)
        active.append(tuple(int(i) for i in np.flatnonzero(resid <= ACTIVE_TOL * (1.0 + np.abs(b)))))
    return VertexSet(V, tuple(active))


def _box_unit_directions(d: int, n_dirs: int = 64) -> np.ndarray:
    """Deterministic unit directions used to inner-approximate a ball prior."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.Generator(np.random.Philox(key=0x5EED_D1BE))
    G = rng.standard_normal((n_dirs, d))
    return G / np.linalg.norm(G, axis=1, keepdims=True)


def _reachable_one(A_act: np.ndarray, prior: PriorSpec) -> bool:
    """Is there a cost in the (slightly shrunk) prior whose negation lies in
    the normal cone spanned by the active rows?  Decided by one feasibility LP."""
    k, d = A_act.shape
    if prior.shape == "box":
        lo = prior.lo + EPS_OPEN * (1.0 + np.abs(prior.lo))
        hi = prior.hi - EPS_OPEN * (1.0 + np.abs(prior.hi))
        if np.any(lo > hi):
            return False
        # variables: lam >= 0 with lo <= -A_act^T lam <= hi
        G = A_act.T  # (d, k); c = -G lam
        rows = np.vstack([-G, G, -np.eye(k)])
        rhs = np.concatenate([hi, -lo, np.zeros(k)])
        r = solve_lp(Polytope(rows, rhs), np.zeros(k))
        return r.status is SolveStatus.OPTIMAL
    # ball: c constrained to the convex hull of deterministic sphere points
    W = _box_unit_directions(d)  # (n, d)
    n = W.shape[0]
    radius = float(prior.radius) * (1.0 - EPS_OPEN)
    # variables (lam, w): A_act^T lam + radius * W^T w = -center, sum w = 1,
    # all >= 0; equalities written as inequality pairs
    G = np.hstack([A_act.T, radius * W.T])  # d x (k + n)
    ones_w = np.concatenate([np.zeros(k), np.ones(n)])
    rows = np.vstack([G, -G, ones_w[None, :], -ones_w[None, :], -np.eye(k + n)])
    rhs = np.concatenate([-prior.center, prior.center, [1.0], [-1.0], np.zeros(k + n)])
    r = solve_lp(Polytope(rows, rhs), np.zeros(k + n))
    return r.status is SolveStatus.OPTIMAL


def reachable_vertices(p: Polytope, prior: PriorSpec) -> VertexSet:
    """Vertices optimal for at least one cost in the open prior.

    A vertex v is reachable iff some c in the shrunk prior satisfies
    -c in cone(active rows at v); each vertex is decided by one feasibility
    LP (exact for box priors; ball priors use a 64-point inner hull, so tests
    should keep a reachability margin well above the approximation error).
    """
    vs = enumerate_vertices(p)
    if prior.d != p.d:
        raise ValueError("prior dimension does not match polytope")
    keep = [
        i
        for i in range(len(vs))
        if _reachable_one(p.A[list(vs.active_sets[i])], prior)
    ]
    return VertexSet(vs.vertices[keep], tuple(vs.active_sets[i] for i in keep))


def dir_star(p: Polytope, prior: PriorSpec):
    """Span of optimizer differences over the prior, from reachable vertices.

    Returns (orthonormal basis (d x k), k).  Differences are taken against the
    first reachable vertex in enumeration order and orthonormalized with the
    rank cutoff TAU_RANK relative to the largest difference norm.
    """
    vs = reachable_vertices(p, prior)
    if len(vs) <= 1:
        return np.zeros((p.d, 0)), 0
    diffs = (vs.vertices[1:] - vs.vertices[0]).T  # (d, k-1)
    B = orthonormal_columns(diffs)
    return B, B.shape[1]


def exact_check_bruteforce(model, p: Polytope, c: np.ndarray) -> bool:
    """Ground-truth exactness: every optimal-face vertex lies on the model slice.

    The optimal face's vertex set is every enumerated vertex whose value is
    within FACE_VALUE_TOL * (1 + |v|) of the enumerated minimum.  Membership
    is the model's own rule (``compression.in_range``, the containment
    test's): a point is in the slice when it lies within TAU_CONTAIN *
    (1 + ||x0||) of it.  That set is convex, so the face lies in it when its
    vertices do.
    """
    from .compression import in_range

    vs = enumerate_vertices(p)
    if len(vs) == 0:
        raise ValueError("polytope has no vertices to enumerate")
    vals = vs.vertices @ np.asarray(c, dtype=float)
    v = float(vals.min())
    on_face = np.flatnonzero(vals <= v + FACE_VALUE_TOL * (1.0 + abs(v)))
    return all(in_range(model, vs.vertices[i] - model.x0) for i in on_face)
