"""Instance families, cost models, presets, and MPS ingestion.

Synthetic families (block packing, DAG max-flow, unit min-cost flow, grid
shortest path, random bounded LPs) are generated deterministically from a
seed and wrapped with an additive factor cost model around a nominal cost
c0.  External problems arrive as MPS files and are normalized to
inequality form before getting a cost model attached.

Randomness is counter-based (Philox keyed by (seed, stream, ...)) so that
parallel workers reproduce identical streams and so that cost sample i
never depends on how many samples were requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .linalg import check_orthonormal, orthonormal_columns
from .lp_core import (
    FeasibilityStatus,
    GeneralLP,
    Polytope,
    check_feasible_bounded,
    load_json,
    normalize_to_inequality_form,
    polytope_from_json,
    polytope_to_json,
)
from .tolerances import FACTOR_ORTHO_TOL, NORM_TOL

__all__ = [
    "CostMode",
    "CostModel",
    "Instance",
    "GenerationError",
    "ParseError",
    "UnsupportedFeature",
    "STREAM_STRUCT",
    "STREAM_COSTMODEL",
    "STREAM_COSTS",
    "STREAM_PILOT",
    "STREAM_TEST",
    "rng_for",
    "gen_instance",
    "make_preset",
    "sample_costs",
    "cost_stream",
    "parse_mps",
    "load_instance",
    "instance_to_json",
    "instance_from_json",
    "PRESETS",
    "NETLIB_COST_PRESETS",
]


class GenerationError(RuntimeError):
    """Seeded construction produced an unusable (infeasible/unbounded) instance."""


class ParseError(ValueError):
    """Malformed MPS input; the message carries the 1-based line number."""


class UnsupportedFeature(ValueError):
    """Well-formed MPS input using a feature outside the supported subset."""


# stream ids for the counter-based generator; fixed so that every consumer
# of a (master seed, purpose) pair sees the same draws regardless of order
STREAM_STRUCT = 0
STREAM_COSTMODEL = 1
STREAM_COSTS = 2
STREAM_PILOT = 3
STREAM_TEST = 4

# feasibility/boundedness is verified after generation only up to this
# dimension; larger presets are feasible and bounded by construction
CHECK_DIM_LIMIT = 40


def rng_for(seed: int, stream: int, index: int | None = None) -> np.random.Generator:
    """Philox generator keyed by (seed, stream[, index])."""
    ent = (int(seed), int(stream)) if index is None else (int(seed), int(stream), int(index))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(ent)))


class CostMode(Enum):
    KNOWN_CLIPPED = "known_clipped"
    UNKNOWN_FACTOR = "unknown_factor"
    UNKNOWN_AMBIENT = "unknown_ambient"


@dataclass(frozen=True)
class CostModel:
    """Additive factor model c = c0 + U_c @ (sigmas * z), with mode variants.

    known_clipped additionally clips radially to ||c - c0|| <= clip_radius;
    unknown_factor scales sigmas by eta and does not clip; unknown_ambient
    ignores U_c/sigmas and adds eta * g with g standard normal in every
    coordinate.  sigmas may contain zeros (degenerate factors are legal and
    give constant samples); clip_radius = 0 pins every sample to c0.
    """

    mode: CostMode
    U_c: np.ndarray | None = None
    sigmas: np.ndarray | None = None
    clip_radius: float | None = None
    eta: float = 1.0

    def __post_init__(self):
        if not isinstance(self.mode, CostMode):
            object.__setattr__(self, "mode", CostMode(self.mode))
        if self.mode is not CostMode.UNKNOWN_AMBIENT:
            if self.U_c is None or self.sigmas is None:
                raise ValueError("factor modes need U_c and sigmas")
            U = np.asarray(self.U_c, dtype=float)
            s = np.asarray(self.sigmas, dtype=float)
            if U.ndim != 2 or U.shape[1] > U.shape[0]:
                raise ValueError("U_c must be d x r_c with r_c <= d")
            if not check_orthonormal(U, tol=FACTOR_ORTHO_TOL):
                raise ValueError("U_c columns must be orthonormal")
            if s.shape != (U.shape[1],) or np.any(s < 0) or not np.all(np.isfinite(s)):
                raise ValueError("sigmas must be nonnegative, one per factor")
            object.__setattr__(self, "U_c", U)
            object.__setattr__(self, "sigmas", s)
        if self.mode is CostMode.KNOWN_CLIPPED:
            if self.clip_radius is None or not (self.clip_radius >= 0):
                raise ValueError("known_clipped needs clip_radius >= 0")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive")

    @property
    def r_c(self) -> int:
        return 0 if self.U_c is None else self.U_c.shape[1]


@dataclass(frozen=True)
class Instance:
    """A polytope with its nominal cost and cost distribution."""

    polytope: Polytope
    c0: np.ndarray
    cost_model: CostModel
    name: str = ""
    kind: str = ""
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        c0 = np.asarray(self.c0, dtype=float)
        if c0.shape != (self.polytope.d,) or not np.all(np.isfinite(c0)):
            raise ValueError("c0 must be a finite vector of length d")
        c0 = c0.copy()
        c0.flags.writeable = False
        object.__setattr__(self, "c0", c0)
        cm = self.cost_model
        if cm.U_c is not None and cm.U_c.shape[0] != self.polytope.d:
            raise ValueError("U_c row count must match the polytope dimension")

    @property
    def d(self) -> int:
        return self.polytope.d


# ---------------------------------------------------------------------------
# nominal-cost sampling
# ---------------------------------------------------------------------------


def _sample_c0(rng: np.random.Generator, d: int, lo: float, hi: float, target: float | None) -> np.ndarray:
    """Uniform coordinates on [lo, hi], steered to an exact Euclidean norm.

    The steering moves the raw sample along the segment toward the
    minimum-norm (or maximum-norm) corner of the box until ||c0|| hits the
    target; both endpoints lie in the box, so the coordinate range is
    preserved.  For ranges containing 0 this reduces to plain rescaling.
    """
    if not (lo < hi):
        raise GenerationError("c0 range must satisfy lo < hi")
    u = rng.uniform(lo, hi, size=d)
    if target is None:
        return u
    if target < 0:
        raise GenerationError("target norm must be nonnegative")
    if lo <= 0.0 <= hi:
        near = np.zeros(d)
    else:
        near = np.full(d, hi if hi < 0 else lo)
    far = np.full(d, lo if abs(lo) >= abs(hi) else hi)
    nu = float(np.linalg.norm(u))
    if nu >= target:
        a, v = near, u - near
        if float(np.linalg.norm(near)) > target:
            raise GenerationError("target norm below the minimum attainable on the range")
    else:
        a, v = u, far - u
        if float(np.linalg.norm(far)) < target:
            raise GenerationError("target norm above the maximum attainable on the range")
    cc = float(v @ v)
    if cc <= 0.0:
        raise GenerationError("degenerate c0 sample")
    bb = 2.0 * float(a @ v)
    aa = float(a @ a) - target * target
    disc = bb * bb - 4.0 * cc * aa
    if disc < 0.0:
        raise GenerationError("no norm-matching point on the sampling segment")
    s = (-bb + math.sqrt(disc)) / (2.0 * cc)
    s = min(1.0, max(0.0, s))
    c0 = a + s * v
    if abs(float(np.linalg.norm(c0)) - target) > NORM_TOL * (1.0 + target):
        raise GenerationError("norm steering failed to converge")
    return c0


def _build_cost_model(cost_cfg: dict, d: int, rng: np.random.Generator):
    """Realize a CostModel (and c0, prior metadata) from a preset cost config."""
    cfg = dict(cost_cfg)
    mode = CostMode(cfg.get("mode", "known_clipped"))

    if "c0" in cfg:
        c0 = np.asarray(cfg["c0"], dtype=float)
        if c0.shape != (d,):
            raise GenerationError("explicit c0 has the wrong length")
    else:
        lo, hi = cfg["c0_range"]
        c0 = _sample_c0(rng, d, float(lo), float(hi), cfg.get("c0_norm"))

    if mode is CostMode.UNKNOWN_AMBIENT:
        model = CostModel(mode=mode, eta=float(cfg.get("eta", 1.0)))
    else:
        if cfg.get("U_c") == "identity":
            U_c = np.eye(d)
        else:
            r_c = int(cfg["r_c"])
            if not (1 <= r_c <= d):
                raise GenerationError("r_c must lie in [1, d]")
            U_c = orthonormal_columns(rng.standard_normal((d, r_c)))
            if U_c.shape[1] != r_c:
                raise GenerationError("cost-variation subspace came out rank-deficient")
        if "sigmas" in cfg:
            sigmas = np.asarray(cfg["sigmas"], dtype=float)
        else:
            alpha, beta, R = float(cfg["alpha"]), float(cfg["beta"]), float(cfg["R"])
            sigmas = alpha * R * beta ** np.arange(U_c.shape[1], dtype=float)
        model = CostModel(
            mode=mode,
            U_c=U_c,
            sigmas=sigmas,
            clip_radius=float(cfg["R"]) if mode is CostMode.KNOWN_CLIPPED else None,
            eta=float(cfg.get("eta", 1.0)),
        )

    if "prior" in cfg:
        prior_meta = dict(cfg["prior"])
    elif "R_C" in cfg:
        prior_meta = {"shape": "ball", "center": [float(v) for v in c0], "radius": float(cfg["R_C"])}
    else:
        prior_meta = None
    return model, c0, prior_meta


# ---------------------------------------------------------------------------
# polytope generators
# ---------------------------------------------------------------------------


def _box_rows(d: int, lo: np.ndarray, hi: np.ndarray):
    rows, rhs = [], []
    I = np.eye(d)
    for j in range(d):
        rows.append(I[j])
        rhs.append(float(hi[j]))
        rows.append(-I[j])
        rhs.append(float(-lo[j]))
    return rows, rhs


def _gen_square(params: dict, rng: np.random.Generator) -> Polytope:
    half = float(params.get("half_width", 1.0))
    d = int(params.get("d", 2))
    rows, rhs = _box_rows(d, np.full(d, -half), np.full(d, half))
    return Polytope(np.array(rows), np.array(rhs), meta={})


def _gen_packing(params: dict, rng: np.random.Generator) -> Polytope:
    blocks, bs = int(params["blocks"]), int(params["block_size"])
    d = blocks * bs
    rows, rhs = [], []
    for b in range(blocks):
        coeffs = rng.uniform(0.1, 1.0, bs)
        row = np.zeros(d)
        row[b * bs : (b + 1) * bs] = coeffs
        rows.append(row)
        rhs.append(float(rng.uniform(0.25, 0.75) * coeffs.sum()))
    brows, brhs = _box_rows(d, np.zeros(d), np.ones(d))
    return Polytope(np.array(rows + brows), np.array(rhs + brhs), meta={})


def _dag_arcs(nodes: int, arcs: int, rng: np.random.Generator):
    """Forward arcs on 0..nodes-1 including the full chain, in draw order."""
    if arcs < nodes - 1:
        raise GenerationError("need at least nodes-1 arcs for the chain path")
    out = [(i, i + 1) for i in range(nodes - 1)]
    seen = set(out)
    attempts = 0
    while len(out) < arcs:
        attempts += 1
        if attempts > 200 * arcs:
            raise GenerationError("could not place the requested number of distinct arcs")
        u = int(rng.integers(0, nodes - 1))
        v = int(rng.integers(u + 1, nodes))
        if (u, v) not in seen:
            seen.add((u, v))
            out.append((u, v))
    return out


def _conservation_rows(n_nodes: int, arcs, supplies: np.ndarray, which: list):
    """Equality pairs 'flow out - flow in = supply' for the listed nodes."""
    d = len(arcs)
    rows, rhs = [], []
    for v in which:
        row = np.zeros(d)
        for a, (i, j) in enumerate(arcs):
            if i == v:
                row[a] += 1.0
            if j == v:
                row[a] -= 1.0
        rows.append(row.copy())
        rhs.append(float(supplies[v]))
        rows.append(-row)
        rhs.append(float(-supplies[v]))
    return rows, rhs


def _gen_maxflow(params: dict, rng: np.random.Generator) -> Polytope:
    nodes, arcs_n = int(params["nodes"]), int(params["arcs"])
    arcs = _dag_arcs(nodes, arcs_n, rng)
    caps = rng.uniform(1.0, 4.0, arcs_n)
    supplies = np.zeros(nodes)
    rows, rhs = _conservation_rows(nodes, arcs, supplies, list(range(1, nodes - 1)))
    brows, brhs = _box_rows(arcs_n, np.zeros(arcs_n), caps)
    return Polytope(np.array(rows + brows), np.array(rhs + brhs), meta={"arcs": [list(a) for a in arcs]})


def _gen_mincostflow(params: dict, rng: np.random.Generator) -> Polytope:
    nodes, arcs_n = int(params["nodes"]), int(params["arcs"])
    arcs = _dag_arcs(nodes, arcs_n, rng)
    supplies = np.zeros(nodes)
    supplies[0] = 1.0
    supplies[nodes - 1] = -1.0
    rows, rhs = _conservation_rows(nodes, arcs, supplies, list(range(nodes)))
    brows, brhs = _box_rows(arcs_n, np.zeros(arcs_n), np.ones(arcs_n))
    return Polytope(np.array(rows + brows), np.array(rhs + brhs), meta={"arcs": [list(a) for a in arcs]})


def _gen_shortestpathgrid(params: dict, rng: np.random.Generator) -> Polytope:
    R, C = int(params["rows"]), int(params["cols"])
    node = lambda i, j: i * C + j
    arcs = []
    for i in range(R):
        for j in range(C):
            if j < C - 1:
                arcs.append((node(i, j), node(i, j + 1)))
            if i < R - 1:
                arcs.append((node(i, j), node(i + 1, j)))
    d = len(arcs)
    supplies = np.zeros(R * C)
    supplies[node(0, 0)] = 1.0
    supplies[node(R - 1, C - 1)] = -1.0
    rows, rhs = _conservation_rows(R * C, arcs, supplies, list(range(R * C)))
    brows, brhs = _box_rows(d, np.zeros(d), np.ones(d))
    return Polytope(np.array(rows + brows), np.array(rhs + brhs), meta={"arcs": [list(a) for a in arcs]})


def _gen_randomlp(params: dict, rng: np.random.Generator) -> Polytope:
    d, m_rows = int(params["d"]), int(params["rows"])
    xbar = rng.standard_normal(d)
    A = rng.standard_normal((m_rows, d))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = A @ xbar + rng.uniform(0.1, 1.0, m_rows)
    L = float(np.max(np.abs(xbar))) + 2.0
    brows, brhs = _box_rows(d, np.full(d, -L), np.full(d, L))
    return Polytope(np.vstack([A, np.array(brows)]), np.concatenate([b, np.array(brhs)]), meta={})


_GENERATORS = {
    "square": _gen_square,
    "packing": _gen_packing,
    "maxflow": _gen_maxflow,
    "mincostflow": _gen_mincostflow,
    "shortestpathgrid": _gen_shortestpathgrid,
    "randomlp": _gen_randomlp,
}


def gen_instance(kind: str, params: dict, seed: int) -> Instance:
    """Deterministically build an Instance of the given family.

    Structure and cost model use separate RNG streams of the same seed, so
    changing only cost parameters never perturbs the polytope.
    """
    if kind not in _GENERATORS:
        raise GenerationError(f"unknown instance kind {kind!r}")
    poly = _GENERATORS[kind](params, rng_for(seed, STREAM_STRUCT))
    model, c0, prior_meta = _build_cost_model(params["cost"], poly.d, rng_for(seed, STREAM_COSTMODEL))

    meta = dict(poly.meta)
    meta["kind"] = kind
    if prior_meta is not None:
        meta["prior"] = prior_meta
    poly = Polytope(poly.A, poly.b, meta=meta)

    if poly.d <= CHECK_DIM_LIMIT or params.get("check", False):
        fb = check_feasible_bounded(poly)
        if fb is not FeasibilityStatus.FEASIBLE_BOUNDED:
            raise GenerationError(f"generated polytope is {fb.value}; reseed and regenerate")

    name = params.get("name", f"{kind}-{seed}")
    return Instance(
        polytope=poly,
        c0=c0,
        cost_model=model,
        name=name,
        kind=kind,
        provenance={"seed": int(seed), "params": {k: v for k, v in params.items() if k != "name"}},
    )


# ---------------------------------------------------------------------------
# cost sampling
# ---------------------------------------------------------------------------


def _cost_block(inst: Instance, rng: np.random.Generator, n: int) -> np.ndarray:
    """Map a block of standard normals to costs. Consumes exactly n * width draws."""
    cm = inst.cost_model
    if cm.mode is CostMode.UNKNOWN_AMBIENT:
        return inst.c0 + cm.eta * rng.standard_normal((n, inst.d))
    Z = rng.standard_normal((n, cm.r_c))
    scale_sig = cm.sigmas if cm.mode is CostMode.KNOWN_CLIPPED else cm.eta * cm.sigmas
    W = (Z * scale_sig) @ cm.U_c.T
    if cm.mode is CostMode.KNOWN_CLIPPED:
        norms = np.linalg.norm(W, axis=1)
        shrink = np.where(norms > cm.clip_radius, np.divide(cm.clip_radius, norms, out=np.ones_like(norms), where=norms > 0), 1.0)
        W = W * shrink[:, None]
    return inst.c0 + W


def sample_costs(inst: Instance, n: int, seed: int, start: int = 0, stream: int = STREAM_COSTS) -> np.ndarray:
    """n cost draws for indices start..start+n-1, shape (n, d).

    Prefix-stable: sample_costs(inst, n, seed)[:k] equals
    sample_costs(inst, k, seed) for k <= n, and cost_stream yields the same
    sequence one vector at a time.  ``stream`` separates disjoint sampling
    purposes (training vs. pilot vs. test) under one master seed.
    """
    if n < 0 or start < 0:
        raise ValueError("n and start must be nonnegative")
    rng = rng_for(seed, stream)
    if start:
        _cost_block(inst, rng, start)
    if n == 0:
        return np.zeros((0, inst.d))
    return _cost_block(inst, rng, n)


def cost_stream(inst: Instance, seed: int, chunk: int = 256, stream: int = STREAM_COSTS):
    """Infinite generator over the same sequence sample_costs indexes into."""
    rng = rng_for(seed, stream)
    while True:
        for c in _cost_block(inst, rng, chunk):
            yield c


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_AB_DEFAULT = {"alpha": 0.70, "beta": 0.82}

PRESETS: dict = {
    # the two-variable box with a one-dimensional optimal edge; its prior is
    # the open box (-1.5,-1) x (-1,1) and the clipped factor model stays
    # strictly inside it
    "example1": {
        "kind": "square",
        "params": {
            "d": 2,
            "half_width": 1.0,
            "cost": {
                "mode": "known_clipped",
                "c0": [-1.25, 0.0],
                "U_c": "identity",
                "sigmas": [0.08, 0.15],
                "R": 0.2,
                "prior": {"shape": "box", "lo": [-1.5, -1.0], "hi": [-1.0, 1.0]},
            },
        },
    },
    "packing-360": {
        "kind": "packing",
        "params": {
            "blocks": 24,
            "block_size": 15,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-4.069, 0.0],
                "c0_norm": 42.344,
                "r_c": 28,
                "alpha": 0.92,
                "beta": 0.94,
                "R": 1.524,
                "R_C": 1.694,
            },
        },
    },
    "maxflow-300": {
        "kind": "maxflow",
        "params": {
            "nodes": 60,
            "arcs": 300,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-3.239, 0.0],
                "c0_norm": 22.212,
                "r_c": 12,
                "alpha": 0.95,
                "beta": 1.00,
                "R": 1.15e-3,
                "R_C": 1.28e-3,
            },
        },
    },
    "mincostflow-360": {
        "kind": "mincostflow",
        "params": {
            "nodes": 72,
            "arcs": 360,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-464.800, -4.960],
                "c0_norm": 3228.138,
                "r_c": 28,
                "alpha": 0.72,
                "beta": 0.94,
                "R": 3.492,
                "R_C": 3.968,
            },
        },
    },
    "grid-16": {
        "kind": "shortestpathgrid",
        "params": {
            "rows": 16,
            "cols": 16,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-95.0, -3.0],
                "c0_norm": 1449.364,
                "r_c": 16,
                "R": 4.49e-2,
                "R_C": 4.72e-2,
                **_AB_DEFAULT,
            },
        },
    },
    "randomlp-a": {
        "kind": "randomlp",
        "params": {
            "d": 140,
            "rows": 140,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-2.597, 2.634],
                "c0_norm": 10.763,
                "r_c": 24,
                "R": 2.64e-3,
                "R_C": 2.87e-3,
                **_AB_DEFAULT,
            },
        },
    },
    "randomlp-b": {
        "kind": "randomlp",
        "params": {
            "d": 180,
            "rows": 180,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-2.187, 3.226],
                "c0_norm": 13.100,
                "r_c": 26,
                "R": 7.26e-3,
                "R_C": 8.07e-3,
                **_AB_DEFAULT,
            },
        },
    },
    "randomlp-c": {
        "kind": "randomlp",
        "params": {
            "d": 220,
            "rows": 220,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-3.053, 2.842],
                "c0_norm": 14.803,
                "r_c": 28,
                "R": 1.89e-3,
                "R_C": 2.15e-3,
                **_AB_DEFAULT,
            },
        },
    },
    "randomlp-d": {
        "kind": "randomlp",
        "params": {
            "d": 260,
            "rows": 260,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-2.350, 2.154],
                "c0_norm": 16.075,
                "r_c": 30,
                "R": 2.06e-3,
                "R_C": 2.40e-3,
                **_AB_DEFAULT,
            },
        },
    },
    # desk-scale variants: same constructions, small enough for vertex
    # enumeration oracles and the full feasibility check
    "packing-small": {
        "kind": "packing",
        "params": {
            "blocks": 3,
            "block_size": 4,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-2.0, 0.0],
                "r_c": 3,
                "alpha": 0.92,
                "beta": 0.94,
                "R": 0.5,
                "R_C": 0.6,
            },
        },
    },
    "maxflow-small": {
        "kind": "maxflow",
        "params": {
            "nodes": 8,
            "arcs": 14,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-3.0, 0.0],
                "r_c": 3,
                "R": 0.3,
                "R_C": 0.35,
                **_AB_DEFAULT,
            },
        },
    },
    "mincostflow-small": {
        "kind": "mincostflow",
        "params": {
            "nodes": 6,
            "arcs": 9,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-9.0, -1.0],
                "r_c": 3,
                "R": 0.4,
                "R_C": 0.5,
                **_AB_DEFAULT,
            },
        },
    },
    "grid-4": {
        "kind": "shortestpathgrid",
        "params": {
            "rows": 4,
            "cols": 4,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-9.0, -1.0],
                "r_c": 4,
                "R": 0.25,
                "R_C": 0.3,
                **_AB_DEFAULT,
            },
        },
    },
    "randomlp-tiny": {
        "kind": "randomlp",
        "params": {
            "d": 3,
            "rows": 6,
            "cost": {
                "mode": "known_clipped",
                "c0_range": [-1.0, 1.0],
                "r_c": 2,
                "R": 0.3,
                "R_C": 0.35,
                **_AB_DEFAULT,
            },
        },
    },
}

# cost-model configurations for the external MPS benchmarks; the files
# themselves are user-supplied, these carry the published constants
NETLIB_COST_PRESETS: dict = {
    "grow7": {"d": 301, "r_c": 20, "c0_norm": 20.445, "c0_range": [-7.0, 0.0], "R": 1.16e-2, "R_C": 1.26e-2, **_AB_DEFAULT},
    "sc205": {"d": 203, "r_c": 20, "c0_norm": 1.0, "c0_range": [-1.0, 0.0], "R": 3.58e-4, "R_C": 3.89e-4, **_AB_DEFAULT},
    "scagr25": {"d": 500, "r_c": 24, "c0_norm": 4375.781, "c0_range": [-662.0, 54.9], "R": 4.42e-2, "R_C": 4.80e-2, **_AB_DEFAULT},
    "stair": {"d": 473, "r_c": 10, "c0_norm": 1.0, "c0_range": [-1.0, 0.0], "R": 1.63e-6, "R_C": 8.14e-5, **_AB_DEFAULT},
}


def make_preset(name: str, seed: int = 0) -> Instance:
    """Instantiate a named preset; the preset fixes everything but the seed."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    spec = PRESETS[name]
    import copy

    params = copy.deepcopy(spec["params"])
    params.setdefault("name", f"{name}-s{seed}")
    return gen_instance(spec["kind"], params, seed)


# ---------------------------------------------------------------------------
# MPS ingestion
# ---------------------------------------------------------------------------

_MPS_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_BOUND_TYPES_VALUE = {"UP", "LO", "FX"}
_BOUND_TYPES_FLAG = {"FR", "MI", "PL"}
_BOUND_TYPES_INTEGER = {"BV", "UI", "LI"}


def _mps_num(tok: str, ln: int) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"line {ln}: expected a number, got {tok!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"line {ln}: non-finite value {tok!r}")
    return v


def parse_mps(text: str) -> GeneralLP:
    """Parse fixed-or-free format MPS into a GeneralLP (minimization).

    Supported sections: NAME, ROWS, COLUMNS, RHS, RANGES, BOUNDS, ENDATA.
    The first N row is the objective; later N rows are free rows and are
    ignored.  Integer markers and integer bound types are rejected as
    UnsupportedFeature, as is any section outside the list (SOS, OBJSENSE,
    ...).  Only the first RHS/RANGES/BOUNDS set name encountered is read.
    An RHS entry on the objective row sets the objective constant to the
    negated value.  Ranges widen a row to an interval realized as a second
    inequality row named '<row>__rng'.
    """
    row_types: list[str] = []
    row_names: list[str] = []
    row_index: dict[str, int] = {}
    obj_name: str | None = None
    obj_coeffs: dict[str, float] = {}
    col_order: list[str] = []
    col_entries: dict[str, list] = {}
    rhs_vals: dict[int, float] = {}
    range_vals: dict[int, float] = {}
    obj_constant = 0.0
    bounds: dict[str, dict] = {}
    rhs_set = ranges_set = bounds_set = None
    problem_name = ""

    section = None
    saw_endata = False

    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        toks = raw.split()
        if is_header:
            head = toks[0].upper()
            if head == "ENDATA":
                saw_endata = True
                break
            if head not in _MPS_SECTIONS:
                raise UnsupportedFeature(f"line {ln}: section {head!r} is not supported")
            if head == "NAME":
                problem_name = toks[1] if len(toks) > 1 else ""
                continue
            section = head
            continue

        if section is None:
            raise ParseError(f"line {ln}: data before any section header")

        if section == "ROWS":
            if len(toks) != 2:
                raise ParseError(f"line {ln}: ROWS entries are 'type name'")
            rtype, rname = toks[0].upper(), toks[1]
            if rtype not in ("N", "L", "G", "E"):
                raise ParseError(f"line {ln}: unknown row type {rtype!r}")
            if rname in row_index or rname == obj_name:
                raise ParseError(f"line {ln}: duplicate row name {rname!r}")
            if rtype == "N":
                if obj_name is None:
                    obj_name = rname
                # later N rows are free rows; legal, not used
                continue
            row_index[rname] = len(row_names)
            row_names.append(rname)
            row_types.append(rtype)

        elif section == "COLUMNS":
            if len(toks) >= 3 and toks[1].upper() == "'MARKER'":
                raise UnsupportedFeature(f"line {ln}: integer markers are not supported")
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise ParseError(f"line {ln}: COLUMNS entries are 'col row val [row val]'")
            col = toks[0]
            if col not in col_entries:
                col_entries[col] = []
                col_order.append(col)
            for i in range(1, len(toks), 2):
                rname, val = toks[i], _mps_num(toks[i + 1], ln)
                if rname == obj_name:
                    obj_coeffs[col] = obj_coeffs.get(col, 0.0) + val
                elif rname in row_index:
                    col_entries[col].append((row_index[rname], val))
                else:
                    raise ParseError(f"line {ln}: unknown row {rname!r}")

        elif section in ("RHS", "RANGES"):
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise ParseError(f"line {ln}: {section} entries are 'set row val [row val]'")
            sname = toks[0]
            if section == "RHS":
                if rhs_set is None:
                    rhs_set = sname
                elif sname != rhs_set:
                    continue
            else:
                if ranges_set is None:
                    ranges_set = sname
                elif sname != ranges_set:
                    continue
            for i in range(1, len(toks), 2):
                rname, val = toks[i], _mps_num(toks[i + 1], ln)
                if rname == obj_name:
                    if section == "RANGES":
                        raise ParseError(f"line {ln}: range on the objective row")
                    obj_constant = -val
                elif rname in row_index:
                    target = rhs_vals if section == "RHS" else range_vals
                    target[row_index[rname]] = val
                else:
                    raise ParseError(f"line {ln}: unknown row {rname!r}")

        elif section == "BOUNDS":
            btype = toks[0].upper()
            if btype in _BOUND_TYPES_INTEGER:
                raise UnsupportedFeature(f"line {ln}: integer bound type {btype!r}")
            if btype in _BOUND_TYPES_VALUE:
                if len(toks) != 4:
                    raise ParseError(f"line {ln}: bound entries are 'type set col value'")
            elif btype in _BOUND_TYPES_FLAG:
                if len(toks) not in (3, 4):
                    raise ParseError(f"line {ln}: bound entries are 'type set col [value]'")
            else:
                raise ParseError(f"line {ln}: unknown bound type {btype!r}")
            sname, col = toks[1], toks[2]
            if bounds_set is None:
                bounds_set = sname
            elif sname != bounds_set:
                continue
            if col not in col_entries and col not in obj_coeffs:
                raise ParseError(f"line {ln}: bound on unknown column {col!r}")
            rec = bounds.setdefault(col, {"lo": 0.0, "hi": math.inf, "explicit_lo": False})
            if btype == "UP":
                rec["hi"] = _mps_num(toks[3], ln)
                # classic convention: a negative upper bound with no explicit
                # lower bound frees the variable below
                if rec["hi"] < 0.0 and not rec["explicit_lo"]:
                    rec["lo"] = -math.inf
            elif btype == "LO":
                rec["lo"] = _mps_num(toks[3], ln)
                rec["explicit_lo"] = True
            elif btype == "FX":
                v = _mps_num(toks[3], ln)
                rec["lo"] = rec["hi"] = v
                rec["explicit_lo"] = True
            elif btype == "FR":
                rec["lo"], rec["hi"] = -math.inf, math.inf
                rec["explicit_lo"] = True
            elif btype == "MI":
                rec["lo"] = -math.inf
                rec["explicit_lo"] = True
            elif btype == "PL":
                rec["hi"] = math.inf
        else:
            raise ParseError(f"line {ln}: data in unsupported context")

    if not saw_endata:
        raise ParseError(f"line {len(lines)}: missing ENDATA")
    if obj_name is None:
        raise ParseError("no objective (N) row declared")
    if not col_order:
        raise ParseError("no columns declared")

    n_rows, n_cols = len(row_names), len(col_order)
    A = np.zeros((n_rows, n_cols))
    c = np.zeros(n_cols)
    for j, col in enumerate(col_order):
        c[j] = obj_coeffs.get(col, 0.0)
        for i, val in col_entries[col]:
            A[i, j] += val

    rel_map = {"L": "<=", "G": ">=", "E": "="}
    rel = [rel_map[t] for t in row_types]
    rhs = np.array([rhs_vals.get(i, 0.0) for i in range(n_rows)])

    # realize RANGES as extra inequality rows bracketing the base row
    extra_rows, extra_rel, extra_rhs, extra_names = [], [], [], []
    for i, r in sorted(range_vals.items()):
        b = rhs[i]
        t = row_types[i]
        if t == "L":
            lo_i, hi_i = b - abs(r), b
        elif t == "G":
            lo_i, hi_i = b, b + abs(r)
        else:
            lo_i, hi_i = (b, b + r) if r >= 0 else (b + r, b)
        if lo_i == hi_i:
            continue
        if t == "E":
            # the equality becomes the upper side; the extra row is the lower
            rel[i] = "<="
            rhs[i] = hi_i
            extra_rel.append(">=")
            extra_rhs.append(lo_i)
        elif t == "L":
            extra_rel.append(">=")
            extra_rhs.append(lo_i)
        else:
            extra_rel.append("<=")
            extra_rhs.append(hi_i)
        extra_rows.append(A[i].copy())
        extra_names.append(row_names[i] + "__rng")

    if extra_rows:
        A = np.vstack([A, np.array(extra_rows)])
        rel = rel + extra_rel
        rhs = np.concatenate([rhs, np.array(extra_rhs)])
        row_names = row_names + extra_names

    lo = np.zeros(n_cols)
    hi = np.full(n_cols, math.inf)
    for j, col in enumerate(col_order):
        if col in bounds:
            lo[j] = bounds[col]["lo"]
            hi[j] = bounds[col]["hi"]

    return GeneralLP(
        sense="min",
        c=c,
        A=A,
        rel=tuple(rel),
        rhs=rhs,
        lo=lo,
        hi=hi,
        name=problem_name,
        row_names=tuple(row_names),
        col_names=tuple(col_order),
        obj_constant=obj_constant,
    )


# ---------------------------------------------------------------------------
# loading and serialization
# ---------------------------------------------------------------------------


def cost_model_to_json(cm: CostModel) -> dict:
    return {
        "mode": cm.mode.value,
        "U_c": None if cm.U_c is None else [[float(v) for v in cm.U_c[:, j]] for j in range(cm.U_c.shape[1])],
        "sigmas": None if cm.sigmas is None else [float(v) for v in cm.sigmas],
        "clip_radius": None if cm.clip_radius is None else float(cm.clip_radius),
        "eta": float(cm.eta),
    }


def cost_model_from_json(doc: dict) -> CostModel:
    U_c = None if doc["U_c"] is None else np.array(doc["U_c"], dtype=float).T
    sig = None if doc["sigmas"] is None else np.array(doc["sigmas"], dtype=float)
    return CostModel(
        mode=CostMode(doc["mode"]),
        U_c=U_c,
        sigmas=sig,
        clip_radius=doc.get("clip_radius"),
        eta=float(doc.get("eta", 1.0)),
    )


def instance_to_json(inst: Instance) -> dict:
    return {
        "schema": 1,
        "type": "instance",
        "name": inst.name,
        "kind": inst.kind,
        "polytope": polytope_to_json(inst.polytope),
        "c0": [float(v) for v in inst.c0],
        "cost_model": cost_model_to_json(inst.cost_model),
        "provenance": inst.provenance,
    }


def instance_from_json(doc: dict) -> Instance:
    if doc.get("schema") != 1 or doc.get("type") != "instance":
        raise ValueError("not a schema-1 instance document")
    return Instance(
        polytope=polytope_from_json(doc["polytope"]),
        c0=np.array(doc["c0"], dtype=float),
        cost_model=cost_model_from_json(doc["cost_model"]),
        name=doc.get("name", ""),
        kind=doc.get("kind", ""),
        provenance=dict(doc.get("provenance", {})),
    )


def load_instance(path, cost_config: dict | None = None) -> Instance:
    """Load a schema-1 JSON instance, or an MPS file plus a cost config.

    MPS problems are normalized to inequality form; the normalized cost
    vector becomes c0 (coefficients are unchanged by the bound shift).  The
    cost config supplies {seed, r_c, alpha, beta, R, R_C, mode, eta} and may
    name a stored benchmark preset via {"preset": ...}.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return instance_from_json(load_json(path))
    if path.suffix.lower() != ".mps":
        raise ValueError(f"cannot load {path.name!r}: expected .json or .mps")
    g = parse_mps(path.read_text())
    poly, c, offset, vmap = normalize_to_inequality_form(g)
    if cost_config is None:
        raise ValueError("MPS instances need a cost_config to attach a cost model")
    cfg = dict(cost_config)
    preset_name = cfg.pop("preset", None)
    if preset_name is not None:
        base = dict(NETLIB_COST_PRESETS[preset_name])
        base.update(cfg)
        cfg = base
    seed = int(cfg.pop("seed", 0))
    cfg.pop("d", None)
    cfg.setdefault("c0", [float(v) for v in c])
    cfg.pop("c0_range", None)
    cfg.pop("c0_norm", None)
    model, c0, prior_meta = _build_cost_model(cfg, poly.d, rng_for(seed, STREAM_COSTMODEL))

    meta = dict(poly.meta)
    meta["kind"] = "mps"
    if prior_meta is not None:
        meta["prior"] = prior_meta
    poly = Polytope(poly.A, poly.b, meta=meta)
    name = g.name or path.stem
    prov = {
        "path": str(path),
        "seed": seed,
        "value_offset": float(offset),
        "sense_sign": float(vmap.sense_sign),
        "shift": [float(v) for v in vmap.shift],
    }
    if preset_name is not None:
        prov["cost_preset"] = preset_name
        prov["cost_preset_config"] = dict(NETLIB_COST_PRESETS[preset_name])
    return Instance(polytope=poly, c0=c0, cost_model=model, name=name, kind="mps", provenance=prov)
