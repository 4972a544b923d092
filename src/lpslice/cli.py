"""Command-line orchestration: gen, learn, calibrate, solve, bench, oracle.

Every command reads an optional JSON config (--config) whose fields are
overridden by flags, writes machine-readable outputs into --out, and is
deterministic under a fixed master seed.  Bench emits metrics.csv with the
fixed header, a summary.json carrying the sweep structures, and a run
manifest; wall-clock columns are excluded from the stable content hash.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import pca_projection, random_projection, solve_projected
from .compression import check_exact, model_from_json, model_to_json, solve_via_compression
from .instances import (
    PRESETS,
    STREAM_PILOT,
    STREAM_TEST,
    Instance,
    cost_stream,
    gen_instance,
    instance_to_json,
    load_instance,
    make_preset,
    sample_costs,
)
from .learner import certificate_bound, learn, make_anchor, trace_to_json
from .lp_core import SolveStatus, dump_json, load_json, solve_lp
from .oracle import ScaleError, dir_star, enumerate_vertices, prior_spec_from_dict, reachable_vertices
from .prior import (
    anchor_cost,
    calibrate,
    composite_certificate,
    fit_score,
    prior_to_json,
    retain_stream,
)
from .tolerances import VALUE_TOL

CSV_HEADER = "instance,method,k,seed,obj_ratio,exact,cert_lb,hard,skipped,wall_ms,flag"

# near-zero full values make the ratio metric meaningless; those cells
# switch to an absolute gap and say so in the flag column
RATIO_DENOM_FLOOR = 1e-9

_CONFIG_DEFAULTS = {
    "seed": 0,
    "out": "runs",
    "n1": 60,
    "m_fit": 40,
    "m_cal": 120,
    "n_test": 150,
    "rho": 0.1,
    "delta0": 0.05,
    "delta1": 0.05,
    "rho_grid": [0.05, 0.1, 0.3],
    "n1_grid": [5, 10, 20, 40],
    "methods": ["ours", "random", "pca", "full"],
    "jobs": 1,
    "known_prior": False,
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _build_config(args: argparse.Namespace) -> dict:
    cfg = dict(_CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_json(args.config))
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in ("preset", "instance", "kind", "params"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "known_prior", False):
        cfg["known_prior"] = True
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _resolve_instance(cfg: dict) -> Instance:
    if cfg.get("preset"):
        return make_preset(cfg["preset"], int(cfg["seed"]))
    if cfg.get("instance"):
        return load_instance(cfg["instance"], cfg.get("cost_config"))
    if cfg.get("kind"):
        params = cfg.get("params") or {}
        if isinstance(params, str):
            params = json.loads(params)
        return gen_instance(cfg["kind"], params, int(cfg["seed"]))
    raise SystemExit("no instance given: use --preset, --instance, or --kind/--params")


def _write_manifest(out: Path, cfg: dict, command: str) -> None:
    doc = {
        "schema": 1,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": cfg,
        "config_hash": _config_hash(cfg),
    }
    dump_json(doc, out / "run_manifest.json")


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# learning pipelines shared by learn/bench
# ---------------------------------------------------------------------------


def _pilot_samples(inst: Instance, cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    m_fit, m_cal = int(cfg["m_fit"]), int(cfg["m_cal"])
    X = sample_costs(inst, m_fit + m_cal, int(cfg["seed"]), stream=STREAM_PILOT)
    return X[:m_fit], X[m_fit:]


def _retain(inst: Instance, cfg: dict, params, cal_X: np.ndarray, rho) -> dict:
    """calibrate the fitted score at rho -> retain n1 from the training stream."""
    prior = calibrate(params, cal_X, float(rho), float(cfg["delta0"]))
    retained, skipped = retain_stream(prior, cost_stream(inst, int(cfg["seed"])), int(cfg["n1"]))
    return {"prior": prior, "retained": retained, "skipped": skipped}


def _estimated_pipeline(inst: Instance, cfg: dict):
    """pilot -> fit -> calibrate -> anchor -> retain n1. Returns a dict of parts.

    The anchor is the fitted mean, which no rho changes; ``parts["retain"]``
    re-calibrates the same fit at another rho and retains its stream.
    """
    fit_X, cal_X = _pilot_samples(inst, cfg)
    parts = _retain(inst, cfg, fit_score(fit_X), cal_X, cfg["rho"])
    parts["x0"] = make_anchor(inst.polytope, anchor_cost(parts["prior"]))
    parts["retain"] = functools.partial(_retain, inst, cfg, parts["prior"].params, cal_X)
    return parts


def _known_pipeline(inst: Instance, cfg: dict):
    x0 = make_anchor(inst.polytope, inst.c0)
    n1 = int(cfg["n1"])
    retained = list(sample_costs(inst, n1, int(cfg["seed"])))
    return {"prior": None, "x0": x0, "retained": retained, "skipped": 0}


def _run_pipeline(inst: Instance, cfg: dict):
    if cfg["known_prior"]:
        return _known_pipeline(inst, cfg)
    return _estimated_pipeline(inst, cfg)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = _build_config(args)
    inst = _resolve_instance(cfg)
    out = _out_dir(cfg)
    path = out / f"{inst.name}.json"
    dump_json(instance_to_json(inst), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    print(f"wrote {path} (d={inst.d}, m={inst.polytope.m}, sha256={digest[:16]})")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _build_config(args)
    inst = _resolve_instance(cfg)
    out = _out_dir(cfg)
    fit_X, cal_X = _pilot_samples(inst, cfg)
    params = fit_score(fit_X)
    prior = calibrate(params, cal_X, float(cfg["rho"]), float(cfg["delta0"]))
    dump_json(prior_to_json(prior), out / "prior.json")
    _write_manifest(out, cfg, "calibrate")
    thr = "inf" if math.isinf(prior.threshold) else f"{prior.threshold:.6g}"
    print(f"calibrated prior: m={prior.m} k={prior.k} threshold={thr} rho={prior.rho} delta0={prior.delta0}")
    return 0


def cmd_learn(args) -> int:
    cfg = _build_config(args)
    inst = _resolve_instance(cfg)
    out = _out_dir(cfg)
    parts = _run_pipeline(inst, cfg)
    model, trace = learn(inst.polytope, parts["x0"], parts["retained"])
    model.provenance.update(instance=inst.name, seed=int(cfg["seed"]))
    trace.anchor_provenance = "known c0" if cfg["known_prior"] else "estimated prior mean"
    n1, t = len(parts["retained"]), len(trace.hard)
    cert = certificate_bound(n1, t, float(cfg["delta1"]))
    cert_doc = {
        "schema": 1,
        "mode": "known" if cfg["known_prior"] else "estimated",
        "n1": n1,
        "t": t,
        "delta1": float(cfg["delta1"]),
        "bound": cert.lower_bound,
        "skipped": parts["skipped"],
    }
    if not cfg["known_prior"]:
        cert_doc["rho"] = float(cfg["rho"])
        cert_doc["delta0"] = float(cfg["delta0"])
        cert_doc["composite"] = composite_certificate(float(cfg["rho"]), n1, t, float(cfg["delta1"])) if n1 else 0.0
        dump_json(prior_to_json(parts["prior"]), out / "prior.json")
    dump_json(model_to_json(model), out / "model.json")
    dump_json(trace_to_json(trace), out / "trace.json")
    dump_json(cert_doc, out / "certificate.json")
    _write_manifest(out, cfg, "learn")
    line = f"learned rank {model.rank} from n1={n1} (hard={t}, skipped={parts['skipped']}); bound={cert.lower_bound:.4f}"
    if "composite" in cert_doc:
        line += f" composite={cert_doc['composite']:.4f}"
    print(line)
    return 0


def cmd_solve(args) -> int:
    cfg = _build_config(args)
    inst = _resolve_instance(cfg)
    out = _out_dir(cfg)
    if args.cost is not None:
        c = np.array(json.loads(args.cost), dtype=float)
    elif args.test_index is not None:
        c = sample_costs(inst, 1, int(cfg["seed"]), start=int(args.test_index), stream=STREAM_TEST)[0]
    else:
        c = inst.c0
    full = solve_lp(inst.polytope, c)
    report: dict = {"schema": 1, "instance": inst.name, "full_status": full.status.value}
    if full.status is SolveStatus.OPTIMAL:
        report["full_value"] = full.value
        report["full_x"] = [float(v) for v in full.x]
    print(f"full: {full.status.value}" + (f" value={full.value:.10g}" if full.value is not None else ""))
    if args.model:
        model = model_from_json(load_json(args.model))
        red = solve_via_compression(model, inst.polytope, c)
        exact = check_exact(model, inst.polytope, c)
        report["reduced_value"] = red.value
        report["reduced_x"] = [float(v) for v in red.x]
        report["exact"] = bool(exact)
        print(f"compressed (rank {model.rank}): value={red.value:.10g} exact={exact}")
    dump_json(report, out / "solution.json")
    return 0


def cmd_oracle(args) -> int:
    cfg = _build_config(args)
    inst = _resolve_instance(cfg)
    try:
        vs = enumerate_vertices(inst.polytope)
        prior_doc = inst.polytope.meta.get("prior")
        if prior_doc is None:
            raise SystemExit("instance metadata carries no prior region")
        spec = prior_spec_from_dict(prior_doc)
        reach = reachable_vertices(inst.polytope, spec)
        basis, dstar = dir_star(inst.polytope, spec)
    except ScaleError as e:
        print(f"oracle refused: {e}", file=sys.stderr)
        return 2
    print(f"vertices: {len(vs)}")
    print(f"reachable: {len(reach)}")
    print(f"d_star: {dstar}")
    for j in range(basis.shape[1]):
        print(f"  basis[{j}] = {np.array2string(basis[:, j], precision=6)}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _ratio_stats(values: list, full_values: list) -> tuple[float, str]:
    """Mean objective ratio over solved cells (NaN marks an unsolved one);
    absolute gap when the full value sits at zero. Returns (mean, flag)."""
    ratios, gaps = [], []
    n_inf = 0
    for v, vf in zip(values, full_values):
        if math.isnan(v):
            n_inf += 1
            continue
        if abs(vf) <= RATIO_DENOM_FLOOR:
            gaps.append(abs(v - vf))
        else:
            ratios.append(v / vf)
    flag_parts = []
    if gaps and not ratios:
        mean = float(np.mean(gaps))
        flag_parts.append("absgap")
    elif ratios:
        mean = float(np.mean(ratios))
        if gaps:
            flag_parts.append(f"absgap_cells={len(gaps)}")
    else:
        mean = math.nan
    if n_inf:
        flag_parts.append(f"infeasible={n_inf}")
    return mean, ";".join(flag_parts)


def _eval_ours(model, p, test_costs, full_values) -> dict:
    t0 = time.perf_counter()
    vals, exact = [], []
    for c in test_costs:
        vals.append(solve_via_compression(model, p, c).value)
        exact.append(check_exact(model, p, c))
    wall = (time.perf_counter() - t0) * 1e3
    ratio, flag = _ratio_stats(vals, full_values)
    return {"obj_ratio": ratio, "exact": float(np.mean(exact)) if exact else math.nan, "wall_ms": wall, "flag": flag}


def _eval_projection(P, p, test_costs, full_values) -> dict:
    t0 = time.perf_counter()
    vals = []
    for c in test_costs:
        r = solve_projected(p, c, P)
        vals.append(r.value if r.status is SolveStatus.OPTIMAL else math.nan)
    wall = (time.perf_counter() - t0) * 1e3
    ratio, flag = _ratio_stats(vals, full_values)
    exact = [abs(v - vf) <= VALUE_TOL * (1.0 + abs(vf)) for v, vf in zip(vals, full_values) if not math.isnan(v)]
    return {"obj_ratio": ratio, "exact": float(np.mean(exact)) if exact else 0.0, "wall_ms": wall, "flag": flag}


def _row(instance, method, k, seed, cell: dict, cert_lb="", hard="", skipped="") -> dict:
    return {
        "instance": instance,
        "method": method,
        "k": k,
        "seed": seed,
        "obj_ratio": cell.get("obj_ratio", math.nan),
        "exact": cell.get("exact", math.nan),
        "cert_lb": cert_lb,
        "hard": hard,
        "skipped": skipped,
        "wall_ms": int(round(cell.get("wall_ms", 0.0))),
        "flag": cell.get("flag", ""),
    }


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.9g}"
    return str(v)


def _rows_to_csv(rows: list) -> str:
    cols = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt_cell(r[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _stable_csv_hash(rows: list) -> str:
    """Content hash of the csv with the wall_ms column masked (timing is run-dependent)."""
    return hashlib.sha256(_rows_to_csv([{**r, "wall_ms": "x"} for r in rows]).rstrip("\n").encode()).hexdigest()


def _bench_cell(shared: dict, cell: dict) -> list:
    """One sweep cell's rows: every method, evaluated on the shared test set.

    ``shared`` holds the polytope, the test costs with their full values and
    timing, the seed and the methods; ``cell`` holds a model learned in the
    parent with its label, learn time, certificate, counts, K and training
    optima.  Both are plain picklable objects and the rows depend on nothing
    else, so every worker and scheduling order yields identical rows.
    """
    p, test_costs, full_values, seed = shared["polytope"], shared["test_costs"], shared["full_values"], shared["seed"]
    model, label, K = cell["model"], cell["label"], cell["K"]
    rows = []
    if "ours" in shared["methods"]:
        res = _eval_ours(model, p, test_costs, full_values)
        res["wall_ms"] += cell["learn_ms"]
        rows.append(_row(label, "ours", model.rank, seed, res, f"{cell['cert']:.6f}", cell["hard"], cell["skipped"]))
    if "random" in shared["methods"]:
        P = random_projection(p.d, K, seed)
        rows.append(_row(label, "random", K, seed, _eval_projection(P, p, test_costs, full_values)))
    if "pca" in shared["methods"]:
        # with no training solves yet, the anchor is the one observed optimizer
        P = pca_projection(np.array(cell["optima"] or [model.x0], dtype=float), K)
        rows.append(_row(label, "pca", K, seed, _eval_projection(P, p, test_costs, full_values)))
    if "full" in shared["methods"]:
        res = {"obj_ratio": 1.0, "exact": 1.0, "wall_ms": shared["full_wall_ms"], "flag": ""}
        rows.append(_row(label, "full", p.d, seed, res))
    return rows


def cmd_bench(args) -> int:
    """Learn each distinct training stream once in this process, then evaluate the cells.

    The ``full`` row times the cold solves of the test costs.  The prior is
    fitted and the anchor solved once; the main stream, each rho of
    ``rho_grid`` other than ``cfg["rho"]`` (an equal rho reuses the main
    model) and each n1 prefix are learned once, and PCA reads the optima of
    those learns.  The cells run on --jobs worker processes when it is above 1.
    """
    cfg = _build_config(args)
    inst = _resolve_instance(cfg)
    out = _out_dir(cfg)
    p = inst.polytope
    seed, delta1 = int(cfg["seed"]), float(cfg["delta1"])
    mode = "known" if cfg["known_prior"] else "estimated"

    # shared test set and full-LP reference values
    test_costs = sample_costs(inst, int(cfg["n_test"]), seed, stream=STREAM_TEST)
    t0 = time.perf_counter()
    full_values = []
    for c in test_costs:
        r = solve_lp(p, c)
        if r.status is not SolveStatus.OPTIMAL:
            raise SystemExit(f"full LP not optimal on a test cost: {r.status.value}")
        full_values.append(r.value)
    full_wall_ms = (time.perf_counter() - t0) * 1e3

    parts = _run_pipeline(inst, cfg)
    train = parts["retained"]

    def learned(label, costs, skipped, rho=cfg["rho"], K=None) -> dict:
        t0 = time.perf_counter()
        model, trace = learn(p, parts["x0"], costs)
        learn_ms = (time.perf_counter() - t0) * 1e3
        n1, t = len(costs), len(trace.hard)
        if mode == "estimated":
            cert = composite_certificate(float(rho), n1, t, delta1) if n1 else 0.0
        else:
            cert = certificate_bound(n1, t, delta1).lower_bound
        return {
            "label": label, "model": model, "learn_ms": learn_ms, "cert": cert, "hard": t, "skipped": skipped,
            "K": K or max(1, model.rank), "optima": trace.optima,
            "rank_growth": [int(v) for v in np.cumsum(trace.appends_per_sample)],
        }

    # stage a + full-budget cell: the whole retained stream
    cells = [learned(inst.name, train, parts["skipped"])]
    rho_sweep, sample_sweep = [], []

    # stage b: rho sweep (estimated mode only; the prior is what rho changes)
    if mode == "estimated":
        for rho in cfg["rho_grid"]:
            label = f"{inst.name}@rho={rho:g}"
            if float(rho) == float(cfg["rho"]):
                cell = {**cells[0], "label": label}
            else:
                sub = parts["retain"](rho)
                cell = learned(label, sub["retained"], sub["skipped"], rho=rho)
            cells.append(cell)
            rho_sweep.append({"rho": float(rho), "d_rho": cell["model"].rank, "K": cell["K"]})

    # stage c: sample sweep at fixed K (the full-budget learned rank)
    K_fixed = cells[0]["K"]
    for n in map(int, cfg["n1_grid"]):
        if n <= len(train):
            cells.append(learned(f"{inst.name}@n1={n}", train[:n], parts["skipped"], K=K_fixed))
            sample_sweep.append({"n1": n, "rank": cells[-1]["model"].rank, "K": K_fixed})

    shared = {"polytope": p, "test_costs": test_costs, "full_values": full_values, "full_wall_ms": full_wall_ms,
              "seed": seed, "methods": cfg["methods"]}
    evaluate = functools.partial(_bench_cell, shared)
    jobs = int(cfg["jobs"])
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(evaluate, cells))
    else:
        results = [evaluate(c) for c in cells]
    rows = [row for res in results for row in res]
    csv_text = _rows_to_csv(rows)
    (out / "metrics.csv").write_text(csv_text)

    summary = {
        "schema": 1,
        "instance": inst.name,
        "mode": mode,
        "rank_growth": cells[0]["rank_growth"],
        "rho_sweep": rho_sweep,
        "sample_sweep": sample_sweep,
        "csv_sha256_stable": _stable_csv_hash(rows),
        "notes": {"fcnn": "neural cost-only baseline omitted; out of scope for this artifact"},
    }
    dump_json(summary, out / "summary.json")
    _write_manifest(out, cfg, "bench")
    print(f"wrote {out / 'metrics.csv'} ({len(rows)} rows) and summary.json")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override fields")
    sp.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
    sp.add_argument("--instance", help="path to an instance .json or .mps file")
    sp.add_argument("--kind", help="instance family for direct generation")
    sp.add_argument("--params", help="JSON parameter object for --kind")
    sp.add_argument("--seed", type=int, help="master seed")
    sp.add_argument("--out", help="output directory")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="lpslice", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate an instance file")
    _add_common(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("calibrate", help="fit and calibrate the estimated prior")
    _add_common(sp)
    sp.add_argument("--m-fit", dest="m_fit", type=int)
    sp.add_argument("--m-cal", dest="m_cal", type=int)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--delta0", type=float)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("learn", help="run the learning pipeline and write the model")
    _add_common(sp)
    sp.add_argument("--n1", type=int)
    sp.add_argument("--m-fit", dest="m_fit", type=int)
    sp.add_argument("--m-cal", dest="m_cal", type=int)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--delta0", type=float)
    sp.add_argument("--delta1", type=float)
    sp.add_argument("--known-prior", dest="known_prior", action="store_true", default=None)
    sp.set_defaults(func=cmd_learn)

    sp = sub.add_parser("solve", help="solve at a cost, optionally through a model")
    _add_common(sp)
    sp.add_argument("--model", help="path to model.json")
    sp.add_argument("--cost", help="explicit cost vector as a JSON list")
    sp.add_argument("--test-index", dest="test_index", type=int, help="index into the seeded test stream")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("bench", help="run the benchmark sweeps and write metrics")
    _add_common(sp)
    sp.add_argument("--n1", type=int)
    sp.add_argument("--m-fit", dest="m_fit", type=int)
    sp.add_argument("--m-cal", dest="m_cal", type=int)
    sp.add_argument("--n-test", dest="n_test", type=int)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--delta0", type=float)
    sp.add_argument("--delta1", type=float)
    sp.add_argument("--jobs", type=int)
    sp.add_argument("--known-prior", dest="known_prior", action="store_true", default=None)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("oracle", help="brute-force report for a small instance")
    _add_common(sp)
    sp.set_defaults(func=cmd_oracle)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
