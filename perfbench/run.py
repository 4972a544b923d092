"""Repeated-solve benchmark for lpslice: one workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; lpslice is imported from ./src.  A
run sets the workload up (timed), then repeats rounds of learn -> serve ->
full -> check, with more timed set-ups inside each round, on the same
inputs for about ``--seconds`` seconds (whole rounds, at least one), then
checks the first answer to every cost against independent references and
that every repeat reproduced it bitwise.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the run does one set-up and one round, without the repeated
set-ups, with spans around lpslice's public functions and reports the
per-layer metrics instead.  A detailed record of each run goes to
perfbench/out/.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so timings do not depend on how
# many cores the host lends to the BLAS pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def end_to_end(run, peak_mib) -> dict:
    """The user-visible metrics.  A cost's latency is the fastest of its
    attempts in the run, which keeps the host's slow moments out; the
    percentiles are then taken over costs.  A learn lasts longer than those
    moments, so the fastest of a run's learns is a matter of luck and
    learn_s is their median."""
    best = run.best_ms
    m = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "learn_s": (statistics.median(run.learn_s), "s"),
        "serve_ms_p50": (float(np.percentile(best["serve"], 50)), "ms"),
        "serve_ms_p90": (float(np.percentile(best["serve"], 90)), "ms"),
        "full_ms_p50": (float(np.median(best["full"])), "ms"),
        "check_ms_p50": (float(np.median(best["check"])), "ms"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def import_lpslice():
    src = ROOT / "src"
    if not (src / "lpslice" / "__init__.py").is_file():
        raise ImportError(f"no lpslice sources under {src}")
    sys.path.insert(0, str(src))
    import lpslice

    if Path(lpslice.__file__).resolve().parent != (src / "lpslice").resolve():
        raise ImportError(f"lpslice was imported from {lpslice.__file__}, not from {src}")
    return lpslice


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_lpslice()
    except ImportError as e:
        print(f"perfbench: cannot import lpslice: {e}", file=sys.stderr)
        return 2
    import checks
    import cpus
    import tracing
    from workloads import WORKLOADS, Run, run_round

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    run = Run(wl)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        cpus.settle()
        prep = run.set_up(args.seed)
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            run_round(wl, prep, run, args.seed, setups=not tracer)
            now = time.perf_counter()
            # start another round only if it should end within the budget
            if tracer or (now - start) + (now - t) > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, wrong = checks.check_outputs(wl, prep, run)
    # every attempt at a wrong serve returned the same wrong answer
    failed_serves = len(wrong) * wl.reps[0] * len(run.learn_s)
    run.failed += failed_serves
    run.serve_failed += failed_serves
    e2e = end_to_end(run, peak_mib)
    if tracer:
        metrics = tracing.layer_metrics(tracer.spans, run.trace, run.serve_failed, prep.prior)
    else:
        metrics = e2e

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(run.learn_s),
        "setup_s": run.setup_s,
        "learn_s": run.learn_s,
        "serve_failed": run.serve_failed,
        "wrong_serves": wrong,
        "model_rank": run.trace.final_rank,
        "hard": len(run.trace.hard),
        "end_to_end": e2e,
        "per_layer": metrics if tracer else None,
        "problems": problems,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
