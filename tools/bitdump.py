"""Hash the bits that lpslice computes on the perfbench workloads.

    python3 tools/bitdump.py [--seed N ...] [--pivots]

Run from the root of a source checkout; lpslice is imported from ./src.
For each seed (default 0; ``--seed 0 7`` and ``--seed 0 --seed 7`` both
give two) and each of the four workloads, the workload is set up as
perfbench sets it up (``perfbench/workloads.py``, imported read-only: no
bytecode is written), its model is learned, and one line
``<seed> <workload> <part> <sha256>`` is printed per part:

    trace        the learn's processed ids, hard set, appends per sample
                 and the bytes of every sample's optimum, in order
    model        x0, U and the hard set of the learned model
    serve        status, value, x, y and basis_id of the serve of every test cost
    check        the check_exact verdict of every test cost
    full         status, value, x, y and basis_id of the cold solve of every test cost
    json-model, json-serve, json-check
                 the same three for the model written by model_to_json and
                 read back by model_from_json; each must equal its
                 counterpart above, and the CI bits step fails otherwise

With ``--pivots``, the lines of the serve, check and full parts are each
followed by ``<seed> <workload> pivots-<part> <count>``: the pivots that
part's calls made in total, counted as calls of ``lp_core._eliminate``
(every pivot of a cold or started solve, and each artificial that a cold
phase one drives out).  Pivot totals of two checkouts compare by the same
diff.

A call that raises InternalError is hashed as that.  Two checkouts
compute the same bits exactly when they print the same lines, so a diff
of their outputs is the comparison.  BLAS runs on OPENBLAS_NUM_THREADS
threads, one when it is unset: x can differ in its last bits between
thread counts.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.dont_write_bytecode = True

import argparse
import hashlib
import struct
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import lpslice as ls  # noqa: E402
from lpslice import lp_core  # noqa: E402
from lpslice.compression import model_from_json, model_to_json  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _feed(h, obj) -> None:
    """Feed obj to the hash h, tagged by its type so that no two values
    share an encoding."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, int):
        h.update(b"i%d;" % obj)
    elif isinstance(obj, float):
        h.update(b"f" + struct.pack("<d", obj))
    elif isinstance(obj, str):
        h.update(b"s%d:" % len(obj) + obj.encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode() + np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        _feed(h, item)
    return h.hexdigest()


def _answer(fn, c):
    """What fn(c) returns, in hashable form: a verdict, or a solve's
    status, value, x, y and basis_id; "InternalError" when it raises."""
    try:
        r = fn(c)
    except ls.InternalError:
        return "InternalError"
    if isinstance(r, bool):
        return r
    return (r.status.value, r.value, r.x, r.y, r.basis_id)


def _model_parts(model, p, test, prefix=""):
    hard = model.provenance["hard_indices"]
    yield prefix + "model", _digest([model.x0, model.U, list(hard)])
    yield prefix + "serve", _digest(_answer(lambda c: ls.solve_via_compression(model, p, c), c) for c in test)
    yield prefix + "check", _digest(_answer(lambda c: ls.check_exact(model, p, c), c) for c in test)


def dump(name: str, seed: int):
    """(part, sha256) for each part of the workload at this seed."""
    prep, _ = WORKLOADS[name].setup(seed)
    p, test = prep.p, prep.test
    model, trace = ls.learn(p, prep.x0, prep.train)
    yield "trace", _digest([trace.processed, trace.hard, trace.appends_per_sample, trace.optima])
    yield from _model_parts(model, p, test)
    yield "full", _digest(_answer(lambda c: ls.solve_lp(p, c), c) for c in test)
    yield from _model_parts(model_from_json(model_to_json(model)), p, test, "json-")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, nargs="+", action="extend")
    ap.add_argument("--pivots", action="store_true", help="also print the pivot total of the serve, check and full parts")
    args = ap.parse_args(argv)
    pivots = [0]
    if args.pivots:
        eliminate = lp_core._eliminate

        def counted(*a):
            pivots[0] += 1
            return eliminate(*a)

        lp_core._eliminate = counted
    for seed in args.seed or [0]:
        for name in WORKLOADS:
            seen = 0
            for part, digest in dump(name, seed):  # a part's calls run between its line and the one before
                print(seed, name, part, digest, flush=True)
                if args.pivots and part in ("serve", "check", "full"):
                    print(seed, name, "pivots-" + part, pivots[0] - seen, flush=True)
                seen = pivots[0]
    return 0


if __name__ == "__main__":
    sys.exit(main())
