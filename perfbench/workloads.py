"""The four workloads, their timed set-up, and the round each run repeats.

Every workload fixes its polytope (``INSTANCE_SEED``) and its training
costs (``TRAIN_SEED``), so the learned model is the same in every run, and
draws the costs it serves, solves and checks from the benchmark seed.
``grid5-int`` fixes its test costs too (see ``GRID5_COST_SEED``).  lpslice
is called through the package namespace at call time, so the spans that
``tracing.Tracer`` installs see every call.
"""

from __future__ import annotations

import copy
import gc
import time
from dataclasses import dataclass, field

import numpy as np

import cpus
import lpslice as ls
from lpslice.instances import PRESETS, STREAM_PILOT, STREAM_TEST

# The seed moves only the test costs.  A model learned from other training
# costs has other directions and another reduced LP, so learn and serve
# would measure different work on every seed.
INSTANCE_SEED = 0
TRAIN_SEED = 0

# estimated-prior settings of desk-example1: the CLI's defaults
M_FIT, M_CAL, RHO, DELTA0 = 40, 120, 0.1, 0.05

# grid5-int serves raise InternalError on some costs (a fault of lp_core's
# ratio test) and return a certified but suboptimal answer on one; its costs
# come from this fixed seed, so the same serves fail in every run and the
# failed share is the same whatever --seed says
GRID5_COST_SEED = 0


@dataclass
class Prepared:
    """What set-up hands to the rounds and to the checks."""

    p: ls.Polytope
    x0: np.ndarray
    train: list
    test: np.ndarray
    kind: str  # "square", "grid" or "highs": which reference checks the optima
    prior: dict = field(default_factory=dict)  # estimated-prior record (desk-example1)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # seed -> (Prepared, timed seconds)
    n_serve: int
    n_full: int
    n_check: int
    reps: tuple  # attempts per round on each serve, full and check cost
    setups: int  # timed set-ups repeated inside each round (see run_round)
    slices: int  # a round cuts its set-ups, full and check attempts into this many slices
    check_train: bool  # also certify every training cost against the final model
    fixed_costs: bool = False  # the test costs do not depend on --seed (see GRID5_COST_SEED)


class _Clock:
    """Accumulates the wall time spent inside its ``with`` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t


def _desk_example1(seed: int):
    n1, n_test = 2000, 200
    clock = _Clock()
    with clock:
        inst = ls.make_preset("example1", INSTANCE_SEED)
    pilot = ls.sample_costs(inst, M_FIT + M_CAL, TRAIN_SEED, stream=STREAM_PILOT)
    # retain_stream filters the training stream; twice n1 candidates leave
    # a wide margin over the 1 - RHO coverage the calibration guarantees
    candidates = ls.sample_costs(inst, 2 * n1, TRAIN_SEED)
    test = ls.sample_costs(inst, n_test, seed, stream=STREAM_TEST)
    with clock:
        prior = ls.calibrate(ls.fit_score(pilot[:M_FIT]), pilot[M_FIT:], RHO, DELTA0)
        x0 = ls.make_anchor(inst.polytope, ls.anchor_cost(prior))
        train, skipped = ls.retain_stream(prior, candidates, n1)
    rec = {"rho": RHO, "retained": len(train), "skipped": skipped}
    return Prepared(inst.polytope, x0, train, test, "square", rec), clock.total


def _preset(name: str, n1: int, n_test: int):
    def setup(seed: int):
        clock = _Clock()
        with clock:
            inst = ls.make_preset(name, INSTANCE_SEED)
        train = list(ls.sample_costs(inst, n1, TRAIN_SEED))
        test = ls.sample_costs(inst, n_test, seed, stream=STREAM_TEST)
        with clock:
            x0 = ls.make_anchor(inst.polytope, inst.c0)
        return Prepared(inst.polytope, x0, train, test, "highs"), clock.total

    return setup


def _grid5_int(seed: int):
    """grid-4's construction and cost config at 5 x 5, with integer costs.

    Costs are round(c0 + u), u uniform in [-s, s]^d with s = mean|c0|: the
    widened law of acceptance criterion 9, rounded, so that ties make
    optimal faces non-singleton and containment runs face LPs.
    """
    n1, n_test = 40, 100
    params = copy.deepcopy(PRESETS["grid-4"]["params"])
    params.update(rows=5, cols=5, name="grid5-int")
    clock = _Clock()
    with clock:
        inst = ls.gen_instance("shortestpathgrid", params, INSTANCE_SEED)
    rng = np.random.default_rng(GRID5_COST_SEED)
    s = float(np.mean(np.abs(inst.c0)))
    costs = np.round(inst.c0 + rng.uniform(-s, s, (n1 + n_test, inst.d)))
    with clock:
        x0 = ls.make_anchor(inst.polytope, inst.c0)
    return Prepared(inst.polytope, x0, list(costs[:n1]), costs[n1:], "grid"), clock.total


PHASES = ("serve", "full", "check")
_UNSET = object()


def _key(answer):
    """What must repeat bitwise: a verdict, or the value and x of a solve."""
    if answer is None or isinstance(answer, bool):
        return answer
    return answer.value, answer.x.tobytes()


@dataclass
class Run:
    """Each cost's fastest attempt per phase, the set-up times and the first answers.

    ``answers[phase][i]`` is the first answer to cost i (a SolveResult or a
    verdict, None where the call raised).  Every later attempt on the same
    cost must reproduce it bitwise, as must every later round's model and
    every repeated set-up's anchor.
    """

    wl: Workload
    setup_s: list = field(default_factory=list)
    learn_s: list = field(default_factory=list)
    model: object = None
    trace: object = None
    best_ms: dict = None
    answers: dict = None
    attempted: int = 0
    failed: int = 0
    serve_failed: int = 0
    mismatches: int = 0

    def __post_init__(self):
        n = {"serve": self.wl.n_serve, "full": self.wl.n_full, "check": self.wl.n_check}
        self.best_ms = {ph: np.full(n[ph], np.inf) for ph in PHASES}
        self.answers = {ph: [_UNSET] * n[ph] for ph in PHASES}

    def attempt(self, phase, fn, test, idx) -> None:
        """Call fn on test[i] for i in idx; time every attempt, including those that raise."""
        best, answers = self.best_ms[phase], self.answers[phase]
        for i in idx:
            t = time.perf_counter()
            try:
                ans = fn(test[i])
            except ls.InternalError:
                ans = None
                self.failed += 1
                self.serve_failed += phase == "serve"
            ms = (time.perf_counter() - t) * 1e3
            if ms < best[i]:
                best[i] = ms
            if answers[i] is _UNSET:
                answers[i] = ans
            elif _key(ans) != _key(answers[i]):
                self.mismatches += 1
        self.attempted += len(idx)

    def set_up(self, seed, first=None):
        """One timed set-up; a repeat must find the first one's anchor."""
        prep, secs = self.wl.setup(seed)
        self.setup_s.append(secs)
        if first is not None and not np.array_equal(prep.x0, first.x0):
            self.mismatches += 1
        return prep


def _chunks(seq: list, k: int) -> list:
    """seq cut into k consecutive parts of near-equal length."""
    return [seq[j * len(seq) // k : (j + 1) * len(seq) // k] for j in range(k)]


def run_round(wl, prep, run: Run, seed: int, setups: bool = True) -> None:
    """learn, then the round's repeated set-ups, full solves and checks,
    with a share of the serves before, between and after each of them.

    On the shared 2-core VM this was tuned on, interpreter-bound calls ran
    at one of two speeds, 1.5-2x apart, with fast moments of a few
    milliseconds even in mostly slow periods.  Spreading each phase over
    the whole round, in many small windows, gives every cost attempts in
    fast moments, and a cost's latency is its fastest attempt (see
    run.end_to_end).  Before each timed block the process moves to the
    fastest CPU it may use (see cpus.settle).  Every round makes the same
    calls in the same order, so the failed share is the same in every run.
    """
    p, test = prep.p, prep.test
    gc.collect()
    cpus.settle()
    t = time.perf_counter()
    model, trace = ls.learn(p, prep.x0, prep.train)
    run.learn_s.append(time.perf_counter() - t)
    run.attempted += 1
    if run.model is None:
        run.model, run.trace = model, trace
    elif not np.array_equal(model.U, run.model.U):
        run.mismatches += 1

    calls = {
        "serve": lambda c: ls.solve_via_compression(model, p, c),
        "full": lambda c: ls.solve_lp(p, c),
        "check": lambda c: ls.check_exact(model, p, c),
    }
    k = wl.slices
    setup_parts = _chunks([None] * (wl.setups if setups else 0), k)
    full_parts = _chunks(list(range(wl.n_full)) * wl.reps[1], k)
    check_parts = _chunks(list(range(wl.n_check)) * wl.reps[2], k)
    items = []
    for j in range(k):
        items += [("setup", None)] * len(setup_parts[j])
        items += [(ph, idx) for ph, idx in (("full", full_parts[j]), ("check", check_parts[j])) if idx]
    windows = _chunks(list(range(wl.n_serve)) * wl.reps[0], len(items) + 1)
    for (kind, arg), serves in zip(items + [(None, None)], windows):
        cpus.settle()
        run.attempt("serve", calls["serve"], test, serves)
        gc.collect()
        cpus.settle()
        if kind == "setup":
            run.set_up(seed, prep)
        elif kind is not None:
            run.attempt(kind, calls[kind], test, arg)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-example1", _desk_example1, 200, 200, 200, (5, 5, 5), setups=4, slices=2, check_train=True),
        Workload("randomlp-a", _preset("randomlp-a", 2, 100), 100, 2, 2, (400, 1, 1), setups=2, slices=2, check_train=False),
        Workload("packing-360", _preset("packing-360", 8, 100), 100, 4, 4, (48, 1, 1), setups=2, slices=4, check_train=False),
        Workload("grid5-int", _grid5_int, 100, 100, 32, (16, 8, 2), setups=4, slices=16, check_train=False, fixed_costs=True),
    )
}
