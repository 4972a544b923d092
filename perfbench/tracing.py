"""Spans around lpslice's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the listed lpslice
modules, in every lpslice namespace that binds it (``from .lp_core import
solve_lp`` makes a second binding in compression, learner, ...), with a
wrapper that records a span: name, start, end and the span that was open
when it was called.  ``uninstall`` puts the originals back.  Spans stay in
memory and are reduced to the per-layer metrics by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# the layers on the timed path; oracle serves only the checks, which run untraced
LAYERS = ("instances", "lp_core", "linalg", "compression", "learner", "prior")
CONTAINMENT = "compression.contains_optimal_face"


@dataclass
class Span:
    name: str  # "<module>.<function>"
    parent: int  # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    full_rank: bool = False  # containment call on a model of rank d

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def install(self) -> None:
        pkg = sys.modules["lpslice"]
        namespaces = [pkg] + [sys.modules[f"lpslice.{m}"] for m in LAYERS]
        for layer in LAYERS:
            mod = sys.modules[f"lpslice.{layer}"]
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, attr, wrapped)
                            self._patched.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        containment = name == CONTAINMENT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter())
            if containment:
                model = args[0] if args else kwargs["model"]
                span.full_rank = model.rank == model.d
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.dur

        return traced


def _enclosing(spans, s, name) -> int:
    """Index of the innermost span named ``name`` around span s, or -1."""
    k = s.parent
    while k >= 0 and spans[k].name != name:
        k = spans[k].parent
    return k


def _outermost(spans, name):
    """Spans of ``name`` not nested in another span of the same name."""
    return [s for s in spans if s.name == name and _enclosing(spans, s, name) < 0]


def layer_metrics(spans, learn_trace, serve_failed: int, prior: dict) -> dict:
    """Per-layer numbers from one traced set-up and round.

    ``busy_s`` is inclusive time (nested calls of the same function counted
    once), ``self_s`` excludes the traced calls inside, ``calls`` counts
    every call including nested ones.
    """

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def busy(name):
        return sum((s.dur for s in _outermost(spans, name)), 0.0)

    solve_ms = [s.dur * 1e3 for s in spans if s.name == "lp_core.solve_lp"]
    contain = [i for i, s in enumerate(spans) if s.name == CONTAINMENT]
    # each face LP counts on the innermost containment call around it
    face_lps = Counter(
        _enclosing(spans, s, CONTAINMENT) for s in spans if s.name == "lp_core.solve_on_optimal_face"
    )
    face_lps.pop(-1, None)
    n_face = sum(face_lps.values())
    routes = {
        "full_rank": sum(1 for i in contain if spans[i].full_rank),
        "face_lp": sum(1 for i in contain if not spans[i].full_rank and face_lps[i] > 0),
    }
    routes["shortcut"] = len(contain) - routes["full_rank"] - routes["face_lp"]
    serve_idx = {i for i, s in enumerate(spans) if s.name == "compression.solve_via_compression"}
    reduced = [s for s in spans if s.name == "lp_core.solve_lp" and s.parent in serve_idx]

    def ms_of(name):
        return busy(f"prior.{name}") * 1e3

    m = {
        ("lp_core.solve_lp.calls", "count"): calls("lp_core.solve_lp"),
        ("lp_core.solve_lp.busy_s", "s"): busy("lp_core.solve_lp"),
        ("lp_core.solve_lp.ms_p50", "ms"): statistics.median(solve_ms) if solve_ms else 0.0,
        ("lp_core.solve_on_optimal_face.calls", "count"): calls("lp_core.solve_on_optimal_face"),
        ("lp_core.solve_on_optimal_face.busy_s", "s"): busy("lp_core.solve_on_optimal_face"),
        ("lp_core.check_feasible_bounded.busy_s", "s"): busy("lp_core.check_feasible_bounded"),
        ("compression.contains_optimal_face.calls", "count"): len(contain),
        ("compression.contains_optimal_face.busy_s", "s"): busy("compression.contains_optimal_face"),
        ("compression.route.shortcut", "count"): routes["shortcut"],
        ("compression.route.face_lp", "count"): routes["face_lp"],
        ("compression.route.full_rank", "count"): routes["full_rank"],
        ("compression.face_lps_per_call", "ratio"): n_face / len(contain) if contain else 0.0,
        ("compression.append_direction.calls", "count"): calls("compression.append_direction"),
        ("compression.append_direction.busy_s", "s"): busy("compression.append_direction"),
        ("compression.build_reduced_lp.busy_s", "s"): busy("compression.build_reduced_lp"),
        ("compression.reduced_solve.busy_s", "s"): sum(s.dur for s in reduced),
        ("compression.serve.failed", "count"): serve_failed,
        ("linalg.complete_basis.busy_s", "s"): busy("linalg.complete_basis"),
        ("linalg.check_orthonormal.busy_s", "s"): busy("linalg.check_orthonormal"),
        ("learner.samples", "count"): len(learn_trace.processed),
        ("learner.hard", "count"): len(learn_trace.hard),
        ("learner.appends", "count"): sum(learn_trace.appends_per_sample),
        ("learner.model_rank", "count"): learn_trace.final_rank,
        ("learner.self_s", "s"): sum(s.dur - s.child_s for s in spans if s.name == "learner.learn"),
        ("prior.fit_score.ms", "ms"): ms_of("fit_score"),
        ("prior.calibrate.ms", "ms"): ms_of("calibrate"),
        ("prior.retain_stream.ms", "ms"): ms_of("retain_stream"),
        ("prior.retained", "count"): prior.get("retained", 0),
        ("prior.skipped", "count"): prior.get("skipped", 0),
        ("instances.gen_instance.busy_s", "s"): busy("instances.gen_instance"),
    }
    return {name: {"value": value, "unit": unit} for (name, unit), value in m.items()}
