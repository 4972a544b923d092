"""Property tests of vertex-started solves against cold ones, from every
vertex of small integer polytopes (``enumerate_vertices``).  A failure
shrinks to a minimal polytope.

hypothesis is a test-only dependency: without it this module is skipped.
"""

import numpy as np
import pytest

from lpslice import Polytope, SolveStatus, solve_lp
from lpslice import lp_core
from lpslice.compression import MULTIPLIER_TOL
from lpslice.oracle import enumerate_vertices

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402


def _int_vector(d: int, lo: int = -2, hi: int = 2):
    return st.lists(st.integers(lo, hi), min_size=d, max_size=d)


@st.composite
def _polytope_and_cost(draw):
    """Integer polytope inside [0, 3]^d and a cost: integer (ties, so often
    a degenerate optimum), plus or minus a row of A, or integer plus a
    tenth of another integer vector."""
    d = draw(st.integers(2, 3))
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(_int_vector(d).filter(any), min_size=k, max_size=k))
    rhs = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    eye = np.eye(d)
    A = np.vstack([np.array(rows, dtype=float), eye, -eye])
    p = Polytope(A, np.concatenate([np.array(rhs, dtype=float), np.full(d, 3.0), np.zeros(d)]))
    kind = draw(st.sampled_from(["int", "row", "fine"]))
    c = np.array(draw(_int_vector(d, -3, 3)), dtype=float)
    if kind == "row":
        c = draw(st.sampled_from([-1.0, 1.0])) * A[draw(st.integers(0, p.m - 1))]
    elif kind == "fine":
        c = c + 0.1 * np.array(draw(_int_vector(d, -9, 9)), dtype=float)
    bland = draw(st.booleans())  # Bland's rule from the first pivot on
    return p, c, bland


def _is_vertex(p, x):
    active = np.abs(p.b - p.A @ x) <= 1e-9 * (1.0 + np.abs(p.b))
    return p.contains(x) and np.linalg.matrix_rank(p.A[active]) == p.d


def _unique_nondegenerate(p, r):
    """The optimum has exactly d active rows, all with multipliers above
    MULTIPLIER_TOL: a single optimal vertex with a single basis."""
    active = np.flatnonzero(np.abs(p.b - p.A @ r.x) <= 1e-9 * (1.0 + np.abs(p.b)))
    thr = MULTIPLIER_TOL * (1.0 + float(np.max(np.abs(r.y))))
    return active.size == p.d and bool(np.all(r.y[active] > thr))


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(_polytope_and_cost())
def test_vertex_started_solves_match_cold_solves(case):
    p, c, bland = case
    with pytest.MonkeyPatch.context() as mp:
        if bland:
            mp.setattr(lp_core, "_DEGENERATE_RUN", 0)
        cold = solve_lp(p, c)
        assert cold.status is SolveStatus.OPTIMAL
        exact = _unique_nondegenerate(p, cold)
        V = enumerate_vertices(p).vertices
        for v in V:
            warm = solve_lp(p, c, start=v)
            assert warm.value == pytest.approx(cold.value, abs=1e-9)
            assert _is_vertex(p, warm.x)
            if exact:
                assert warm.x.tobytes() == cold.x.tobytes()
                assert warm.basis_id == cold.basis_id
        if len(V) > 1:  # a midpoint of two vertices is not a vertex
            mid = solve_lp(p, c, start=0.5 * (V[0] + V[-1]))
            assert mid.x.tobytes() == cold.x.tobytes()
            assert (mid.value, mid.basis_id) == (cold.value, cold.basis_id)
            assert mid.y.tobytes() == cold.y.tobytes()
        with pytest.raises(ValueError):
            solve_lp(p, c, start=V[0] + 100.0 * np.eye(p.d)[0])
