"""Property tests of the containment test on polytopes with ties, against
vertex enumeration (``exact_check_bruteforce``) and the all-complement
referee.  A failure shrinks to a minimal polytope.

hypothesis is a test-only dependency: without it this module is skipped.
"""

import numpy as np
import pytest

from helpers import referee
from lpslice import CompressionModel, Polytope, contains_optimal_face, solve_lp
from lpslice.compression import append_direction, in_range
from lpslice.oracle import exact_check_bruteforce

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402


def _int_vector(d: int):
    return st.lists(st.integers(-2, 2), min_size=d, max_size=d)


@st.composite
def _tied_instances(draw):
    """Integer polytope inside [0, 3]^d, a slice through solver vertices, and
    a cost with ties: integer entries or plus/minus a row of A."""
    d = draw(st.integers(2, 3))
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(_int_vector(d).filter(any), min_size=k, max_size=k))
    rhs = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    eye = np.eye(d)
    A = np.vstack([np.array(rows, dtype=float), eye, -eye])
    p = Polytope(A, np.concatenate([np.array(rhs, dtype=float), np.full(d, 3.0), np.zeros(d)]))
    x0 = solve_lp(p, np.array(draw(_int_vector(d)), dtype=float)).x
    m = CompressionModel.empty(x0)
    for s in draw(st.lists(_int_vector(d), max_size=d)):
        x = solve_lp(p, np.array(s, dtype=float)).x
        if not in_range(m, x - x0):
            m = append_direction(m, x)
    if draw(st.booleans()):
        c = draw(st.sampled_from([-1.0, 1.0])) * A[draw(st.integers(0, p.m - 1))]
    else:
        c = np.array(draw(_int_vector(d)), dtype=float)
    return m, p, c


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(_tied_instances())
def test_containment_with_ties_matches_bruteforce_and_referee(case):
    m, p, c = case
    fast = contains_optimal_face(m, p, c)
    assert fast.contained == exact_check_bruteforce(m, p, c)
    if referee(m, p, c).contained:
        assert fast.contained
    if not fast.contained:
        assert p.contains(fast.witness)
        assert not in_range(m, fast.witness - m.x0)
