import numpy as np
import pytest

from helpers import column_stack_extend
from lpslice.linalg import (
    check_orthonormal,
    complete_basis,
    extend,
    orthonormal_columns,
    subspace_gap,
)
from lpslice.tolerances import COMPLETE_TOL, TAU_RANK


def test_orthonormal_columns_spans_input():
    rng = np.random.default_rng(0)
    V = rng.standard_normal((6, 3))
    Q = orthonormal_columns(V)
    assert Q.shape == (6, 3)
    assert check_orthonormal(Q)
    # same span both ways
    assert subspace_gap(Q, np.linalg.qr(V)[0]) < 1e-10


def test_orthonormal_columns_drops_dependent_columns():
    rng = np.random.default_rng(1)
    V = rng.standard_normal((5, 2))
    W = np.column_stack([V, V @ np.array([0.3, -2.0]), V[:, 0]])
    Q = orthonormal_columns(W)
    assert Q.shape == (5, 2)
    assert check_orthonormal(Q)


def test_orthonormal_columns_prefix_is_bitwise_stable():
    rng = np.random.default_rng(2)
    V = rng.standard_normal((7, 3))
    extra = rng.standard_normal((7, 2))
    Q_small = orthonormal_columns(V)
    Q_big = orthonormal_columns(np.column_stack([V, extra]))
    assert np.array_equal(Q_big[:, :3], Q_small)


def test_orthonormal_columns_empty_and_zero():
    assert orthonormal_columns(np.zeros((4, 0))).shape == (4, 0)
    assert orthonormal_columns(np.zeros((4, 2))).shape == (4, 0)


def test_extend_by_one_column_keeps_existing_columns_bitwise():
    rng = np.random.default_rng(3)
    Q = orthonormal_columns(rng.standard_normal((6, 2)))
    v = rng.standard_normal(6)
    Q2 = extend(Q, v[:, None], 1e-6)
    assert Q2.shape == (6, 3)
    assert np.array_equal(Q2[:, :2], Q)
    assert check_orthonormal(Q2)


def test_extend_keeps_no_dependent_direction():
    rng = np.random.default_rng(4)
    Q = orthonormal_columns(rng.standard_normal((5, 3)))
    inside = Q @ np.array([1.0, -0.5, 2.0])
    assert extend(Q, inside[:, None], 1e-6) is Q
    assert extend(Q, np.zeros((5, 1)), 0.0) is Q
    # a residual at the cutoff is dropped, one above it is kept
    out = np.linalg.svd(Q, full_matrices=True)[0][:, 3]
    assert extend(Q, (inside + 1e-6 * out)[:, None], 2e-6) is Q
    assert extend(Q, (inside + 1e-6 * out)[:, None], 5e-7).shape == (5, 4)


def test_complete_basis_full_rank_result():
    rng = np.random.default_rng(5)
    Q = orthonormal_columns(rng.standard_normal((6, 2)))
    C = complete_basis(Q)
    full = np.column_stack([Q, C])
    assert full.shape == (6, 6)
    assert check_orthonormal(full)
    # complement is orthogonal to the input
    assert np.max(np.abs(Q.T @ C)) < 1e-10


def test_complete_basis_of_full_basis_is_empty():
    C = complete_basis(np.eye(4))
    assert C.shape == (4, 0)


def test_complete_basis_from_empty_gives_standard_order():
    C = complete_basis(np.zeros((3, 0)))
    assert np.array_equal(C, np.eye(3))


def test_subspace_gap_containment_and_angle():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    diag = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    assert subspace_gap(e1, np.eye(2)) == 0.0
    assert subspace_gap(e1, e1) <= 1e-15
    assert subspace_gap(e1, e2) == pytest.approx(1.0)
    assert subspace_gap(diag, e1) == pytest.approx(np.sqrt(0.5))
    assert subspace_gap(np.zeros((2, 0)), e1) == 0.0


def test_check_orthonormal_detects_skew():
    Q = np.array([[1.0, 0.1], [0.0, 1.0]])
    assert not check_orthonormal(Q)
    assert check_orthonormal(np.zeros((3, 0)))


def test_extend_matches_the_column_stack_reference_bitwise():
    # one concatenate per kept column gives the bytes, shape and C order of
    # the loop that rebuilt its span with np.column_stack, on random and
    # integer columns, more columns than rows and a Fortran-order Q included
    for seed in range(60):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 61))
        k = int(rng.integers(0, d + 4))
        V = rng.standard_normal((d, k)) if seed % 2 else rng.integers(-2, 3, (d, k)).astype(float)
        cutoff = TAU_RANK * float(np.max(np.linalg.norm(V, axis=0), initial=0.0))
        Q = orthonormal_columns(V)
        ref = column_stack_extend(np.zeros((d, 0)), V, cutoff, k)
        assert Q.shape == ref.shape and Q.flags.c_contiguous and Q.tobytes() == ref.tobytes()
        r = Q.shape[1]
        for start in (Q, np.asfortranarray(Q)):
            full = column_stack_extend(start, np.eye(d), COMPLETE_TOL, d - r)
            assert complete_basis(start).tobytes() == np.ascontiguousarray(full[:, r:]).tobytes()
        if r < d:
            v = rng.standard_normal(d)
            ref = column_stack_extend(Q, v[:, None], 1e-6, 1)
            assert extend(Q, v[:, None], 1e-6).tobytes() == ref.tobytes()
