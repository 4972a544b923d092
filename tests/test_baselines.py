import numpy as np
import pytest

from helpers import small_lp
from lpslice import SolveStatus, solve_lp
from lpslice.baselines import pca_projection, random_projection, solve_projected
from lpslice.linalg import check_orthonormal, subspace_gap


def test_random_projection_shape_and_determinism():
    P1 = random_projection(6, 3, seed=0)
    P2 = random_projection(6, 3, seed=0)
    assert P1.shape == (6, 3)
    assert check_orthonormal(P1)
    assert np.array_equal(P1, P2)
    assert not np.array_equal(P1, random_projection(6, 3, seed=1))


def test_full_rank_random_projection_is_exact(square):
    P = random_projection(2, 2, seed=4)
    for c in (np.array([-1.5, 0.3]), np.array([0.7, 0.9])):
        r = solve_projected(square, c, P)
        assert r.status is SolveStatus.OPTIMAL
        assert r.value == pytest.approx(solve_lp(square, c).value, rel=1e-9)


def test_pca_projection_single_direction():
    s = np.array([3.0, 4.0])
    sols = [s, s, s]
    P = pca_projection(sols, k=1)
    assert P.shape == (2, 1)
    assert np.allclose(P[:, 0], s / np.linalg.norm(s))


def test_pca_projection_recovers_plane():
    rng = np.random.default_rng(8)
    B = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    sols = [B @ rng.standard_normal(2) for _ in range(12)]
    P = pca_projection(sols, k=2)
    assert subspace_gap(P, B) < 1e-8


def test_pca_projection_sign_convention_and_padding():
    s = np.array([0.0, -2.0, 0.0])
    P = pca_projection([s, 2 * s], k=3)
    # largest-magnitude entry of each column is made positive
    for j in range(3):
        col = P[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0
    # rank-1 data padded to k=3 with completion directions
    assert check_orthonormal(P)
    assert P.shape == (3, 3)


def test_pca_projection_determinism():
    rng = np.random.default_rng(3)
    sols = [rng.standard_normal(4) for _ in range(9)]
    a = pca_projection(sols, k=2)
    b = pca_projection(list(sols), k=2)
    assert np.array_equal(a, b)


def test_solve_projected_restriction_property():
    rng = np.random.default_rng(12)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        p = small_lp(rng, d, int(rng.integers(d + 1, 7)))
        c = rng.standard_normal(d)
        full = solve_lp(p, c).value
        for k in range(1, d + 1):
            P = random_projection(d, k, seed=int(rng.integers(1000)))
            r = solve_projected(p, c, P)
            if r.status is SolveStatus.OPTIMAL:
                assert r.value >= full - 1e-9 * (1.0 + abs(full))
                assert np.all(p.A @ r.x <= p.b + 1e-6 * (1.0 + np.abs(p.b)))
        # k = d is always exact
        r = solve_projected(p, c, random_projection(d, d, seed=0))
        assert r.value == pytest.approx(full, rel=1e-9, abs=1e-9)


def test_solve_projected_infeasible_slice_passes_through():
    # the box 2 <= x1 <= 3, |x2| <= 1 misses the x2 axis entirely
    from lpslice import Polytope

    p = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([3.0, -2.0, 1.0, 1.0]))
    r = solve_projected(p, np.array([1.0, 1.0]), np.array([[0.0], [1.0]]))
    assert r.status is SolveStatus.INFEASIBLE
    # a P with the wrong row count is refused
    with pytest.raises(ValueError):
        solve_projected(p, np.array([1.0, 1.0]), np.array([[0.0], [1.0], [0.0]]))

