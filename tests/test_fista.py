import numpy as np
import pytest
from oracles import cd_lasso

from helmfd.elm import ridge_solve
from helmfd.fista import (STEP_FRACTION, FistaParams, fista_solve,
                          lasso_objective, soft_threshold)


def cd_objective(H, X, lam):
    return lasso_objective(H, X, cd_lasso(H, X, lam), lam)


class TestSoftThreshold:
    def test_shrinks_toward_zero(self):
        assert soft_threshold(np.array(3.0), 1.0) == 2.0
        assert soft_threshold(np.array(-3.0), 1.0) == -2.0
        assert soft_threshold(np.array(0.5), 1.0) == 0.0

    def test_vectorized(self):
        out = soft_threshold(np.array([-2.0, -0.3, 0.0, 0.3, 2.0]), 0.5)
        assert np.allclose(out, [-1.5, 0.0, 0.0, 0.0, 1.5])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.array(1.0), -0.1)


def test_scalar_problem_has_known_solution():
    # (beta - 1)^2 + 0.5*|beta| is minimized at beta = 0.75; cross-check the
    # closed form with a brute-force grid before trusting the solver
    H = np.array([[1.0]])
    X = np.array([[1.0]])
    grid = np.linspace(-2.0, 2.0, 400001)
    vals = (grid - 1.0) ** 2 + 0.5 * np.abs(grid)
    assert abs(grid[np.argmin(vals)] - 0.75) < 1e-4

    res = fista_solve(H, X, FistaParams(lam=0.5, eps=1e-12, max_iter=5000))
    assert res.converged
    assert abs(res.beta[0, 0] - 0.75) < 1e-6


def test_matches_coordinate_descent_oracle():
    rng = np.random.default_rng(10)
    for _ in range(8):
        K = int(rng.integers(8, 40))
        L = int(rng.integers(2, 9))
        D = int(rng.integers(1, 6))
        H = rng.normal(size=(K, L))
        X = rng.normal(size=(K, D))
        lam = float(rng.choice([1e-3, 1e-2, 1e-1, 1.0]))
        res = fista_solve(H, X, FistaParams(lam=lam, eps=1e-12, max_iter=20000))
        ours = lasso_objective(H, X, res.beta, lam)
        oracle = cd_objective(H, X, lam)
        assert abs(ours - oracle) <= 1e-6


def test_objective_no_worse_than_zero_and_first_step():
    rng = np.random.default_rng(11)
    H = rng.normal(size=(30, 6))
    X = rng.normal(size=(30, 4))
    lam = 0.1
    params = FistaParams(lam=lam)
    res = fista_solve(H, X, params)
    at_zero = lasso_objective(H, X, np.zeros((6, 4)), lam)

    G = H.T @ H
    gamma = STEP_FRACTION / (2.0 * (1.0 + np.linalg.eigvalsh(G)[-1]))
    first = soft_threshold(2.0 * gamma * (H.T @ X), lam * gamma)
    at_first = lasso_objective(H, X, first, lam)

    final = lasso_objective(H, X, res.beta, lam)
    assert final <= at_zero + 1e-12
    assert final <= at_first + 1e-12


def test_sparsity_monotone_in_lam():
    # zero count of the converged solution is non-decreasing across the
    # penalty grid the detector is swept over
    rng = np.random.default_rng(12)
    H = rng.normal(size=(50, 8))
    X = rng.normal(size=(50, 8))
    zeros = []
    for lam in (1e-5, 1e-3, 1e-2, 1e-1, 1.0):
        res = fista_solve(H, X, FistaParams(lam=lam, eps=1e-10, max_iter=20000))
        zeros.append(int(np.sum(res.beta == 0.0)))
    assert zeros == sorted(zeros)


def test_full_rank_solve_starts_at_least_squares_optimum():
    # at lambda = 0 the least-squares start is the optimum, so one step
    # confirms it and beta is the ridge solve's
    rng = np.random.default_rng(13)
    H = rng.normal(size=(40, 5))
    X = rng.normal(size=(40, 3))
    res = fista_solve(H, X, FistaParams(lam=0.0))
    assert res.converged and res.iterations == 1
    assert np.max(np.abs(res.beta - ridge_solve(H, X, 0.0))) <= 1e-12


def test_rank_deficient_solve_reaches_minimum_norm_least_squares():
    # K < L: the Gram is singular and Cholesky rejects it, so the solve
    # starts from zero and stays in H's row space
    rng = np.random.default_rng(13)
    H = rng.normal(size=(6, 9))
    X = rng.normal(size=(6, 3))
    res = fista_solve(H, X, FistaParams(lam=0.0, eps=1e-12, max_iter=20000))
    assert res.converged
    want = np.linalg.lstsq(H, X, rcond=None)[0]
    assert np.max(np.abs(res.beta - want)) <= 1e-8


@pytest.mark.parametrize("lam", [1e-2, 1e-1, 1.0])
def test_rank_deficient_penalized_solve_matches_oracle(lam):
    # from the zero start the gradient restart can fire from the first steps
    # on, so check where it ends against the coordinate-descent oracle
    rng = np.random.default_rng(13)
    H = rng.normal(size=(6, 9))
    X = rng.normal(size=(6, 3))
    res = fista_solve(H, X, FistaParams(lam=lam, eps=1e-12, max_iter=20000))
    assert res.converged
    assert abs(lasso_objective(H, X, res.beta, lam)
               - cd_objective(H, X, lam)) <= 1e-10


def test_converged_flag_reflects_iteration_budget():
    rng = np.random.default_rng(14)
    H = rng.normal(size=(20, 5))
    X = rng.normal(size=(20, 2))
    res = fista_solve(H, X, FistaParams(lam=0.01, eps=1e-14, max_iter=1))
    assert not res.converged
    assert res.iterations == 1


def test_large_scale_input_stays_finite():
    # wide dynamic range must not overflow the gradient steps
    rng = np.random.default_rng(15)
    H = rng.normal(size=(200, 40)) * 50.0
    X = rng.normal(size=(200, 10))
    res = fista_solve(H, X, FistaParams(lam=1e-2))
    assert np.all(np.isfinite(res.beta))


def test_params_validation():
    with pytest.raises(ValueError):
        FistaParams(lam=-1.0)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            FistaParams(lam=lam)
    with pytest.raises(ValueError):
        FistaParams(lam=0.1, max_iter=0)


@pytest.mark.parametrize("lam", [0.0, 1e-2, 1.0])
def test_reported_objective_equals_lasso_objective(lam):
    # fista_solve takes the objective from the Gram it iterates on; it must
    # be the residual form's value
    rng = np.random.default_rng(16)
    H = 1.0 / (1.0 + np.exp(-rng.normal(size=(500, 20))))
    X = rng.normal(size=(500, 40))
    res = fista_solve(H, X, FistaParams(lam=lam, max_iter=50))
    want = lasso_objective(H, X, res.beta, lam)
    assert abs(res.objective - want) <= 1e-12 * want
