"""Accelerated proximal-gradient (FISTA) solver for the LASSO problem

    min_beta ||H·beta - X||_F^2 + lambda·||beta||_1

used to train the sparse autoencoder output weights. The gradient work is
done on the precomputed Gram matrix HᵀH, so per-iteration cost is O(L²·D)
independent of the sample count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Fraction of the largest step acceleration tolerates (see fista_solve).
STEP_FRACTION = 0.9


@dataclass(frozen=True)
class FistaParams:
    lam: float
    eps: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lambda must be finite and >= 0")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class FistaResult:
    beta: np.ndarray
    converged: bool
    iterations: int
    objective: float


def soft_threshold(c, t: float) -> np.ndarray:
    """Elementwise max(|c| - t, 0) · sign(c)."""
    if t < 0:
        raise ValueError("threshold must be >= 0")
    return np.sign(c) * np.maximum(np.abs(c) - t, 0.0)


def lasso_objective(H, X, beta, lam: float) -> float:
    """||H·beta - X||_F² + lam·||beta||_1, from the K x D residual."""
    R = H @ beta - X
    return float(np.sum(R * R) + lam * np.sum(np.abs(beta)))


def fista_solve(H: np.ndarray, X_target: np.ndarray,
                params: FistaParams) -> FistaResult:
    """For finite float64 matrices H (K x L) and X_target (K x D), iterate
    the accelerated proximal-gradient scheme

        c_k      = y_k - 2·gamma·Hᵀ(H·y_k - X)
        beta_k+1 = soft_threshold(c_k, lambda·gamma)
        t_k+1    = (1 + sqrt(1 + 4·t_k²)) / 2
        y_k+1    = beta_k+1 + ((t_k - 1)/t_k+1)·(beta_k+1 - beta_k)

    with the gradient restart of O'Donoghue & Candès (2015): when
    <y_k - beta_k+1, beta_k+1 - beta_k> > 0 the momentum points uphill, and
    t_k+1 = 1, y_k+1 = beta_k+1 instead; without it, solves at lambda > 0 on
    the benchmark's layers ran past 500 iterations. The iteration starts
    from beta_0 = y_0 = G⁻¹F, the least-squares solution by Cholesky on the
    Gram G = HᵀH with F = HᵀX (the optimum at lambda = 0), or from zero when
    G is not positive definite; the iterates then stay in H's row space and
    at lambda = 0 approach the minimum-norm least-squares solution. It stops
    when ||beta_k - beta_k+1||_2 < eps or at max_iter. The momentum term
    extrapolates forward along the last step; with the difference reversed
    the method degrades to damped ISTA and stalls ~1e-4 short on
    rank-deficient problems. The step
    gamma = STEP_FRACTION / (2·(1 + lambda_max)) keeps gamma below 1 / L_f
    for the gradient Lipschitz constant L_f = 2·lambda_max(HᵀH), which
    acceleration requires; the looser 2 / L_f bound that plain gradient
    descent tolerates is not safe here. lambda_max is the top eigenvalue of
    the L x L Gram from eigvalsh, accurate to rounding; an iterative
    estimate approaches it from below, which would make gamma too large.

    The reported objective is lasso_objective(H, X_target, beta, lambda)
    computed from the G and F that the iterations use:
    ||X||² - 2·<beta, F> + <beta, G·beta> + lambda·||beta||_1. Its absolute
    rounding error scales with ||X||², so when beta reconstructs X almost
    exactly the relative error of a near-zero objective grows accordingly.
    """
    if H.shape[0] != X_target.shape[0]:
        raise ValueError("H and X_target row counts differ")

    G = H.T @ H
    F = H.T @ X_target
    gamma = STEP_FRACTION / (2.0 * (1.0 + np.linalg.eigvalsh(G)[-1]))
    thresh = params.lam * gamma

    try:
        beta = cho_solve(cho_factor(G, lower=True), F)
    except np.linalg.LinAlgError:
        beta = np.zeros_like(F)
    y = beta.copy()
    t = 1.0
    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        c = y - 2.0 * gamma * (G @ y - F)
        beta_new = soft_threshold(c, thresh)
        step = beta_new - beta
        if np.vdot(y - beta_new, step) > 0:
            t, y = 1.0, beta_new
        else:
            t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = beta_new + ((t - 1.0) / t_new) * step
            t = t_new
        beta = beta_new
        if np.linalg.norm(step) < params.eps:
            converged = True
            break
    objective = (np.vdot(X_target, X_target) + np.vdot(beta, G @ beta - 2.0 * F)
                 + params.lam * np.abs(beta).sum())
    return FistaResult(beta=beta, converged=converged, iterations=it,
                       objective=float(objective))
