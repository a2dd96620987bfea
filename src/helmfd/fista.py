"""Accelerated proximal-gradient (FISTA) solver for the LASSO problem

    min_beta ||H·beta - X||_F^2 + lambda·||beta||_1

used to train the sparse autoencoder output weights. The gradient work is
done on the precomputed Gram matrix HᵀH, so per-iteration cost is O(L²·D)
independent of the sample count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fraction of the largest step acceleration tolerates (see fista_solve).
STEP_FRACTION = 0.9


@dataclass(frozen=True)
class FistaParams:
    lam: float
    eps: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
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
    R = H @ beta - X
    return float(np.sum(R * R) + lam * np.sum(np.abs(beta)))


def fista_solve(H: np.ndarray, X_target: np.ndarray, params: FistaParams,
                beta0: np.ndarray | None = None) -> FistaResult:
    """For finite float64 matrices H (K x L) and X_target (K x D), iterate
    the accelerated proximal-gradient scheme

        c_k      = y_k - 2·gamma·Hᵀ(H·y_k - X)
        beta_k+1 = soft_threshold(c_k, lambda·gamma)
        t_k+1    = (1 + sqrt(1 + 4·t_k²)) / 2
        y_k+1    = beta_k+1 + ((t_k - 1)/t_k+1)·(beta_k+1 - beta_k)

    until ||beta_k - beta_k+1||_2 < eps or max_iter. The momentum term
    extrapolates forward along the last step; with the difference reversed
    the method degrades to damped ISTA and stalls ~1e-4 short on
    rank-deficient problems. The step
    gamma = STEP_FRACTION / (2·(1 + lambda_max)) keeps gamma below 1 / L_f
    for the gradient Lipschitz constant L_f = 2·lambda_max(HᵀH), which
    acceleration requires; the looser 2 / L_f bound that plain gradient
    descent tolerates is not safe here. lambda_max is the top eigenvalue of
    the L x L Gram from eigvalsh, accurate to rounding; an iterative
    estimate approaches it from below, which would make gamma too large.
    """
    if H.shape[0] != X_target.shape[0]:
        raise ValueError("H and X_target row counts differ")
    L, D = H.shape[1], X_target.shape[1]

    G = H.T @ H
    F = H.T @ X_target
    gamma = STEP_FRACTION / (2.0 * (1.0 + np.linalg.eigvalsh(G)[-1]))
    thresh = params.lam * gamma

    beta = np.zeros((L, D)) if beta0 is None else np.array(beta0, dtype=np.float64)
    if beta.shape != (L, D):
        raise ValueError("beta0 shape mismatch")
    y = beta.copy()
    t = 1.0
    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        c = y - 2.0 * gamma * (G @ y - F)
        beta_new = soft_threshold(c, thresh)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = beta_new + ((t - 1.0) / t_new) * (beta_new - beta)
        crit = np.linalg.norm(beta - beta_new)
        beta, t = beta_new, t_new
        if crit < params.eps:
            converged = True
            break
    return FistaResult(beta=beta, converged=converged, iterations=it,
                       objective=lasso_objective(H, X_target, beta, params.lam))
