"""Accelerated proximal-gradient (FISTA) solver for the LASSO problem

    min_beta ||H·beta - X||_F^2 + lambda·||beta||_1

used to train the sparse autoencoder output weights. The gradient work is
done on the precomputed Gram matrix HᵀH, so per-iteration cost is O(L²·D)
independent of the sample count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import as_matrix


@dataclass(frozen=True)
class FistaParams:
    lam: float
    delta: float = 0.9
    eps: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly inside (0, 1)")
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
    c = np.asarray(c, dtype=np.float64)
    return np.sign(c) * np.maximum(np.abs(c) - t, 0.0)


def lasso_objective(H, X, beta, lam: float) -> float:
    R = H @ beta - X
    return float(np.sum(R * R) + lam * np.sum(np.abs(beta)))


def gram_lambda_max(G, iters: int = 100, tol: float = 1e-10) -> float:
    """Largest eigenvalue of a PSD matrix by power iteration
    (100 iterations or 1e-10 relative change)."""
    n = G.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    for _ in range(iters):
        w = G @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(nw - lam) <= tol * max(nw, 1.0):
            return nw
        lam = nw
    return lam


def fista_solve(H, X_target, params: FistaParams,
                beta0: np.ndarray | None = None) -> FistaResult:
    """Iterate the accelerated proximal-gradient scheme

        c_k      = y_k - 2·gamma·Hᵀ(H·y_k - X)
        beta_k+1 = soft_threshold(c_k, lambda·gamma)
        t_k+1    = (1 + sqrt(1 + 4·t_k²)) / 2
        y_k+1    = beta_k+1 + ((t_k - 1)/t_k+1)·(beta_k+1 - beta_k)

    until ||beta_k - beta_k+1||_2 < eps or max_iter. The momentum term
    extrapolates forward along the last step; with the difference reversed
    the method degrades to damped ISTA and stalls ~1e-4 short on
    rank-deficient problems. The step gamma = delta / (2·(1 + lambda_max))
    keeps gamma below 1 / L_f for the gradient Lipschitz constant
    L_f = 2·lambda_max(HᵀH), which acceleration requires; the looser 2 / L_f
    bound that plain gradient descent tolerates is not safe here.
    """
    H = as_matrix(H, "H")
    X = as_matrix(X_target, "X_target")
    if H.shape[0] != X.shape[0]:
        raise ValueError("H and X_target row counts differ")
    L, D = H.shape[1], X.shape[1]

    G = H.T @ H
    F = H.T @ X
    gamma = params.delta / (2.0 * (1.0 + gram_lambda_max(G)))
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
                       objective=lasso_objective(H, X, beta, params.lam))
