"""Accelerated proximal-gradient (FISTA) solver for the LASSO problem

    min_beta ||H·beta - X||_F^2 + lambda·||beta||_1

used to train the sparse autoencoder output weights. The solver takes the
problem in its Gram form (HᵀH, HᵀX, ||X||²), so per-iteration cost is
O(L²·D) independent of the sample count, and its settings as arguments:
lambda, and the stop rule's eps and max_iter (a step < eps, or max_iter).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Fraction of the largest step acceleration tolerates (see fista_solve).
STEP_FRACTION = 0.9


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


def fista_solve(G: np.ndarray, F: np.ndarray, target_sq, lam: float,
                eps: float = 1e-6, max_iter: int = 500) -> FistaResult:
    """For finite float64 matrices H (K x L) and X (K x D), given in the
    Gram form that every iteration and the objective use: G = HᵀH (L x L),
    F = HᵀX (L x D) and target_sq = ||X||_F². The caller forms them, so
    members that share X share one ||X||² and one product for their F.
    lam is lambda (finite, >= 0), eps >= 0 and max_iter >= 1 the stop
    rule's tolerance and cap. Iterate the accelerated proximal-gradient scheme

        c_k      = y_k - 2·gamma·(G·y_k - F)
        beta_k+1 = soft_threshold(c_k, lambda·gamma)
        t_k+1    = (1 + sqrt(1 + 4·t_k²)) / 2
        y_k+1    = beta_k+1 + ((t_k - 1)/t_k+1)·(beta_k+1 - beta_k)

    with the gradient restart of O'Donoghue & Candès (2015): when
    <y_k - beta_k+1, beta_k+1 - beta_k> > 0 the momentum points uphill, and
    t_k+1 = 1, y_k+1 = beta_k+1 instead; without it, solves at lambda > 0 on
    the benchmark's layers ran past 500 iterations. The iteration starts
    from beta_0 = y_0 = G⁻¹F, the least-squares solution by Cholesky on G
    (the optimum at lambda = 0), or from zero when G is not positive
    definite; the iterates then stay in H's row space and at lambda = 0
    approach the minimum-norm least-squares solution. It stops
    when ||beta_k - beta_k+1||_2 < eps or at max_iter. The momentum term
    extrapolates forward along the last step; with the difference reversed
    the method degrades to damped ISTA and stalls ~1e-4 short on
    rank-deficient problems. The step
    gamma = STEP_FRACTION / (2·(1 + lambda_max)) keeps gamma below 1 / L_f
    for the gradient Lipschitz constant L_f = 2·lambda_max(G), which
    acceleration requires; the looser 2 / L_f bound that plain gradient
    descent tolerates is not safe here. lambda_max is the top eigenvalue of
    the L x L Gram from eigvalsh, accurate to rounding; an iterative
    estimate approaches it from below, which would make gamma too large.

    The reported objective is ||H·beta - X||_F² + lambda·||beta||_1,
    computed from G, F and target_sq:
    ||X||² - 2·<beta, F> + <beta, G·beta> + lambda·||beta||_1. Its absolute
    rounding error scales with ||X||², so when beta reconstructs X almost
    exactly the relative error of a near-zero objective grows accordingly.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError("lambda must be finite and >= 0")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if G.ndim != 2 or F.ndim != 2 or G.shape != (F.shape[0],) * 2:
        raise ValueError(f"G is {G.shape}, F {F.shape}: "
                         "expected L x L and L x D")

    gamma = STEP_FRACTION / (2.0 * (1.0 + np.linalg.eigvalsh(G)[-1]))
    thresh = lam * gamma

    try:
        beta = cho_solve(cho_factor(G, lower=True), F)
    except np.linalg.LinAlgError:
        beta = np.zeros_like(F)
    y = beta.copy()
    t = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
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
        if np.linalg.norm(step) < eps:
            converged = True
            break
    objective = (target_sq + np.vdot(beta, G @ beta - 2.0 * F)
                 + lam * np.abs(beta).sum())
    return FistaResult(beta=beta, converged=converged, iterations=it,
                       objective=float(objective))
