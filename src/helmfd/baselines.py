"""Reference detectors the hierarchical model is compared against.

Both baselines are HELMs without autoencoder layers, trained by
helm.train_members into a helm.Ensemble that run_ensemble scores and helm's
persistence stores:
  * the one-class ELM's members have no feature map, straight on the
    (normalized) inputs, and
  * PCA-ELM's members share one map, a rescaled PCA basis.
Each family has one trainer, which only prepares the inputs, once for all
members: the normalization, and for PCA-ELM the PCA and the code scaling.
Both receive the same fairness treatment as the hierarchical model: their
head inputs are rescaled so the random layer's pre-activations land in the
sigmoid's responsive range, with the rescale folded into stored parameters
so the run-time math stays a plain forward pass.
"""
from __future__ import annotations

import numpy as np

from .data import (NormalizationStats, RngStream, apply_normalization,
                   as_matrix, fit_normalization)
from .helm import Ensemble, run_ensemble, train_members

# Target standard deviation of the head's pre-activations. A random +-1
# uniform weight vector against D unit-variance inputs has pre-activation
# std sqrt(D/3); dividing inputs by sqrt(D/3)/2.6 pins that spread at 2.6
# regardless of D, keeping the sigmoids off their flat tails.
HEAD_PREACT_SPREAD = 2.6

# Share of the total variance past which pca_fit keeps no more components.
PCA_VARIANCE_CAP = 0.99


def input_scale(dim: int) -> float:
    return HEAD_PREACT_SPREAD / np.sqrt(dim / 3.0)


# --- PCA --------------------------------------------------------------------

def pca_fit(X: np.ndarray, l_pca: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean, components) of X, a finite float64 K x D ndarray: its column
    means and a D x L matrix of orthonormal principal directions, largest
    variance first, so the codes of X are (X - mean) @ components. L is at
    most l_pca, further capped so the kept components explain no more than
    PCA_VARIANCE_CAP of total variance (at least one is always kept)."""
    if l_pca < 1:
        raise ValueError("l_pca must be >= 1")
    if X.shape[0] < 2:
        raise ValueError("pca_fit needs at least two rows")
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = (Xc.T @ Xc) / (X.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]

    total = evals.sum()
    if total <= 0:
        keep = 1
    else:
        ratio = np.cumsum(evals) / total
        keep = int(np.searchsorted(ratio, PCA_VARIANCE_CAP) + 1)
        keep = max(1, min(keep, evals.shape[0]))
    L = max(1, min(l_pca, keep))
    return mean, evecs[:, :L]


# --- one-class ELM ----------------------------------------------------------

def one_class_train_ensemble(X_train, width: int, C: float, stream: RngStream,
                             size: int) -> Ensemble:
    """`size` members with no feature map, member m a random layer and a
    ridge head against the constant target 1 drawn from stream.child(m).
    X_train is normalized once for all of them, the spread-pinning input
    scale for its width folded into the stored normalization."""
    X = as_matrix(X_train, "X_train")
    norm = fit_normalization(X)
    norm = NormalizationStats(mean=norm.mean,
                              std=norm.std / input_scale(X.shape[1]))
    return train_members(norm, apply_normalization(X, norm),
                         [stream.child(m) for m in range(size)],
                         (width,), 0.0, C)


# bench/tracing.py's baselines.one_class_train span wraps this name
one_class_train = one_class_train_ensemble


def one_class_run(model: Ensemble, X) -> np.ndarray:
    """run_ensemble under its old name. Only bench/tracing.py's TARGETS
    names it, until ROADMAP item 3 deletes it."""
    return run_ensemble(model, X)


# --- PCA + one-class ELM ----------------------------------------------------

def pca_elm_train_ensemble(X_train, l_pca: int, width: int, C: float,
                           stream: RngStream, size: int) -> Ensemble:
    """PCA on z-scored inputs, codes rescaled to unit train std, then `size`
    one-class heads, member m's drawn from stream.child(m). The members
    share the deterministic steps, done once: one map, (components /
    code_scale)ᵀ, and a normalization whose mean absorbs the PCA mean."""
    X = as_matrix(X_train, "X_train")
    norm = fit_normalization(X)
    x = apply_normalization(X, norm)
    mean, components = pca_fit(x, l_pca)
    codes = (x - mean) @ components
    code_scale = codes.std(axis=0)
    code_scale = np.where(code_scale < 1e-12, 1.0, code_scale)
    codes = codes / code_scale
    beta = (components / code_scale).T
    norm = NormalizationStats(mean=norm.mean + mean * norm.std,
                              std=norm.std)
    return train_members(norm, codes, [stream.child(m) for m in range(size)],
                         (width,), 0.0, C, maps=[beta])


# bench/tracing.py's baselines.pca_elm_train span wraps this name
pca_elm_train = pca_elm_train_ensemble


def pca_elm_run(model: Ensemble, X) -> np.ndarray:
    """run_ensemble under its old name. Only bench/tracing.py's TARGETS
    names it, until ROADMAP item 3 deletes it."""
    return run_ensemble(model, X)
