"""Reference detectors the hierarchical model is compared against.

Both baselines are HELMs without autoencoder layers, trained by
helm.train_members into a helm.Ensemble that run_ensemble scores and helm's
persistence stores:
  * the one-class ELM's members have no feature map, straight on the
    (normalized) inputs, and
  * PCA-ELM's members share one map, a rescaled PCA basis.
Each family's trainers only prepare the inputs, once for all members: the
normalization, and for PCA-ELM the PCA and the code scaling.
Both receive the same fairness treatment as the hierarchical model: their
head inputs are rescaled so the random layer's pre-activations land in the
sigmoid's responsive range, with the rescale folded into stored parameters
so the run-time math stays a plain forward pass.
"""
from __future__ import annotations

from dataclasses import dataclass

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

@dataclass
class PcaModel:
    mean: np.ndarray                 # feature means of the training data
    components: np.ndarray           # D x L, orthonormal columns
    explained_variance: np.ndarray   # descending, one per kept component

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Codes of X, a finite float64 K x D ndarray."""
        if X.shape[1] != self.mean.shape[0]:
            raise ValueError("dimension mismatch in pca transform")
        return (X - self.mean) @ self.components


def pca_fit(X: np.ndarray, l_pca: int) -> PcaModel:
    """Principal components of X, a finite float64 K x D ndarray: at most
    l_pca, further capped so the kept components explain no more than
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
    return PcaModel(mean=mean, components=evecs[:, :L],
                    explained_variance=evals[:L])


# --- one-class ELM ----------------------------------------------------------

def one_class_train(X_train, width: int, C: float, rng: RngStream) -> Ensemble:
    """Single random layer plus ridge head against the constant target 1,
    drawn from rng's generator: a 1-member Ensemble with no feature map. The
    spread-pinning input scale for the data's width is folded into the
    stored normalization."""
    return _one_class_members(X_train, width, C, [rng])


def one_class_train_ensemble(X_train, width: int, C: float, stream: RngStream,
                             size: int) -> Ensemble:
    """`size` members: member m is bitwise one_class_train on
    stream.child(m), with X_train normalized once for all of them."""
    return _one_class_members(X_train, width, C,
                              [stream.child(m) for m in range(size)])


def _one_class_members(X_train, width: int, C: float, streams) -> Ensemble:
    X = as_matrix(X_train, "X_train")
    norm = fit_normalization(X)
    norm = NormalizationStats(mean=norm.mean,
                              std=norm.std / input_scale(X.shape[1]))
    return train_members(norm, apply_normalization(X, norm), streams,
                         (width,), 0.0, C)


def one_class_run(model: Ensemble, X) -> np.ndarray:
    """run_ensemble under its old name. Only bench/tracing.py's TARGETS
    still names it; nothing in helmfd calls it."""
    return run_ensemble(model, X)


# --- PCA + one-class ELM ----------------------------------------------------

def pca_elm_train(X_train, l_pca: int, width: int, C: float,
                  rng: RngStream) -> Ensemble:
    """PCA on z-scored inputs, codes rescaled to unit train std, then the
    one-class head drawn from rng's generator, as a 1-member Ensemble. Its
    one map is (components / code_scale)ᵀ, and its normalization mean
    absorbs the PCA mean."""
    return _pca_elm_members(X_train, l_pca, width, C, [rng])


def pca_elm_train_ensemble(X_train, l_pca: int, width: int, C: float,
                           stream: RngStream, size: int) -> Ensemble:
    """`size` members: member m is bitwise pca_elm_train on stream.child(m).
    The normalization, PCA and code scaling are deterministic, so they are
    done once and the members share them; only the heads differ."""
    return _pca_elm_members(X_train, l_pca, width, C,
                            [stream.child(m) for m in range(size)])


def _pca_elm_members(X_train, l_pca: int, width: int, C: float,
                     streams) -> Ensemble:
    X = as_matrix(X_train, "X_train")
    norm = fit_normalization(X)
    x = apply_normalization(X, norm)
    pca = pca_fit(x, l_pca)
    codes = pca.transform(x)
    code_scale = codes.std(axis=0)
    code_scale = np.where(code_scale < 1e-12, 1.0, code_scale)
    codes = codes / code_scale
    beta = (pca.components / code_scale).T
    norm = NormalizationStats(mean=norm.mean + pca.mean * norm.std,
                              std=norm.std)
    return train_members(norm, codes, streams, (width,), 0.0, C, maps=[beta])


def pca_elm_run(model: Ensemble, X) -> np.ndarray:
    """run_ensemble under its old name. Only bench/tracing.py's TARGETS
    still names it; nothing in helmfd calls it."""
    return run_ensemble(model, X)
