"""Reference detectors the hierarchical model is compared against.

Both baselines train helm.HelmModel members, so helm_run scores them and
helm's persistence stores them:
  * the one-class ELM is a member with no feature map, straight on the
    (normalized) inputs, and
  * PCA-ELM is a member whose one map is a rescaled PCA basis.
Each has a single-member trainer and an ensemble trainer. The ensemble
trainer does the work its members share once: the normalization, and for
PCA-ELM the PCA and the code scaling.
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
from .helm import Ensemble, HelmModel, helm_run, train_head

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

def one_class_train(X_train, width: int, C: float, rng: RngStream) -> HelmModel:
    """Single random layer plus ridge head against the constant target 1: a
    member with no feature map. The spread-pinning input scale for the data's
    width is folded into the stored normalization."""
    (model,) = _one_class_members(X_train, width, C, [rng])
    return model


def one_class_train_ensemble(X_train, width: int, C: float, stream: RngStream,
                             size: int) -> Ensemble:
    """`size` members: member m is bitwise one_class_train on
    stream.child(m), with X_train normalized once for all of them."""
    return Ensemble(_one_class_members(
        X_train, width, C, [stream.child(m) for m in range(size)]))


def _one_class_members(X_train, width: int, C: float, streams) -> list:
    X = as_matrix(X_train, "X_train")
    norm = fit_normalization(X)
    norm = NormalizationStats(mean=norm.mean,
                              std=norm.std / input_scale(X.shape[1]))
    x = apply_normalization(X, norm)
    return [HelmModel(ae_betas=[],
                      top_layer=train_head(x, width, C, s.generator()),
                      norm=norm)
            for s in streams]


def one_class_run(model: HelmModel, X) -> np.ndarray:
    """helm_run under its old name. Only bench/tracing.py's TARGETS still
    names it; nothing in helmfd calls it."""
    return helm_run(model, X)


# --- PCA + one-class ELM ----------------------------------------------------

def pca_elm_train(X_train, l_pca: int, width: int, C: float,
                  rng: RngStream) -> HelmModel:
    """PCA on z-scored inputs, codes rescaled to unit train std, then the
    one-class head. The member's one map is (components / code_scale)ᵀ,
    C-contiguous like a map read back from a model file, and its
    normalization mean absorbs the PCA mean."""
    (model,) = _pca_elm_members(X_train, l_pca, width, C, [rng])
    return model


def pca_elm_train_ensemble(X_train, l_pca: int, width: int, C: float,
                           stream: RngStream, size: int) -> Ensemble:
    """`size` members: member m is bitwise pca_elm_train on stream.child(m).
    The normalization, PCA and code scaling are deterministic, so they are
    done once and the members share them; only the heads differ."""
    return Ensemble(_pca_elm_members(
        X_train, l_pca, width, C, [stream.child(m) for m in range(size)]))


def _pca_elm_members(X_train, l_pca: int, width: int, C: float,
                     streams) -> list:
    X = as_matrix(X_train, "X_train")
    norm = fit_normalization(X)
    x = apply_normalization(X, norm)
    pca = pca_fit(x, l_pca)
    codes = pca.transform(x)
    code_scale = codes.std(axis=0)
    code_scale = np.where(code_scale < 1e-12, 1.0, code_scale)
    codes = codes / code_scale
    beta = np.ascontiguousarray((pca.components / code_scale).T)
    norm = NormalizationStats(mean=norm.mean + pca.mean * norm.std,
                              std=norm.std)
    return [HelmModel(ae_betas=[beta],
                      top_layer=train_head(codes, width, C, s.generator()),
                      norm=norm)
            for s in streams]


def pca_elm_run(model: HelmModel, X) -> np.ndarray:
    """helm_run under its old name. Only bench/tracing.py's TARGETS still
    names it; nothing in helmfd calls it."""
    return helm_run(model, X)
