"""Hierarchical ELM: sparse autoencoders stacked under a one-class ELM head.

Training (per model): for each autoencoder layer, draw a random hidden layer,
solve the LASSO reconstruction problem for its output weights, and feed the
learned features forward as x_{i+1} = x_i · beta_iᵀ. The final layer is a
plain ELM trained by ridge regression against the constant target 1. At run
time the autoencoder stages are the linear maps beta_iᵀ alone (no activation);
only the head applies its nonlinearity. This asymmetry is deliberate and load
bearing: the stored beta_i ARE the feature map.

Detection quality depends on the head's sigmoids staying in their responsive
range, so each learned feature column is rescaled to a fixed span before the
head sees it; the rescale is folded into beta_i, keeping the run-time math
exactly x_{i+1} = x_i · beta_iᵀ.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (NormalizationStats, RngStream, apply_normalization,
                   as_matrix, fit_normalization)
from .elm import ElmLayer, hidden, random_layer, ridge_solve
from .fista import FistaParams, fista_solve

# Feature span fed to the one-class head: each autoencoder output column is
# scaled so its training max-abs equals this. Calibrated once on the synthetic
# benchmark; small enough that the head's sigmoids keep usable gradients,
# large enough that healthy variation doesn't drown in the linear regime.
FEATURE_SPAN = 0.6


@dataclass(frozen=True)
class HelmConfig:
    layer_sizes: tuple = (20, 100)   # L_1..L_N autoencoder widths + head width
    lam: float = 1e-2                # autoencoder L1 weight
    C: float = 1e-5                  # head ridge weight
    ensemble_size: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(v) for v in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least one autoencoder and the head")
        if any(v < 1 for v in self.layer_sizes):
            raise ValueError("all layer sizes must be >= 1")
        if self.lam < 0 or self.C < 0:
            raise ValueError("lam and C must be >= 0")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")


@dataclass
class HelmModel:
    ae_betas: list                    # beta_i, each L_i x D_i
    top_layer: ElmLayer               # head with trained beta (one column)
    norm: NormalizationStats
    config: HelmConfig

    def feature_dim(self) -> int:
        return self.norm.mean.shape[0]


def helm_train(X_train, config: HelmConfig, rng) -> HelmModel:
    """Train one HELM on healthy data. Normalization is fit here and stored
    with the model; callers pass raw matrices."""
    X = as_matrix(X_train, "X_train")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    norm = fit_normalization(X)
    x = apply_normalization(X, norm)

    ae_betas = []
    for L in config.layer_sizes[:-1]:
        layer = random_layer(x.shape[1], L, "sigmoid", gen)
        H = hidden(layer, x)
        res = fista_solve(H, x, FistaParams(lam=config.lam))
        beta = res.beta
        feat = x @ beta.T
        span = np.abs(feat).max(axis=0)
        span = np.where(span < 1e-12, 1.0, span)
        beta = beta * (FEATURE_SPAN / span)[:, None]
        x = feat * (FEATURE_SPAN / span)
        ae_betas.append(beta)

    top = random_layer(x.shape[1], config.layer_sizes[-1], "sigmoid", gen)
    H = hidden(top, x)
    top.beta = ridge_solve(H, np.ones((x.shape[0], 1)), config.C)
    return HelmModel(ae_betas=ae_betas, top_layer=top, norm=norm, config=config)


def helm_run(model: HelmModel, X) -> np.ndarray:
    """Forward pass: normalize, apply the linear feature maps, then the head.
    Returns the one-class output Y as a length-K vector."""
    X = as_matrix(X, "X")
    if X.shape[1] != model.feature_dim():
        raise ValueError(
            f"dimension mismatch: model expects {model.feature_dim()} columns")
    x = apply_normalization(X, model.norm)
    for beta in model.ae_betas:
        x = x @ beta.T
    H = hidden(model.top_layer, x)
    return (H @ model.top_layer.beta).ravel()


def train_ensemble(X_train, config: HelmConfig, stream: RngStream) -> list:
    """ensemble_size independent models on disjoint substreams of `stream`."""
    return [helm_train(X_train, config, stream.child(m))
            for m in range(config.ensemble_size)]


def run_ensemble(models: list, X) -> np.ndarray:
    """Ensemble output: the member outputs Y averaged before thresholding."""
    if not models:
        raise ValueError("empty ensemble")
    Y = np.zeros(as_matrix(X, "X").shape[0])
    for m in models:
        Y += helm_run(m, X)
    return Y / len(models)


# --- persistence ------------------------------------------------------------
# JSON with nested lists; float repr round-trips bitwise, so reloaded models
# reproduce outputs exactly.

FORMAT = "helmfd-model-v1"


def _layer_to_dict(layer: ElmLayer) -> dict:
    return {"A": layer.A.tolist(), "B": layer.B.tolist(),
            "activation": layer.activation,
            "beta": None if layer.beta is None else layer.beta.tolist()}


def _layer_from_dict(d: dict) -> ElmLayer:
    return ElmLayer(A=np.array(d["A"], dtype=np.float64),
                    B=np.array(d["B"], dtype=np.float64),
                    activation=d["activation"],
                    beta=None if d["beta"] is None
                    else np.array(d["beta"], dtype=np.float64))


def _model_to_dict(model: HelmModel) -> dict:
    cfg = model.config
    return {
        "ae_betas": [b.tolist() for b in model.ae_betas],
        "top_layer": _layer_to_dict(model.top_layer),
        "norm": {"mean": model.norm.mean.tolist(),
                 "std": model.norm.std.tolist()},
        "config": {"layer_sizes": list(cfg.layer_sizes), "lam": cfg.lam,
                   "C": cfg.C, "ensemble_size": cfg.ensemble_size,
                   "seed": cfg.seed},
    }


def _model_from_dict(d: dict) -> HelmModel:
    cfg = d["config"]
    return HelmModel(
        ae_betas=[np.array(b, dtype=np.float64) for b in d["ae_betas"]],
        top_layer=_layer_from_dict(d["top_layer"]),
        norm=NormalizationStats(
            mean=np.array(d["norm"]["mean"], dtype=np.float64),
            std=np.array(d["norm"]["std"], dtype=np.float64)),
        config=HelmConfig(layer_sizes=tuple(cfg["layer_sizes"]), lam=cfg["lam"],
                          C=cfg["C"], ensemble_size=cfg["ensemble_size"],
                          seed=cfg["seed"]))


def save_ensemble(path, models: list, detector: dict | None = None) -> None:
    """Write the model JSON to a temp file next to `path`, then os.replace it
    over `path`: a write that fails midway leaves the old file intact."""
    doc = {"format": FORMAT, "kind": "helm-ensemble",
           "members": [_model_to_dict(m) for m in models],
           "detector": detector}
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_ensemble(path) -> tuple[list, dict | None]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} document")
    return [_model_from_dict(d) for d in doc["members"]], doc.get("detector")
