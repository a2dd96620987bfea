"""Hierarchical ELM: sparse autoencoders stacked under a one-class ELM head.

Training (per model): for each autoencoder layer, draw a random hidden layer,
solve the LASSO reconstruction problem for its output weights by FISTA from
their least-squares solution, and feed the learned features forward as
x_{i+1} = x_i · beta_iᵀ. The final layer is a plain ELM trained by ridge
regression against the constant target 1. At run time the autoencoder stages
are the linear maps beta_iᵀ alone (no activation); only the head applies its
nonlinearity. This asymmetry is deliberate and load bearing: the stored beta_i
ARE the feature map.

Detection quality depends on the head's sigmoids staying in their responsive
range, so each learned feature column is rescaled to a fixed span before the
head sees it; the rescale is folded into beta_i, keeping the run-time math
exactly x_{i+1} = x_i · beta_iᵀ.
"""
from __future__ import annotations

import json
import os
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import (NormalizationStats, RngStream, apply_normalization,
                   as_matrix, fit_normalization)
from .detector import DetectorConfig
from .elm import ElmLayer, hidden, random_layer, ridge_solve
from .fista import FistaParams, fista_solve

# Feature span fed to the one-class head: each autoencoder output column is
# scaled so its training max-abs equals this. Calibrated once on the synthetic
# benchmark; small enough that the head's sigmoids keep usable gradients,
# large enough that healthy variation doesn't drown in the linear regime.
FEATURE_SPAN = 0.6

# Rows scored per block: bounds the forward pass's working set (about 6 MB
# for 5 members of the shipped shape), not the input size.
SCORE_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class HelmConfig:
    layer_sizes: tuple = (20, 100)   # L_1..L_N autoencoder widths + head width
    lam: float = 0.0                 # autoencoder L1 weight
    C: float = 1e-5                  # head ridge weight
    ensemble_size: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(v) for v in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least one autoencoder and the head")
        if any(v < 1 for v in self.layer_sizes):
            raise ValueError("all layer sizes must be >= 1")
        if not (0.0 <= self.lam < np.inf and 0.0 <= self.C < np.inf):
            raise ValueError("lam and C must be finite and >= 0")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")


@dataclass
class HelmModel:
    """One member of any of the three detectors (see baselines.py for the
    other two): normalization, the linear feature maps x <- x · beta_iᵀ, then
    the one-class ELM head. Construction checks that the arrays are finite
    and chain, so trained and loaded members pass the same check."""
    ae_betas: list                    # beta_i, each L_i x D_i
    top_layer: ElmLayer               # head with trained beta (one column)
    norm: NormalizationStats
    config: HelmConfig | None = None  # None for baseline members

    def __post_init__(self):
        head = self.top_layer
        if head.beta is None:
            raise ValueError("head has no trained beta")
        mean, std = self.norm.mean, self.norm.std
        if not all(np.isfinite(a).all() for a in
                   (mean, std, *self.ae_betas, head.A, head.B, head.beta)):
            raise ValueError("non-finite entries")
        if mean.ndim != 1 or mean.shape != std.shape:
            raise ValueError(f"norm mean has shape {mean.shape}, "
                             f"std {std.shape}")
        # every stage as (outputs x inputs); the last one gives the output Y
        stages = [*((f"map {i}", b) for i, b in enumerate(self.ae_betas)),
                  ("head A", head.A.T), ("head beta", head.beta.T)]
        width = mean.shape[0]
        for name, m in stages:
            if m.ndim != 2:
                raise ValueError(f"{name} is not a matrix")
            if m.shape[1] != width:
                raise ValueError(f"{name} takes {m.shape[1]} inputs, "
                                 f"expected {width}")
            width = m.shape[0]
        if width != 1:
            raise ValueError(f"head beta has {width} columns, expected 1")

    def feature_dim(self) -> int:
        return self.norm.mean.shape[0]


def helm_train(X_train, config: HelmConfig, rng: RngStream) -> HelmModel:
    """Train one HELM on healthy data. Normalization is fit here and stored
    with the model; callers pass raw matrices."""
    (model,) = _train_members(X_train, config, [rng])
    return model


def train_ensemble(X_train, config: HelmConfig, stream: RngStream) -> "Ensemble":
    """ensemble_size models on disjoint substreams of `stream`: member m is
    bitwise helm_train on stream.child(m), but X_train is validated and
    normalized once and all members hold the same NormalizationStats."""
    return Ensemble(_train_members(
        X_train, config,
        [stream.child(m) for m in range(config.ensemble_size)]))


def _train_members(X_train, config: HelmConfig, streams) -> list:
    """One HELM per stream, each drawing from that stream's generator, on
    X_train normalized once for all of them."""
    X = as_matrix(X_train, "X_train")
    norm = fit_normalization(X)
    x = apply_normalization(X, norm)
    return [_train_member(x, norm, config, s.generator()) for s in streams]


def _train_member(x, norm: NormalizationStats, config: HelmConfig,
                  gen: np.random.Generator) -> HelmModel:
    """The autoencoder maps and the head on normalized inputs x; x itself is
    left as it is, so members can share it."""
    ae_betas = []
    for i, L in enumerate(config.layer_sizes[:-1]):
        layer = random_layer(x.shape[1], L, gen)
        H = hidden(layer, x)
        res = fista_solve(H, x, FistaParams(lam=config.lam))
        if not res.converged:
            warnings.warn(f"autoencoder layer {i}: FISTA did not converge in "
                          f"{res.iterations} iterations", RuntimeWarning,
                          stacklevel=2)
        beta = res.beta
        feat = x @ beta.T
        span = np.abs(feat).max(axis=0)
        span = np.where(span < 1e-12, 1.0, span)
        beta = beta * (FEATURE_SPAN / span)[:, None]
        x = feat * (FEATURE_SPAN / span)
        ae_betas.append(beta)

    top = train_head(x, config.layer_sizes[-1], config.C, gen)
    return HelmModel(ae_betas=ae_betas, top_layer=top, norm=norm, config=config)


def train_head(x, width: int, C: float, gen: np.random.Generator) -> ElmLayer:
    """The one-class head on features x: a random sigmoid layer whose beta is
    the ridge solution against the constant target 1."""
    top = random_layer(x.shape[1], width, gen)
    H = hidden(top, x)
    top.beta = ridge_solve(H, np.ones((x.shape[0], 1)), C)
    return top


def helm_run(model: HelmModel, X) -> np.ndarray:
    """Forward pass of one member: normalize, apply the linear feature maps,
    then the head. Returns the one-class output Y as a length-K vector."""
    return run_ensemble((model,), X)


class Ensemble(Sequence):
    """The members of one detector, stacked so that one batched pass scores
    them all. A read-only sequence of HelmModel.

    The members must share one normalization, bitwise, and one layer shape;
    the maps are stacked as M x D_i x L_i arrays and the heads as one stacked
    ElmLayer. Every member's arithmetic is then the BLAS call and elementwise
    steps it would take alone, so the scores are bitwise those of the member
    outputs summed in order and divided by M.
    """

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise ValueError("empty ensemble")
        first = members[0]
        for i, m in enumerate(members[1:], 1):
            if not (_bitwise_equal(m.norm.mean, first.norm.mean)
                    and _bitwise_equal(m.norm.std, first.norm.std)):
                raise ValueError(f"member {i} has another normalization "
                                 "than member 0")
            if _shape(m) != _shape(first):
                raise ValueError(f"member {i} has layer shape {_shape(m)}, "
                                 f"member 0 {_shape(first)}")
        self._members = members
        self.norm = first.norm
        # each map as x <- x @ beta.T: a transposed view keeps the strides,
        # and so the BLAS call, of a member's own beta.T
        self.maps = [np.stack(betas).transpose(0, 2, 1)
                     for betas in zip(*(m.ae_betas for m in members))]
        heads = [m.top_layer for m in members]
        self.head = ElmLayer(A=np.stack([h.A for h in heads]),
                             B=np.stack([h.B for h in heads]),
                             beta=np.stack([h.beta for h in heads]))

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, i):
        return self._members[i]

    def feature_dim(self) -> int:
        return self.norm.mean.shape[0]


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _shape(m: HelmModel) -> tuple:
    return (*(b.shape for b in m.ae_betas), m.top_layer.A.shape)


def _row_blocks(K: int):
    """[start, stop) blocks of about SCORE_BLOCK_ROWS rows covering K rows:
    the one block (0, K) when K <= SCORE_BLOCK_ROWS, as a single-row call
    needs it. With one BLAS thread each row's arithmetic is the same as in
    one pass over all K: BLAS takes other kernels for short matrices, and
    its matrix-vector kernel handles rows in groups of four with another
    path for the rest, so the blocks are of near-equal height (at least half
    a block when K needs more than one) and start at multiples of 4.
    run_ensemble pads a batch of more than one row to a multiple of 4, so no
    row takes the other path and a row's score does not depend on its place
    in the batch."""
    if K <= SCORE_BLOCK_ROWS:
        return ((0, K),)
    n = -(-K // SCORE_BLOCK_ROWS)
    bounds = [K * i // n // 4 * 4 for i in range(n)] + [K]
    return zip(bounds, bounds[1:])


def run_ensemble(models, X) -> np.ndarray:
    """Ensemble output: the member outputs Y averaged before thresholding.
    `models` is an Ensemble, or a sequence of members wrapped in one here.
    A running sum adds a block's member outputs in member order (a reduce
    sums 8 or more members of one row pairwise): the bits of adding them one
    by one, but for the sign of an all-zero sum."""
    ens = models if isinstance(models, Ensemble) else Ensemble(models)
    X = as_matrix(X, "X")
    K = X.shape[0]
    # zero rows fill the last group of four (see _row_blocks); a lone row,
    # with no batch to differ from, keeps BLAS's cheaper vector kernels
    if K > 1 and K % 4:
        X = np.vstack((X, np.zeros((-K % 4, X.shape[1]))))
    Y = np.empty(X.shape[0])
    for a, b in _row_blocks(X.shape[0]):
        x = apply_normalization(X[a:b], ens.norm)
        for beta_t in ens.maps:
            x = x @ beta_t
        Y[a:b] = np.add.accumulate(
            (hidden(ens.head, x) @ ens.head.beta)[..., 0], axis=0)[-1]
    Y = Y[:K]
    Y /= len(ens)
    return Y


# --- persistence ------------------------------------------------------------
# JSON with nested lists; float repr round-trips bitwise, so reloaded models
# reproduce outputs exactly.

FORMAT = "helmfd-model-v1"
# v1 files name the head's activation; every head is a sigmoid layer
ACTIVATION = "sigmoid"


def _layer_to_dict(layer: ElmLayer) -> dict:
    return {"A": layer.A.tolist(), "B": layer.B.tolist(),
            "activation": ACTIVATION, "beta": layer.beta.tolist()}


def _layer_from_dict(d: dict) -> ElmLayer:
    if d["activation"] != ACTIVATION:
        raise ValueError(f"head activation {d['activation']!r}, "
                         f"expected {ACTIVATION!r}")
    return ElmLayer(A=np.array(d["A"], dtype=np.float64),
                    B=np.array(d["B"], dtype=np.float64),
                    beta=np.array(d["beta"], dtype=np.float64))


def _model_to_dict(model: HelmModel) -> dict:
    cfg = model.config
    return {
        "ae_betas": [b.tolist() for b in model.ae_betas],
        "top_layer": _layer_to_dict(model.top_layer),
        "norm": {"mean": model.norm.mean.tolist(),
                 "std": model.norm.std.tolist()},
        "config": None if cfg is None else {
            "layer_sizes": list(cfg.layer_sizes), "lam": cfg.lam, "C": cfg.C,
            "ensemble_size": cfg.ensemble_size, "seed": cfg.seed},
    }


def _model_from_dict(d: dict) -> HelmModel:
    cfg = d["config"]
    return HelmModel(
        ae_betas=[np.array(b, dtype=np.float64) for b in d["ae_betas"]],
        top_layer=_layer_from_dict(d["top_layer"]),
        norm=NormalizationStats(
            mean=np.array(d["norm"]["mean"], dtype=np.float64),
            std=np.array(d["norm"]["std"], dtype=np.float64)),
        config=None if cfg is None else HelmConfig(
            layer_sizes=tuple(cfg["layer_sizes"]), lam=cfg["lam"], C=cfg["C"],
            ensemble_size=cfg["ensemble_size"], seed=cfg["seed"]))


def save_ensemble(path, models: list,
                  detector: DetectorConfig | None = None) -> None:
    """Write the model JSON to a temp file next to `path`, then os.replace it
    over `path`: a write that fails midway leaves the old file intact."""
    doc = {"format": FORMAT, "kind": "helm-ensemble",
           "members": [_model_to_dict(m) for m in models],
           "detector": None if detector is None else asdict(detector)}
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


def load_ensemble(path) -> tuple[Ensemble, DetectorConfig | None]:
    """Members and detector settings of a model file; None for the settings
    of a model not yet calibrated. Raises ValueError when a member fails
    HelmModel's check or has a head other than a sigmoid layer, when the
    members do not form an Ensemble, or when the detector settings fail
    DetectorConfig.from_dict."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} document")
    members = Ensemble(_model_from_dict(d) for d in doc["members"])
    det = doc.get("detector")
    return members, (None if det is None else DetectorConfig.from_dict(det))
