"""Hierarchical ELM: sparse autoencoders stacked under a one-class ELM head.

Training (per member): for each autoencoder layer, draw a random hidden layer,
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

A trained detector is an Ensemble: members trained on disjoint substreams
around one normalization, each array stacked over the members and held once.
The model file stores each member on its own (helmfd-model-v1), so loading
is where separately stored members are checked and stacked.
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


class Ensemble(Sequence):
    """A trained detector, any of the three (see baselines.py for the other
    two): the normalization, then per member the linear feature maps
    x <- x · beta_iᵀ and the one-class ELM head, each map and the head
    stacked over the M members so that one batched pass scores them all.

    maps[i] is M x L_i x D_i, member m's beta_i being maps[i][m]; head is an
    ElmLayer stacked the same way (A M x D x L, B M x L, beta M x L x 1);
    config is the HelmConfig the maps were trained with, None for the
    baselines. Every member's arithmetic is the BLAS call and elementwise
    steps it would take alone, so the scores are bitwise those of the member
    outputs summed in order and divided by M.

    A read-only sequence: ens[m] is member m as a 1-member Ensemble of
    [m:m+1] views of these arrays. Construction checks that the arrays are
    finite and chain, so trained and loaded detectors pass the same check.
    """

    def __init__(self, norm: NormalizationStats, maps: list, head: ElmLayer,
                 config: HelmConfig | None = None):
        if head.beta is None:
            raise ValueError("head has no trained beta")
        M = len(head.A)
        if M < 1:
            raise ValueError("empty ensemble")
        mean, std = norm.mean, norm.std
        if not all(np.isfinite(a).all() for a in
                   (mean, std, *maps, head.A, head.B, head.beta)):
            raise ValueError("non-finite entries")
        if mean.ndim != 1 or mean.shape != std.shape:
            raise ValueError(f"norm mean has shape {mean.shape}, "
                             f"std {std.shape}")
        # every stage as M x outputs x inputs; the last one gives the output Y
        stages = [*((f"map {i}", b) for i, b in enumerate(maps)),
                  ("head A", head.A.mT), ("head beta", head.beta.mT)]
        width = mean.shape[0]
        for name, m in stages:
            if m.ndim != 3 or len(m) != M:
                raise ValueError(f"{name} is not a stack of {M} matrices")
            if m.shape[2] != width:
                raise ValueError(f"{name} takes {m.shape[2]} inputs, "
                                 f"expected {width}")
            width = m.shape[1]
        if width != 1:
            raise ValueError(f"head beta has {width} columns, expected 1")
        self.norm, self.maps, self.head, self.config = norm, maps, head, config

    @classmethod
    def stack(cls, norm: NormalizationStats, members,
              config: HelmConfig | None = None) -> "Ensemble":
        """The Ensemble of members given as (maps, head) pairs, each map an
        L_i x D_i beta_i and each head an ElmLayer of its own, around the
        normalization they share."""
        maps, heads = zip(*members)
        return cls(norm, [np.stack(betas) for betas in zip(*maps)],
                   ElmLayer(A=np.stack([h.A for h in heads]),
                            B=np.stack([h.B for h in heads]),
                            beta=np.stack([h.beta for h in heads])),
                   config)

    def __len__(self) -> int:
        return len(self.head.A)

    def __getitem__(self, i) -> "Ensemble":
        m = range(len(self))[i]   # IndexError outside [-M, M)
        s, h = slice(m, m + 1), self.head
        return Ensemble(self.norm, [b[s] for b in self.maps],
                        ElmLayer(A=h.A[s], B=h.B[s], beta=h.beta[s]),
                        self.config)

    def feature_dim(self) -> int:
        return self.norm.mean.shape[0]


def helm_train(X_train, config: HelmConfig, rng: RngStream) -> Ensemble:
    """Train one HELM on healthy data, drawn from rng's generator, as a
    1-member Ensemble. Normalization is fit here and stored with the model;
    callers pass raw matrices."""
    return _train_members(X_train, config, [rng])


def train_ensemble(X_train, config: HelmConfig, stream: RngStream) -> Ensemble:
    """ensemble_size HELMs on disjoint substreams of `stream`: member m is
    bitwise helm_train on stream.child(m), but X_train is validated and
    normalized once and all members share that normalization."""
    return _train_members(
        X_train, config,
        [stream.child(m) for m in range(config.ensemble_size)])


def _train_members(X_train, config: HelmConfig, streams) -> Ensemble:
    """One HELM per stream, each drawing from that stream's generator, on
    X_train normalized once for all of them."""
    X = as_matrix(X_train, "X_train")
    norm = fit_normalization(X)
    x = apply_normalization(X, norm)
    return Ensemble.stack(
        norm, [_train_member(x, config, s.generator()) for s in streams],
        config)


def _train_member(x, config: HelmConfig, gen: np.random.Generator) -> tuple:
    """The autoencoder maps and the head on normalized inputs x, as a (maps,
    head) pair; x itself is left as it is, so members can share it."""
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
    return ae_betas, train_head(x, config.layer_sizes[-1], config.C, gen)


def train_head(x, width: int, C: float, gen: np.random.Generator) -> ElmLayer:
    """The one-class head on features x: a random sigmoid layer whose beta is
    the ridge solution against the constant target 1."""
    top = random_layer(x.shape[1], width, gen)
    H = hidden(top, x)
    top.beta = ridge_solve(H, np.ones((x.shape[0], 1)), C)
    return top


def helm_run(model: Ensemble, X) -> np.ndarray:
    """run_ensemble under its old name. Only bench/tracing.py's TARGETS still
    names it; nothing in helmfd calls it."""
    return run_ensemble(model, X)


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


def run_ensemble(ens: Ensemble, X) -> np.ndarray:
    """Ensemble output: the member outputs Y averaged before thresholding.
    A running sum adds a block's member outputs in member order (a reduce
    sums 8 or more members of one row pairwise): the bits of adding them one
    by one, but for the sign of an all-zero sum."""
    X = as_matrix(X, "X")
    K = X.shape[0]
    # zero rows fill the last group of four (see _row_blocks); a lone row,
    # with no batch to differ from, keeps BLAS's cheaper vector kernels
    if K > 1 and K % 4:
        X = np.vstack((X, np.zeros((-K % 4, X.shape[1]))))
    Y = np.empty(X.shape[0])
    for a, b in _row_blocks(X.shape[0]):
        x = apply_normalization(X[a:b], ens.norm)
        for beta in ens.maps:
            x = x @ beta.mT
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


def _member_to_dict(ens: Ensemble, m: int) -> dict:
    """Member m's v1 document, read from the stacks."""
    cfg, head = ens.config, ens.head
    return {
        "ae_betas": [b[m].tolist() for b in ens.maps],
        "top_layer": {"A": head.A[m].tolist(), "B": head.B[m].tolist(),
                      "activation": ACTIVATION, "beta": head.beta[m].tolist()},
        "norm": {"mean": ens.norm.mean.tolist(), "std": ens.norm.std.tolist()},
        "config": None if cfg is None else {
            "layer_sizes": list(cfg.layer_sizes), "lam": cfg.lam, "C": cfg.C,
            "ensemble_size": cfg.ensemble_size, "seed": cfg.seed},
    }


def _member_from_dict(d: dict) -> tuple:
    """(norm, maps, head, config) of one member's v1 document."""
    top, cfg = d["top_layer"], d["config"]
    if top["activation"] != ACTIVATION:
        raise ValueError(f"head activation {top['activation']!r}, "
                         f"expected {ACTIVATION!r}")
    return (NormalizationStats(
                mean=np.array(d["norm"]["mean"], dtype=np.float64),
                std=np.array(d["norm"]["std"], dtype=np.float64)),
            [np.array(b, dtype=np.float64) for b in d["ae_betas"]],
            ElmLayer(A=np.array(top["A"], dtype=np.float64),
                     B=np.array(top["B"], dtype=np.float64),
                     beta=np.array(top["beta"], dtype=np.float64)),
            None if cfg is None else HelmConfig(
                layer_sizes=tuple(cfg["layer_sizes"]), lam=cfg["lam"],
                C=cfg["C"], ensemble_size=cfg["ensemble_size"],
                seed=cfg["seed"]))


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _shape(maps, head: ElmLayer) -> tuple:
    return (*(b.shape for b in maps), head.A.shape, head.B.shape,
            head.beta.shape)


def save_ensemble(path, ens: Ensemble,
                  detector: DetectorConfig | None = None) -> None:
    """Write the model JSON, one v1 member document per member, to a temp
    file next to `path`, then os.replace it over `path`: a write that fails
    midway leaves the old file intact."""
    doc = {"format": FORMAT, "kind": "helm-ensemble",
           "members": [_member_to_dict(ens, m) for m in range(len(ens))],
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
    """The Ensemble and detector settings of a model file; None for the
    settings of a model not yet calibrated. The file stores each member on
    its own, so the members must share one normalization (bitwise), one
    layer shape and one config to stack. Raises ValueError when they do
    not, when a head is other than a sigmoid layer, when the stacked
    arrays fail Ensemble's check, or when the detector settings fail
    DetectorConfig.from_dict."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} document")
    members = [_member_from_dict(d) for d in doc["members"]]
    if not members:
        raise ValueError("empty ensemble")
    norm, maps, head, config = members[0]
    for i, (n, b, h, c) in enumerate(members[1:], 1):
        if not (_bitwise_equal(n.mean, norm.mean)
                and _bitwise_equal(n.std, norm.std)):
            raise ValueError(f"member {i} has another normalization "
                             "than member 0")
        if _shape(b, h) != _shape(maps, head):
            raise ValueError(f"member {i} has layer shape {_shape(b, h)}, "
                             f"member 0 {_shape(maps, head)}")
        if c != config:
            raise ValueError(f"member {i} has another config than member 0")
    ens = Ensemble.stack(norm, [(b, h) for _, b, h, _ in members], config)
    det = doc.get("detector")
    return ens, (None if det is None else DetectorConfig.from_dict(det))
