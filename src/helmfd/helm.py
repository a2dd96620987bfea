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
train_members trains the members of all three families: the one-class ELM is
a HELM with no autoencoder layer, and PCA-ELM is one behind a shared PCA map.
The model file stores each member on its own (helmfd-model-v1), so loading
checks the members against member 0 and stacks each array once.
"""
from __future__ import annotations

import json
import numbers
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import (NormalizationStats, RngStream, apply_normalization,
                   as_matrix, fit_normalization, replaced_when_done)
from .detector import DetectorConfig
from .elm import ElmLayer, hidden, random_layer, ridge_solve
from .fista import FistaParams, fista_solve

# Feature span fed to the one-class head: each autoencoder output column is
# scaled so its training max-abs equals this. Calibrated once on the synthetic
# benchmark; small enough that the head's sigmoids keep usable gradients,
# large enough that healthy variation doesn't drown in the linear regime.
FEATURE_SPAN = 0.6

# Rows scored per block: bounds the forward pass's working set, not the input
# size. For the shipped shape that is the normalized block (1.6 MB), the
# members' first features (0.8 MB) and one member's hidden layer (0.8 MB),
# which the members take in turn, so the head product reads it from a 2 MB
# L2 cache; the 5 members' hidden layers stacked (4 MB) would not fit. It
# divides every synth.SEGMENTS bound, so no file generate writes and no
# benchmark batch scores padding rows; a test fails when a change to either
# value would.
SCORE_BLOCK_ROWS = 1000


@dataclass(frozen=True)
class HelmConfig:
    layer_sizes: tuple = (20, 100)   # L_1..L_N autoencoder widths + head width
    lam: float = 0.0                 # autoencoder L1 weight
    C: float = 1e-5                  # head ridge weight
    ensemble_size: int = 5
    seed: int = 0

    def __post_init__(self):
        # a model file's config block arrives as parsed, so no bool,
        # string or fraction may pass for a size, seed, lam or C
        sizes = tuple(self.layer_sizes)
        ints, reals = (*sizes, self.ensemble_size, self.seed), (self.lam, self.C)
        if any(isinstance(v, bool) for v in (*ints, *reals)) or not (
                all(isinstance(v, numbers.Integral) for v in ints)
                and all(isinstance(v, numbers.Real) for v in reals)):
            raise ValueError("layer_sizes, ensemble_size and seed must be "
                             "integers, and lam and C numbers")
        object.__setattr__(self, "layer_sizes", tuple(map(int, sizes)))
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
    stacked over the M members and held once. run_ensemble scores a lone
    row in one stacked pass and a batch block by block: the members' first
    maps in one product, then member by member on views of the stacks.

    maps[i] is M x L_i x D_i, member m's beta_i being maps[i][m]; head is an
    ElmLayer stacked the same way (A M x D x L, B M x L, beta M x L x 1);
    config is the HelmConfig the maps were trained with, its layer_sizes
    their widths and the head's, None for the baselines. At the shipped
    shapes each member's features, hidden layer and output are bitwise
    those it would compute alone, so the scores are bitwise those of the
    member outputs summed in order and divided by M; at some other widths
    the members' first maps, multiplied as one, round differently.

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
        if config is not None and config.layer_sizes != tuple(
                m.shape[1] for _, m in stages[:-1]):
            raise ValueError(f"config layer_sizes {config.layer_sizes} are "
                             "not the layer widths")
        self.norm, self.maps, self.head, self.config = norm, maps, head, config

    def __len__(self) -> int:
        return len(self.head.A)

    def __getitem__(self, i) -> "Ensemble":
        m = range(len(self))[i]   # IndexError outside [-M, M)
        s, h = slice(m, m + 1), self.head
        return Ensemble(self.norm, [b[s] for b in self.maps],
                        ElmLayer(A=h.A[s], B=h.B[s], beta=h.beta[s]),
                        self.config)


def helm_train(X_train, config: HelmConfig, rng: RngStream) -> Ensemble:
    """Train one HELM on healthy data, drawn from rng's generator, as a
    1-member Ensemble. Normalization is fit here and stored with the model;
    callers pass raw matrices."""
    return _helm_members(X_train, config, [rng])


def train_ensemble(X_train, config: HelmConfig, stream: RngStream) -> Ensemble:
    """ensemble_size HELMs on disjoint substreams of `stream`: member m is
    bitwise helm_train on stream.child(m), but X_train is validated and
    normalized once and all members share that normalization."""
    return _helm_members(
        X_train, config,
        [stream.child(m) for m in range(config.ensemble_size)])


def _helm_members(X_train, config: HelmConfig, streams) -> Ensemble:
    X = as_matrix(X_train, "X_train")
    norm = fit_normalization(X)
    return train_members(norm, apply_normalization(X, norm), streams,
                         config.layer_sizes, config.lam, config.C,
                         config=config)


def train_members(norm: NormalizationStats, x, streams, layer_sizes,
                  lam: float, C: float, maps=(),
                  config: HelmConfig | None = None) -> Ensemble:
    """The member trainer of all three families: one member per stream on the
    features x that `norm` and then the shared `maps` (each an L_i x D_i
    beta_i) make of the training data; x itself is left as it is. Each
    member draws from its stream's generator, first its own autoencoder
    layers, of widths layer_sizes[:-1], then the one-class head, of width
    layer_sizes[-1], whose beta is the ridge solution against the constant
    target 1. Raises ValueError when there are no streams."""
    own, heads = [], []
    for s in streams:
        gen, h, betas = s.generator(), x, []
        for i, L in enumerate(layer_sizes[:-1]):
            layer = random_layer(h.shape[1], L, gen)
            res = fista_solve(hidden(layer, h), h, FistaParams(lam=lam))
            if not res.converged:
                warnings.warn(f"autoencoder layer {i}: FISTA did not converge "
                              f"in {res.iterations} iterations",
                              RuntimeWarning, stacklevel=2)
            feat = h @ res.beta.T
            span = np.abs(feat).max(axis=0)
            span = np.where(span < 1e-12, 1.0, span)
            betas.append(res.beta * (FEATURE_SPAN / span)[:, None])
            h = feat * (FEATURE_SPAN / span)
        head = random_layer(h.shape[1], layer_sizes[-1], gen)
        head.beta = ridge_solve(hidden(head, h), np.ones((h.shape[0], 1)), C)
        own.append(betas)
        heads.append(head)
    return Ensemble(norm, [*(np.stack([b] * len(heads)) for b in maps),
                           *map(np.stack, zip(*own))],
                    ElmLayer(*(np.stack([getattr(h, k) for h in heads])
                               for k in ("A", "B", "beta"))),
                    config)


def helm_run(model: Ensemble, X) -> np.ndarray:
    """run_ensemble under its old name. Only bench/tracing.py's TARGETS still
    names it; nothing in helmfd calls it."""
    return run_ensemble(model, X)


def run_ensemble(ens: Ensemble, X) -> np.ndarray:
    """Ensemble output: the member outputs Y averaged before thresholding.

    A lone row is scored in one stacked pass over the members, its outputs
    then added one by one to 0.0 as Python floats, in member order, and the
    sum divided by M: the IEEE operations of the batch path, without its
    array round trips for M numbers.

    Any other batch is scored in blocks of exactly SCORE_BLOCK_ROWS rows,
    the last one padded with zero rows, so BLAS takes the same kernels for
    every block and a row scores bitwise the same in any batch of two or
    more rows. Each block is normalized once and multiplied by every
    member's first map in one product, x · [beta_1ᵀ of member 0, ...,
    of member M-1]: one wide GEMM runs OpenBLAS's packed kernel faster than
    M skinny ones, and at the shipped widths gives each column the bits of
    the member's own product, at one and two BLAS threads (not at every
    width: a one-column map, or some stacks past 200 columns).
    Each member then runs its other maps, hidden layer and head on its
    columns, its output added in member order into the block's running
    sum: one member's hidden layer is still in L2 when the head product
    reads it, where the stacked members' is not, and stacking the head's
    product would move bits. So, where the first map keeps the members'
    bits, the scores are bitwise those of the member outputs added one by
    one to zero."""
    X = as_matrix(X, "X")
    K, M, h = X.shape[0], len(ens), ens.head
    if K == 1:
        x = apply_normalization(X, ens.norm)
        for beta in ens.maps:
            x = x @ beta.mT
        # an explicit loop: sum() compensates on Python >= 3.12, and
        # math.fsum rounds exactly, either of which would change bits
        total = 0.0
        for y in (hidden(h, x) @ h.beta).ravel().tolist():
            total += y
        return np.array([total / M])
    if ens.maps:
        # every member's first map as one D x M*L_1 matrix, member m's
        # beta_1ᵀ being its columns [m*L_1, (m+1)*L_1)
        first, *rest = ens.maps
        W, L = first.reshape(-1, first.shape[2]).T, first.shape[1]
        spans = [slice(m * L, (m + 1) * L) for m in range(M)]
    else:
        W, rest, spans = None, [], [slice(None)] * M
    members = [(spans[m], [b[m] for b in rest],
                ElmLayer(h.A[m], h.B[m], h.beta[m])) for m in range(M)]
    n = SCORE_BLOCK_ROWS
    Y = np.zeros(-(-K // n) * n)
    for a in range(0, K, n):
        x = X[a:a + n]
        if len(x) < n:
            x = np.vstack((x, np.zeros((n - len(x), X.shape[1]))))
        x = apply_normalization(x, ens.norm)
        F = x if W is None else x @ W
        y = Y[a:a + n]
        for span, maps, head in members:
            f = F[:, span]
            for b in maps:
                f = f @ b.T
            y += (hidden(head, f) @ head.beta)[:, 0]
    Y = Y[:K]
    Y /= M
    return Y


# --- persistence ------------------------------------------------------------
# JSON with nested lists; float repr round-trips bitwise, so reloaded models
# reproduce outputs exactly.

FORMAT = "helmfd-model-v1"
# v1 files name the head's activation; every head is a sigmoid layer
ACTIVATION = "sigmoid"


def save_ensemble(path, ens: Ensemble,
                  detector: DetectorConfig | None = None) -> None:
    """Write the model JSON, one v1 member document per member, through
    data.replaced_when_done: a write that fails midway leaves the old file
    intact."""
    head = ens.head
    shared = {"norm": {"mean": ens.norm.mean.tolist(),
                       "std": ens.norm.std.tolist()},
              "config": None if ens.config is None else asdict(ens.config)}
    members = [{"ae_betas": [b[m].tolist() for b in ens.maps],
                "top_layer": {"A": head.A[m].tolist(), "B": head.B[m].tolist(),
                              "activation": ACTIVATION,
                              "beta": head.beta[m].tolist()},
                **shared} for m in range(len(ens))]
    doc = {"format": FORMAT, "kind": "helm-ensemble", "members": members,
           "detector": None if detector is None else asdict(detector)}
    with replaced_when_done(path) as tmp, open(tmp, "w") as fh:
        # dumps with no indent takes the C encoder; dump never does
        fh.write(json.dumps(doc))
        fh.write("\n")


def load_ensemble(path) -> tuple[Ensemble, DetectorConfig | None]:
    """The Ensemble and detector settings of a model file; None for the
    settings of a model not yet calibrated. Every member repeats the head
    activation, the normalization, the array row counts (its layer shape)
    and the config, and each must match member 0's, the normalization
    bitwise; each array is then stacked once over the members. Raises
    ValueError when a member does not match, or when the config, the
    stacked arrays or the detector settings fail their class's check."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    members = doc["members"]
    if not members:
        raise ValueError("empty ensemble")

    def blocks(d):   # the normalization as bytes: -0.0 is not 0.0
        top = d["top_layer"]
        return (top["activation"],
                [np.array(d["norm"][k], dtype=np.float64).tobytes()
                 for k in ("mean", "std")],
                [len(v) for v in (*d["ae_betas"], top["A"], top["B"],
                                  top["beta"])],
                d["config"])
    first = members[0]
    _, norm, shape, cfg = blocks(first)
    for i, d in enumerate(members):
        activation, d_norm, d_shape, d_cfg = blocks(d)
        if activation != ACTIVATION:
            raise ValueError(f"head activation {activation!r}, "
                             f"expected {ACTIVATION!r}")
        if d_norm != norm:
            raise ValueError(f"member {i} has another normalization "
                             "than member 0")
        if d_shape != shape:
            raise ValueError(f"member {i} has layer shape {d_shape}, "
                             f"member 0 {shape}")
        if d_cfg != cfg:
            raise ValueError(f"member {i} has another config than member 0")
    if cfg is not None and set(cfg) != {f.name for f in fields(HelmConfig)}:
        raise ValueError(f"config keys {sorted(cfg)}, expected those of "
                         "HelmConfig")

    ens = Ensemble(
        NormalizationStats(*(np.array(first["norm"][k], dtype=np.float64)
                             for k in ("mean", "std"))),
        [np.array(b, dtype=np.float64)
         for b in zip(*(d["ae_betas"] for d in members))],
        ElmLayer(*(np.array([d["top_layer"][k] for d in members],
                            dtype=np.float64) for k in ("A", "B", "beta"))),
        None if cfg is None else HelmConfig(**cfg))
    det = doc.get("detector")
    return ens, (None if det is None else DetectorConfig.from_dict(det))
