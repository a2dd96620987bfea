"""Hierarchical ELM: sparse autoencoders stacked under a one-class ELM head.

Training: for each autoencoder layer, draw a random hidden layer, solve the
LASSO reconstruction problem for its output weights by FISTA from their
least-squares solution, and feed the learned features forward as
x_{i+1} = x_i · beta_iᵀ. The final layer is a plain ELM trained by ridge
regression against the constant target 1. It runs layer by layer, every
autoencoder layer through one trainer that serves the members sharing its
input with one product: all members at the first layer, which reads the
same input, one member at a time at deeper layers; heads, whose inputs
differ, are trained member by member. Scoring likewise makes one
product for all members, x · [beta_1ᵀ …], and runs the rest, the one-class
ELM's heads included, member by member. At run time the autoencoder stages
are the linear maps beta_iᵀ alone (no activation); only the head applies its
nonlinearity. This asymmetry is deliberate and load bearing: the stored beta_i
ARE the feature map.

Detection quality depends on the head's sigmoids staying in their responsive
range, so each learned feature column is rescaled to a fixed span before the
head sees it; the rescale is folded into beta_i, keeping the run-time math
exactly x_{i+1} = x_i · beta_iᵀ.

A trained detector is an Ensemble: members trained on disjoint substreams
around one normalization, each array stacked over the members and held once.
Each family's one trainer (train_ensemble here, two in baselines.py)
prepares its inputs once and hands them to train_members, which trains the
members of all three: the one-class ELM is a HELM with no autoencoder layer,
and PCA-ELM is one behind a shared PCA map.
The model file stores each member on its own (helmfd-model-v1), so loading
checks the members against member 0 and stacks each array once.
"""
from __future__ import annotations

import json
import numbers
import operator
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import (NormalizationStats, RngStream, apply_normalization,
                   as_matrix, fit_normalization, replaced_when_done)
from .detector import DetectorConfig
from .elm import ElmLayer, hidden, random_layer, ridge_solve
from .fista import fista_solve

# Feature span fed to the one-class head: each autoencoder output column is
# scaled so its training max-abs equals this. Calibrated once on the synthetic
# benchmark; small enough that the head's sigmoids keep usable gradients,
# large enough that healthy variation doesn't drown in the linear regime.
FEATURE_SPAN = 0.6

# Rows scored per block: bounds the forward pass's working set, not the input
# size. For the shipped HELM that is the normalized block (1.6 MB), the
# members' first features (0.8 MB) and one member's hidden layer (0.8 MB),
# which the members take in turn, so the head product reads it from a 2 MB
# L2 cache; the 5 members' hidden layers side by side (4 MB) would not fit.
# x · W, the members' first maps side by side, is the only scoring product
# whose bits can depend on the stack's width. It divides every
# synth.SEGMENTS bound, so no file generate writes and no benchmark batch
# scores padding rows; a test fails when a change to either value would.
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
    finite and chain, so trained and loaded detectors pass the same check,
    then makes norm.mean, norm.std and every map read-only in place (the
    head's arrays are, as an ElmLayer's): an in-place write to any of them
    raises ValueError, maps is a tuple, and setting or deleting any
    attribute raises AttributeError, so nothing edited after the check is
    scored. It then builds the scoring plan once: the maps transposed,
    stacked for a lone row and per member for a batch, the first maps as
    one D x M*L_1 matrix with each member's column span, and each member's
    head as an ElmLayer.
    """

    def __init__(self, norm: NormalizationStats, maps: Sequence,
                 head: ElmLayer, config: HelmConfig | None = None):
        maps = tuple(maps)
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
        for a in (mean, std, *maps):
            a.flags.writeable = False
        # the scoring plan; member m's beta_1ᵀ is columns
        # [m*L_1, (m+1)*L_1) of W
        if maps:
            first, *rest = maps
            L = first.shape[1]
            W = first.reshape(-1, first.shape[2]).T
            spans = [slice(m * L, (m + 1) * L) for m in range(M)]
        else:
            W, rest, spans = None, [], [slice(None)] * M
        # set once here: every assignment after this raises
        vars(self).update(
            norm=norm, maps=maps, head=head, config=config,
            _maps_T=[b.mT for b in maps], _W=W,
            _members=[(spans[m], [b[m].T for b in rest],
                       ElmLayer(head.A[m], head.B[m], head.beta[m]))
                      for m in range(M)])

    def __setattr__(self, name, value):
        raise AttributeError(f"an Ensemble is read-only: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"an Ensemble is read-only: cannot delete {name}")

    def __len__(self) -> int:
        return len(self.head.A)

    def __getitem__(self, i) -> "Ensemble":
        # IndexError outside [-M, M); TypeError naming a non-integer's type
        m = range(len(self))[operator.index(i)]
        s, h = slice(m, m + 1), self.head
        return Ensemble(self.norm, [b[s] for b in self.maps],
                        ElmLayer(A=h.A[s], B=h.B[s], beta=h.beta[s]),
                        self.config)


def train_ensemble(X_train, config: HelmConfig, stream: RngStream) -> Ensemble:
    """ensemble_size HELMs trained on healthy data, member m drawing from
    stream.child(m). X_train, a raw matrix, is validated and normalized
    once, and the members share that normalization, stored with them."""
    X = as_matrix(X_train, "X_train")
    norm = fit_normalization(X)
    # passed as a temporary, so train_members can free it after layer 0
    return train_members(
        norm, apply_normalization(X, norm),
        [stream.child(m) for m in range(config.ensemble_size)],
        config.layer_sizes, config.lam, config.C, config=config)


# bench/tracing.py's helm.train span wraps this name
helm_train = train_ensemble


def train_members(norm: NormalizationStats, x, streams, layer_sizes,
                  lam: float, C: float, maps=(),
                  config: HelmConfig | None = None) -> Ensemble:
    """The member trainer of all three families: one member per stream on the
    features x that `norm` and then the shared `maps` (each an L_i x D_i
    beta_i) make of the training data; x itself is left as it is. Each
    member draws from its stream's generator, first its own autoencoder
    layers, of widths layer_sizes[:-1], then the one-class head, of width
    layer_sizes[-1], whose beta is the ridge solution against the constant
    target 1. Raises ValueError when there are no streams.

    Training runs layer by layer, and _autoencoder_layer trains every
    autoencoder layer: each member's first layer reads the same x, so one
    call trains them all side by side; a deeper layer reads its member's
    own features, so it takes one call per member. Each member then trains
    its head on its own features."""
    gens = [s.generator() for s in streams]
    *widths, width = layer_sizes
    own = [[] for _ in gens]      # member m's betas, layer by layer
    feats = (_autoencoder_layer(0, x, range(len(gens)), gens, widths[0],
                                lam, own) if widths else [x] * len(gens))
    # the features stand in for x from here on; dropping the name frees a
    # normalized copy the caller passed, before the heads' hidden layers
    del x
    for i, L in enumerate(widths[1:], 1):
        feats = [_autoencoder_layer(i, h, [m], [gen], L, lam, [betas])[0]
                 for m, (gen, h, betas) in enumerate(zip(gens, feats, own))]
    heads = []
    for gen, h in zip(gens, feats):
        layer = random_layer(h.shape[1], width, gen)
        heads.append(ElmLayer(layer.A, layer.B, ridge_solve(
            hidden(layer, h), np.ones((h.shape[0], 1)), C)))
    return Ensemble(norm, [*(np.stack([b] * len(heads)) for b in maps),
                           *map(np.stack, zip(*own))],
                    ElmLayer(*(np.stack([getattr(h, k) for h in heads])
                               for k in ("A", "B", "beta"))),
                    config)


def _autoencoder_layer(i: int, x, members, gens, L: int, lam: float,
                       own) -> list:
    """Autoencoder layer i of the members whose input is x, one per index
    in `members` (which the FISTA warning names) and per generator: each
    member draws its layer from its own generator, then three products
    over the layers side by side serve them all: the hidden layer
    H = x · [A_0 …] (K x M*L), Hᵀx for every member's FISTA right-hand
    side, and the features x · [beta_0ᵀ …]. Each member's Gram, solve and
    span rescale run on its own columns; at the shipped shapes every
    stacked product gives each member's columns the bits of its own.
    Appends the j-th member's rescaled beta to own[j] and returns its
    features, a K x L column view of one K x M*L array."""
    layers = [random_layer(x.shape[1], L, gen) for gen in gens]
    spans = [slice(m * L, (m + 1) * L) for m in range(len(gens))]
    H = hidden(ElmLayer(np.concatenate([lay.A for lay in layers], axis=1),
                        np.concatenate([lay.B for lay in layers])), x)
    F, x_sq = H.T @ x, np.vdot(x, x)
    betas = [_lasso(i, m, H[:, s].T @ H[:, s], F[s], x_sq, lam)
             for m, s in zip(members, spans)]
    del H, F
    feats = x @ np.concatenate(betas).T
    for betas_m, s, beta in zip(own, spans, betas):
        betas_m.append(_to_span(feats[:, s], beta))
    return [feats[:, s] for s in spans]


def _lasso(i: int, m: int, G, F, target_sq, lam: float) -> np.ndarray:
    """Member m's autoencoder layer i's output weights by fista_solve on
    its Gram form, with a RuntimeWarning naming both when the solve stops
    unconverged."""
    res = fista_solve(G, F, target_sq, lam)
    if not res.converged:
        warnings.warn(f"member {m}, autoencoder layer {i}: FISTA did not "
                      f"converge in {res.iterations} iterations",
                      RuntimeWarning, stacklevel=2)
    return res.beta


def _to_span(feat, beta) -> np.ndarray:
    """Scale the features feat in place so each column's training max-abs
    is FEATURE_SPAN (one whose max-abs is under 1e-12 is scaled by
    FEATURE_SPAN alone), and return beta scaled to match, keeping
    feat = x · betaᵀ."""
    span = np.abs(feat).max(axis=0)
    scale = FEATURE_SPAN / np.where(span < 1e-12, 1.0, span)
    feat *= scale
    return beta * scale[:, None]


def helm_run(model: Ensemble, X) -> np.ndarray:
    """run_ensemble under its old name. Only bench/tracing.py's TARGETS
    names it, until ROADMAP item 3 deletes it."""
    return run_ensemble(model, X)


def run_ensemble(ens: Ensemble, X) -> np.ndarray:
    """Ensemble output: the member outputs Y averaged before thresholding.

    The ensemble's arrays are read-only, so both paths read the scoring
    plan it built once (see Ensemble); a call builds no view or layer of
    its own. A lone row is scored in one stacked pass over the members,
    its outputs then added one by one to 0.0 as Python floats, in member
    order, and the sum divided by M: the IEEE operations of the batch path,
    without its array round trips for M numbers.

    Any other batch is scored in blocks of exactly SCORE_BLOCK_ROWS rows,
    the last one padded with zero rows, so BLAS takes the same kernels for
    every block and a row scores bitwise the same in any batch of two or
    more rows. Each block is normalized once and, with maps, multiplied by
    every member's first map in one product, x · W = x · [beta_1ᵀ of
    member 0, ..., of member M-1]: one wide GEMM runs OpenBLAS's packed
    kernel faster than M skinny ones, and at the shipped widths gives each
    column the bits of the member's own product, at one and two BLAS
    threads (not at every width: a one-column map, or some stacks past 200
    columns). It is the only product made for the members side by side.
    Each member then runs its other maps, hidden layer and head on its
    columns (with no map, the one-class ELM's, on the block itself), its
    output added in member order into the block's running sum: one
    member's hidden layer is still in L2 when the head product reads it,
    where the stacked members' is not, and a product over the stacked
    heads rounds differently at some widths. So, where x · W keeps the
    members' bits, the scores are bitwise those of the member outputs
    added one by one to zero."""
    X = as_matrix(X, "X")
    K, M = X.shape[0], len(ens)
    if K == 1:
        x = apply_normalization(X, ens.norm)
        for beta_T in ens._maps_T:
            x = x @ beta_T
        h = ens.head
        # an explicit loop: sum() compensates on Python >= 3.12, and
        # math.fsum rounds exactly, either of which would change bits
        total = 0.0
        for y in (hidden(h, x) @ h.beta).ravel().tolist():
            total += y
        return np.array([total / M])
    W = ens._W
    n = SCORE_BLOCK_ROWS
    Y = np.zeros(-(-K // n) * n)
    for a in range(0, K, n):
        x = X[a:a + n]
        if len(x) < n:
            x = np.vstack((x, np.zeros((n - len(x), X.shape[1]))))
        x = apply_normalization(x, ens.norm)
        F = x if W is None else x @ W
        y = Y[a:a + n]
        for span, maps, head in ens._members:
            f = F[:, span]
            for b_T in maps:
                f = f @ b_T
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
    with replaced_when_done(path) as fh:
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
