"""Single-hidden-layer random-projection network (extreme learning machine).

Input weights and biases are drawn once and never trained; only the output
weights are solved for, via ridge regression on the hidden activations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from .data import RngStream, as_matrix

ACTIVATIONS = ("sigmoid", "identity")


@dataclass
class ElmLayer:
    A: np.ndarray                 # D x L input weights, fixed after draw
    B: np.ndarray                 # L biases
    activation: str = "sigmoid"
    beta: np.ndarray | None = field(default=None)  # L x D_Y, set by training

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.A).all() and np.isfinite(self.B).all()):
            raise ValueError("non-finite layer weights")
        if self.A.ndim != 2 or self.B.ndim != 1:
            raise ValueError("A must be a matrix and B a vector")
        if self.A.shape[1] != self.B.shape[0]:
            raise ValueError("A columns must match B length")


def random_layer(D: int, L: int, activation: str, rng) -> ElmLayer:
    """Draw input weights A (D x L) and biases B (L) i.i.d. uniform on [-1, 1]."""
    if D < 1 or L < 1:
        raise ValueError(f"non-positive dimensions D={D}, L={L}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    A = gen.uniform(-1.0, 1.0, size=(D, L))
    B = gen.uniform(-1.0, 1.0, size=L)
    return ElmLayer(A=A, B=B, activation=activation)


def hidden(layer: ElmLayer, X) -> np.ndarray:
    """Hidden-layer matrix H = g(X·A + B), K x L."""
    X = as_matrix(X, "X")
    if X.shape[1] != layer.A.shape[0]:
        raise ValueError(
            f"dimension mismatch: X has {X.shape[1]} columns, "
            f"layer expects {layer.A.shape[0]}")
    Z = X @ layer.A + layer.B
    if layer.activation == "sigmoid":
        return expit(Z)
    return Z


def ridge_solve(H, T, C: float) -> np.ndarray:
    """beta = (C·I + HᵀH)^(-1) Hᵀ T via Cholesky on the L x L Gram matrix.

    C = 0 with a singular Gram falls back to minimum-norm least squares.
    """
    H = as_matrix(H, "H")
    T = as_matrix(T, "T")
    if H.shape[0] != T.shape[0]:
        raise ValueError("H and T row counts differ")
    if not np.isfinite(C) or C < 0:
        raise ValueError("C must be finite and >= 0")
    G = H.T @ H
    G[np.diag_indices_from(G)] += C
    HtT = H.T @ T
    try:
        return cho_solve(cho_factor(G, lower=True), HtT)
    except np.linalg.LinAlgError:
        pass
    except ValueError:
        pass
    if C > 0:
        raise np.linalg.LinAlgError("ridge system not positive definite")
    beta, *_ = np.linalg.lstsq(H, T, rcond=None)
    return beta
