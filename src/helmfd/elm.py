"""Single-hidden-layer random-projection network (extreme learning machine).

Input weights and biases are drawn once and never trained; only the output
weights are solved for, via ridge regression on the hidden activations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve


@dataclass(frozen=True)
class ElmLayer:
    """One layer, or M layers of one shape stacked over a leading member
    axis: A is then M x D x L, B M x L and beta M x L x D_Y. Only shapes are
    checked here; helm.Ensemble checks that the entries are finite.

    Read-only once built: the fields cannot be reassigned, and A, B and beta
    are made read-only in place, so an in-place write to them raises
    ValueError. neg_B is -B shaped to broadcast over the rows (... x 1 x L),
    negated once here for hidden; the freeze keeps it in step with B."""
    A: np.ndarray                 # D x L input weights, fixed after draw
    B: np.ndarray                 # L biases
    beta: np.ndarray | None = None  # L x D_Y, set by training
    neg_B: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.A.ndim not in (2, 3) or self.B.ndim != self.A.ndim - 1:
            raise ValueError("A must be a matrix and B a vector")
        if self.A.shape[:-2] + self.A.shape[-1:] != self.B.shape:
            raise ValueError("A columns must match B length")
        neg_B = -self.B[..., None, :]
        for a in (self.A, self.B, self.beta, neg_B):
            if a is not None:
                a.flags.writeable = False
        object.__setattr__(self, "neg_B", neg_B)


def random_layer(D: int, L: int, gen: np.random.Generator) -> ElmLayer:
    """Draw input weights A (D x L) and biases B (L) i.i.d. uniform on [-1, 1]."""
    if D < 1 or L < 1:
        raise ValueError(f"non-positive dimensions D={D}, L={L}")
    A = gen.uniform(-1.0, 1.0, size=(D, L))
    B = gen.uniform(-1.0, 1.0, size=L)
    return ElmLayer(A=A, B=B)


@np.errstate(over="ignore")
def _exp_inplace(Z: np.ndarray) -> np.ndarray:
    """exp over Z in place, an overflow to inf not reported. The decorator
    sets the error state on each call; an errstate instance cannot be
    entered twice, so a with block would build a new one per call."""
    return np.exp(Z, out=Z)


def hidden(layer: ElmLayer, X: np.ndarray) -> np.ndarray:
    """Hidden-layer matrix H = 1 / (1 + exp(-(X·A + B))), K x L, for a
    finite float64 K x D ndarray X, in four in-place passes over Z = X·A:
    (-B) - Z from the layer's stored neg_B, which is -(Z + B) bit for bit
    (negation is exact and rounding symmetric in sign; only a zero's sign
    can differ, and exp(±0) = 1), then exp, + 1 and the reciprocal. Within
    a few ulp of scipy's expit at about half its cost. Where exp overflows
    H reads 0, the exact limit, so the overflow is not reported; no other
    floating-point state changes.

    A stacked layer takes X as K x D (shared by the members) or M x K x D
    and returns M x K x L, member m computed with the same BLAS call and
    elementwise steps as a layer of its own.
    """
    if X.shape[-1] != layer.A.shape[-2]:
        raise ValueError(
            f"dimension mismatch: X has {X.shape[-1]} columns, "
            f"layer expects {layer.A.shape[-2]}")
    Z = X @ layer.A
    np.subtract(layer.neg_B, Z, out=Z)
    _exp_inplace(Z)
    Z += 1.0
    return np.reciprocal(Z, out=Z)


def ridge_solve(H: np.ndarray, T: np.ndarray, C: float) -> np.ndarray:
    """beta = (C·I + HᵀH)^(-1) Hᵀ T via Cholesky on the L x L Gram matrix,
    for finite float64 matrices H (K x L) and T (K x D_Y).

    C = 0 with a singular Gram falls back to minimum-norm least squares.
    """
    if H.shape[0] != T.shape[0]:
        raise ValueError("H and T row counts differ")
    if not np.isfinite(C) or C < 0:
        raise ValueError("C must be finite and >= 0")
    G = H.T @ H
    G[np.diag_indices_from(G)] += C
    HtT = H.T @ T
    try:
        return cho_solve(cho_factor(G, lower=True), HtT)
    except (np.linalg.LinAlgError, ValueError):
        pass
    if C > 0:
        raise np.linalg.LinAlgError("ridge system not positive definite")
    beta, *_ = np.linalg.lstsq(H, T, rcond=None)
    return beta
