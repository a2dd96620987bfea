"""Independent reference implementations used to cross-check the solvers
and kernels. Kept deliberately naive and separate from the package code
paths."""
import warnings

import numpy as np

from helmfd.elm import ElmLayer, hidden, random_layer, ridge_solve
from helmfd.fista import fista_solve
from helmfd.helm import FEATURE_SPAN, Ensemble

POLISH_EVERY = 200


def sigmoid_inplace(Z):
    """Overwrite the float64 array Z with 1 / (1 + exp(-Z)) and return it,
    written as the four steps of the formula: negate, exp, + 1, reciprocal.
    For Z below about -709 exp(-Z) overflows to inf and the result is 0,
    the exact limit, so the overflow is not reported."""
    np.negative(Z, out=Z)
    with np.errstate(over="ignore"):
        np.exp(Z, out=Z)
    Z += 1.0
    return np.reciprocal(Z, out=Z)


def lasso_objective(H, X, beta, lam: float) -> float:
    """||H·beta - X||_F² + lam·||beta||_1, from the K x D residual."""
    R = H @ beta - X
    return float(np.sum(R * R) + lam * np.sum(np.abs(beta)))


def gram_form(H, X):
    """The LASSO problem min ||H·beta - X||² + lam·||beta||_1 in the form
    fista_solve takes it: (HᵀH, HᵀX, ||X||²)."""
    return H.T @ H, H.T @ X, np.vdot(X, X)


def member_by_member_train(norm, x, streams, layer_sizes, lam, C, maps=(),
                           config=None):
    """helm.train_members written as one loop over the members, each
    training all its layers before the next starts, every product on its
    own: the reference that the layer-by-layer trainer must equal bitwise
    at the shipped shapes."""
    own, heads = [], []
    for s in streams:
        gen, h, betas = s.generator(), x, []
        for i, L in enumerate(layer_sizes[:-1]):
            layer = random_layer(h.shape[1], L, gen)
            res = fista_solve(*gram_form(hidden(layer, h), h), lam)
            if not res.converged:
                warnings.warn(f"autoencoder layer {i}: FISTA did not "
                              f"converge in {res.iterations} iterations",
                              RuntimeWarning, stacklevel=2)
            feat = h @ res.beta.T
            span = np.abs(feat).max(axis=0)
            span = np.where(span < 1e-12, 1.0, span)
            betas.append(res.beta * (FEATURE_SPAN / span)[:, None])
            h = feat * (FEATURE_SPAN / span)
        layer = random_layer(h.shape[1], layer_sizes[-1], gen)
        head = ElmLayer(layer.A, layer.B, ridge_solve(
            hidden(layer, h), np.ones((h.shape[0], 1)), C))
        own.append(betas)
        heads.append(head)
    return Ensemble(norm, [*(np.stack([b] * len(heads)) for b in maps),
                           *map(np.stack, zip(*own))],
                    ElmLayer(*(np.stack([getattr(h, k) for h in heads])
                               for k in ("A", "B", "beta"))),
                    config)


def cd_lasso(H, X, lam, sweeps=50000, tol=1e-13):
    """Cyclic coordinate descent on ||H B - X||_F^2 + lam * sum|B|, run to
    stationarity, then polished by an exact solve on the identified support.
    On near-flat problems (rank-deficient H, tiny lam) plain CD stalls with
    the objective still ~1e-5 off; the polish step removes that. The polish
    is also tried every POLISH_EVERY sweeps, and CD stops as soon as it
    verifies every column: a KKT-verified point is already a minimizer, so
    further sweeps add time, not accuracy."""
    L = H.shape[1]
    B = np.zeros((L, X.shape[1]))
    hsq = (H * H).sum(axis=0)
    R = X - H @ B
    for sweep in range(1, sweeps + 1):
        worst = 0.0
        for j in range(L):
            if hsq[j] == 0.0:
                continue
            old = B[j].copy()
            c = H[:, j] @ R + hsq[j] * old
            new = np.sign(c) * np.maximum(np.abs(c) - lam / 2.0, 0.0) / hsq[j]
            step = new - old
            if np.any(step != 0.0):
                R -= np.outer(H[:, j], step)
                B[j] = new
            worst = max(worst, float(np.max(np.abs(step))))
        if worst < tol:
            break
        if sweep % POLISH_EVERY == 0:
            polished, verified = _active_set_polish(H, X, lam, B)
            if verified:
                return polished
    return _active_set_polish(H, X, lam, B)[0]


def _active_set_polish(H, X, lam, B):
    """Per column: bounded depth-first search over sign vectors, seeded with
    the support CD found. Each state gets an exact solve of the stationarity
    system 2.H_S'(H_S.b - x) + lam.s = 0; a state is accepted only when the
    full KKT conditions verify it, and convexity makes KKT sufficient, so an
    accepted column is the exact minimizer up to linear-algebra error.
    Children are support repairs: zero the coordinates whose solved sign
    disagrees, drop single coordinates when the system is inconsistent
    (rank-deficient support), or admit off-support KKT violators. Plain
    drop/add alternation two-cycles on degenerate supports, hence the search
    with a visited set. Columns that never verify keep CD's answer. Returns
    the polished B and whether every column verified."""
    out = B.copy()
    L = H.shape[1]
    verified = 0
    for d in range(X.shape[1]):
        x = X[:, d]
        visited = set()
        stack = [np.sign(B[:, d])]
        budget = 300
        while stack and budget > 0:
            s = stack.pop()
            S = s != 0.0
            key = frozenset(np.flatnonzero(S).tolist())
            if key in visited:
                continue
            visited.add(key)
            budget -= 1
            cand = np.zeros(L)
            if S.any():
                Hs = H[:, S]
                rhs = Hs.T @ x - 0.5 * lam * s[S]
                sol, *_ = np.linalg.lstsq(Hs.T @ Hs, rhs, rcond=None)
                bad = np.sign(sol) != s[S]
                if np.any(bad):
                    child = s.copy()
                    child[np.flatnonzero(S)[bad]] = 0.0
                    stack.append(child)
                    continue
                cand[S] = sol
            grad = 2.0 * (H.T @ (H @ cand - x))
            on_ok = np.all(np.abs(grad[S] + lam * s[S]) <= 1e-8 * max(1.0, lam))
            slack = lam * (1.0 + 1e-12) + 1e-12
            viol = np.abs(grad) * (~S) - slack
            if on_ok and np.all(viol <= 0.0):
                out[:, d] = cand
                verified += 1
                break
            if not on_ok:
                # push weakest-first drops; reversed so the weakest pops first
                order = np.flatnonzero(S)[np.argsort(np.abs(cand[S]))]
                for j in order[::-1]:
                    child = s.copy()
                    child[j] = 0.0
                    stack.append(child)
            else:
                # push worst-first violator admissions, reversed likewise
                order = [int(j) for j in np.argsort(viol)[::-1] if viol[j] > 0.0]
                for j in order[::-1]:
                    child = s.copy()
                    child[j] = -np.sign(grad[j])
                    stack.append(child)
    return out, verified == X.shape[1]
