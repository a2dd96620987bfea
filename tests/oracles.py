"""Independent reference implementations used to cross-check the solvers.
Kept deliberately naive and separate from the package code paths."""
import numpy as np

POLISH_EVERY = 200


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
