"""Reference locality-preserving encoders for kernel comparison.

Three classic schemes, used only to contrast kernel shapes with the
modular phasor code:

* thermometer: level s maps to s leading +1s and D-s trailing -1s;
  cosine kernel is the triangle 1 - 2|ds|/D (width 2D+1 levels).
* float (sliding window): w consecutive +1s starting at s; normalized
  inner product is the triangle max(0, 1 - |ds|/w) (width 2w+1).
* scatter: each level flips a random fraction p of the previous level's
  signs; expected similarity after ds steps is (1 - 2p)^ds.
"""

from __future__ import annotations

import numpy as np

from .phasor import _cosine

__all__ = [
    "thermometer_encode",
    "thermometer_kernel",
    "float_encode",
    "float_kernel",
    "scatter_encode",
    "scatter_expected_similarity",
    "scatter_similarity_curve",
    "cosine",
    "fit_kernel_shapes",
]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    # float first: the int8 codes' own dot product would wrap
    return _cosine(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def thermometer_encode(s: int, D: int) -> np.ndarray:
    """Level s in [0, D]: first s components +1, the rest -1 (z(0) is all -1s)."""
    if not 0 <= s <= D:
        raise ValueError(f"level {s} out of range [0, {D}]")
    out = np.full(D, -1, dtype=np.int8)
    out[:s] = 1
    return out


def thermometer_kernel(D: int, delta) -> np.ndarray:
    """Closed-form cosine of thermometer codes at level offset delta."""
    delta = np.abs(np.asarray(delta, dtype=float))
    return 1.0 - 2.0 * delta / D


def float_encode(s: int, D: int, w: int) -> np.ndarray:
    """Window code: +1 on [s, s+w), 0 elsewhere; s in [0, D-w]."""
    if not 1 <= w <= D:
        raise ValueError(f"window width {w} out of range [1, {D}]")
    if not 0 <= s <= D - w:
        raise ValueError(f"level {s} out of range [0, {D - w}]")
    out = np.zeros(D, dtype=np.int8)
    out[s : s + w] = 1
    return out


def float_kernel(w: int, delta) -> np.ndarray:
    """Closed-form inner product / w of float codes at level offset delta."""
    delta = np.abs(np.asarray(delta, dtype=float))
    return np.maximum(0.0, 1.0 - delta / w)


def scatter_encode(levels: int, D: int, p: float, seed: int) -> np.ndarray:
    """Chained random sign flips: (levels, D) bipolar array, deterministic per seed.

    Row 0 is random; row s flips each component of row s-1 with
    probability p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {p}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    rng = np.random.default_rng(seed)
    out = np.empty((levels, D), dtype=np.int8)
    out[0] = rng.integers(0, 2, size=D, dtype=np.int8) * 2 - 1
    for s in range(1, levels):
        flip = rng.random(D) <= p
        out[s] = np.where(flip, -out[s - 1], out[s - 1])
    return out


def scatter_expected_similarity(p: float, delta) -> np.ndarray:
    """E[cosine] after delta flip steps: (1 - 2p)^|delta|."""
    delta = np.abs(np.asarray(delta, dtype=float))
    return (1.0 - 2.0 * p) ** delta


def scatter_similarity_curve(levels: int, D: int, p: float, seeds) -> np.ndarray:
    """Mean cosine(z(0), z(ds)) over random initializations, ds in [0, levels)."""
    curves = []
    for seed in seeds:
        codes = scatter_encode(levels, D, p, seed).astype(float)
        sims = codes @ codes[0] / D
        curves.append(sims)
    return np.mean(curves, axis=0)


# --- kernel shape fitting -------------------------------------------------


def _exponentiated_triangular(d, gamma, alpha):
    return np.maximum(1.0 - gamma * np.abs(d), 0.0) ** alpha


def _squared_exponential(d, length):
    return np.exp(-(d**2) / (2.0 * length**2))


def _rational_quadratic(d, alpha, length):
    return (1.0 + d**2 / (2.0 * alpha * length**2)) ** (-alpha)


_FIT_MAX_ITERS = 1000
_FIT_FTOL = 1e-12  # a relative cost decrease this small ends a fit
_FIT_DIFF_STEP = 1e-8  # forward-difference step in log-parameter space


def _fit_positive(fn, x, y, p0):
    """Levenberg-Marquardt least squares of fn(x, *p) to y over log p, so p > 0.

    A step whose cost is not finite is rejected. None when the start or a
    Jacobian is not finite, or the fit runs past _FIT_MAX_ITERS.
    """
    def residual(q):
        r = fn(x, *np.exp(q)) - y
        return r, (r @ r if np.all(np.isfinite(r)) else np.inf)

    q, lam = np.log(np.asarray(p0, dtype=float)), 1e-3
    diffs = np.eye(q.size) * _FIT_DIFF_STEP
    with np.errstate(all="ignore"):
        r, cost = residual(q)
        for _ in range(_FIT_MAX_ITERS):
            jac = np.stack([residual(q + h)[0] - r for h in diffs], axis=1) / _FIT_DIFF_STEP
            scale = np.linalg.norm(jac, axis=0)
            if not (np.isfinite(cost) and np.all(np.isfinite(scale))):
                return None
            while True:
                aug = np.vstack([jac, np.diag(np.sqrt(lam) * scale)])
                step = np.linalg.lstsq(aug, np.concatenate([-r, np.zeros(q.size)]), rcond=None)[0]
                trial, trial_cost = residual(q + step)
                if trial_cost < cost:
                    break
                lam *= 10.0
                if lam > 1e12:  # no step lowers the cost: q is a minimum
                    return np.exp(q)
            drop = cost - trial_cost
            q, r, cost, lam = q + step, trial, trial_cost, lam / 10.0
            if drop <= _FIT_FTOL * (cost + drop):
                return np.exp(q)
    return None


def fit_kernel_shapes(deltas, sims) -> dict:
    """Least-squares fit of three candidate kernels to an empirical curve.

    Each fit is a Levenberg-Marquardt over the log-parameters with
    forward differences (_fit_positive). Returns per-kernel parameters
    and mean squared error, plus the name of the best (lowest-MSE) fit;
    a failed fit keeps its starting parameters and an infinite MSE.
    """
    deltas = np.asarray(deltas, dtype=float)
    sims = np.asarray(sims, dtype=float)
    candidates = {
        "exponentiated_triangular": (_exponentiated_triangular, [1.0 / max(deltas.max(), 1.0), 1.0]),
        "squared_exponential": (_squared_exponential, [max(deltas.max(), 1.0) / 3.0]),
        "rational_quadratic": (_rational_quadratic, [1.0, max(deltas.max(), 1.0) / 3.0]),
    }
    fits = {}
    for name, (fn, p0) in candidates.items():
        params = _fit_positive(fn, deltas, sims, p0)
        if params is None:
            params, mse = np.array(p0), float("inf")
        else:
            mse = float(np.mean((fn(deltas, *params) - sims) ** 2))
        fits[name] = {"params": [float(p) for p in params], "mse": mse}
    fits["best"] = min((k for k in fits if k != "best"), key=lambda k: fits[k]["mse"])
    return fits
