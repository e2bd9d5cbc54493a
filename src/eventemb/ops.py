"""Low-level numeric primitives shared by all model components.

Everything here is double precision and operates on caller-owned numpy
arrays. `cosine` works on (R, k) row blocks and has a gradient companion,
`cosine_grads`, returning the exact analytic derivatives that the
finite-difference checker validates; the layers differentiate their own
nonlinearities inline.
"""

from __future__ import annotations

import numpy as np

# Added to the product of the row norms in every cosine denominator.
COSINE_EPS = 1e-8


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _row_norms(u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """u and v as float (R, k) blocks of one shape, plus their (R,) row norms."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 2 or u.shape != v.shape:
        raise ValueError(f"cosine: shape mismatch {u.shape} vs {v.shape}, expected (R, k) blocks")
    return u, v, np.sqrt(np.vecdot(u, u)), np.sqrt(np.vecdot(v, v))


def cosine(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(R,) cosines of the rows of two (R, k) blocks, epsilon-guarded.

    A row where either side is all-zero gets 0.0. Raises on a shape mismatch.
    """
    u, v, nu, nv = _row_norms(u, v)
    live = (nu != 0.0) & (nv != 0.0)
    return np.divide(np.vecdot(u, v), nu * nv + COSINE_EPS, out=np.zeros(len(u)), where=live)


def cosine_grads(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R,) row cosines plus their (R, k) gradients w.r.t. both blocks; a row
    where either side is all-zero gets zero gradients."""
    u, v, nu, nv = _row_norms(u, v)
    live = (nu != 0.0) & (nv != 0.0)
    denom = nu * nv + COSINE_EPS
    c = np.divide(np.vecdot(u, v), denom, out=np.zeros(len(u)), where=live)
    cc, nu, nv, denom = c[:, None], nu[:, None], nv[:, None], denom[:, None]
    # an all-zero row divides 0 by 0 here; its gradients are masked to zero below
    with np.errstate(divide="ignore", invalid="ignore"):
        du = (v - cc * nv * u / nu) / denom
        dv = (u - cc * nu * v / nv) / denom
    return c, np.where(live[:, None], du, 0.0), np.where(live[:, None], dv, 0.0)
