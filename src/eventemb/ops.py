"""Low-level numeric primitives shared by all model components.

Everything here is double precision and operates on caller-owned numpy
arrays. `cosine` has a gradient companion, `cosine_grads`, returning the
exact analytic derivatives that the finite-difference checker validates;
the layers differentiate their own nonlinearities inline.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _cosine_parts(u, v, eps: float) -> tuple:
    """(cosine, u, v, |u|, |v|, denominator), shared by cosine and cosine_grads.

    u and v come back as float arrays. The denominator is None, and the
    cosine 0.0, when either vector is all-zero.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"cosine: length mismatch {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0, u, v, nu, nv, None
    denom = nu * nv + eps
    return float(np.dot(u, v) / denom), u, v, nu, nv, denom


def cosine(u: np.ndarray, v: np.ndarray, eps: float = 1e-8) -> float:
    """Cosine similarity with an epsilon-guarded denominator.

    Returns 0.0 when either vector is all-zero. Raises on length mismatch.
    """
    return _cosine_parts(u, v, eps)[0]


def cosine_grads(
    u: np.ndarray, v: np.ndarray, eps: float = 1e-8
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cosine similarity plus gradients w.r.t. both inputs (zero for a zero vector)."""
    c, u, v, nu, nv, denom = _cosine_parts(u, v, eps)
    if denom is None:
        return c, np.zeros_like(u), np.zeros_like(v)
    du = (v - c * nv * u / nu) / denom
    dv = (u - c * nu * v / nv) / denom
    return c, du, dv
