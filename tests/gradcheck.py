"""Central finite-difference gradient checker for the tests.

The differentiable-operation contract used throughout eventemb: an op
exposes a scalar forward value and exact analytic gradients for every
input/parameter array it touches. The checker perturbs each coordinate of
each array in place and compares central differences against the analytic
values. Vector-valued ops are checked through a fixed random projection
(see `random_projection`), which makes the composite scalar sensitive to
every output coordinate.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

DEFAULT_STEP = 1e-5


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def grad_check(
    fn: Callable[[], tuple[float, Mapping[str, np.ndarray]]],
    params: Mapping[str, np.ndarray],
    step: float = DEFAULT_STEP,
    value_fn: Callable[[], float] | None = None,
) -> float:
    """Max relative error between analytic gradients and central differences.

    fn() evaluates the op at the current contents of `params` and returns
    (scalar value, {name: gradient array}). Gradient keys must cover every
    array in `params` with matching shapes. `params` arrays are perturbed in
    place during the sweep and restored afterwards. `value_fn`, when given,
    is a cheaper forward-only evaluation used for the perturbed points.
    """
    value, grads = fn()
    if not np.isfinite(value):
        raise FloatingPointError(f"grad_check: non-finite forward value {value!r}")
    evaluate = value_fn if value_fn is not None else (lambda: fn()[0])

    worst = 0.0
    for name, arr in params.items():
        if name not in grads:
            raise KeyError(f"grad_check: no analytic gradient reported for '{name}'")
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != arr.shape:
            raise ValueError(
                f"grad_check: gradient for '{name}' has shape {g.shape}, "
                f"parameter has {arr.shape}"
            )
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = evaluate()
            flat[i] = orig - step
            down = evaluate()
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise FloatingPointError(
                    f"grad_check: non-finite forward value while perturbing '{name}'"
                )
            numeric = (up - down) / (2.0 * step)
            worst = max(worst, relative_error(float(gflat[i]), numeric))
    return worst


def random_projection(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Fixed random unit vector for reducing a vector-valued op to a scalar."""
    proj = rng.standard_normal(dim)
    return proj / np.linalg.norm(proj)
