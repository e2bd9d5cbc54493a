"""Named parameter registry with paired gradient and Adagrad accumulator arrays."""

from __future__ import annotations

import numpy as np


class ParameterStore:
    """All trainable arrays of a model, addressable by name.

    Every registered parameter owns a gradient buffer and an Adagrad
    accumulator of identical shape. Registration order is preserved, which
    makes checkpoint layout and optimizer sweeps deterministic. Components
    keep direct references to the arrays; updates happen in place so the
    references stay valid for the lifetime of the model.
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.accums: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> np.ndarray:
        if name in self.params:
            raise ValueError(f"parameter '{name}' registered twice")
        # always copy: the store owns its parameter memory, so training can
        # never mutate a caller-held array in place
        array = np.array(array, dtype=np.float64, order="C")
        self.params[name] = array
        self.grads[name] = np.zeros_like(array)
        self.accums[name] = np.zeros_like(array)
        return array

    def grad(self, name: str) -> np.ndarray:
        return self.grads[name]
