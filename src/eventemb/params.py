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

    Ownership: `add` takes the array it is given, without a copy, and
    training writes into it. A caller that must keep its own array passes
    a copy. An array that cannot be trained in place (read-only, not
    float64 or not C-contiguous) is copied, so the store never writes into
    memory it was not handed: a table viewed over immutable checkpoint
    bytes becomes a private copy, one viewed over the buffer that
    `load_checkpoint` alone holds is taken as it is.
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.accums: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> np.ndarray:
        if name in self.params:
            raise ValueError(f"parameter '{name}' registered twice")
        array = np.require(array, dtype=np.float64, requirements=("C", "W"))
        self.params[name] = array
        # np.zeros gets zeroed pages from the allocator: a frozen model never
        # touches the table's gradient and accumulator
        self.grads[name] = np.zeros(array.shape)
        self.accums[name] = np.zeros(array.shape)
        return array

    def grad(self, name: str) -> np.ndarray:
        return self.grads[name]
