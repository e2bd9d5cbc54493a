"""Named parameter registry over flat parameter, gradient and accumulator buffers."""

from __future__ import annotations

import numpy as np

# The word table: the one array kept out of the flat buffers.
TABLE = "embeddings"


class ParameterStore:
    """All trainable arrays of a model, addressable by name.

    Every parameter has a gradient and an Adagrad accumulator of its shape.
    All but the table live in three flat buffers with room for `capacity`
    entries: `flat_params`, `flat_grads` and `flat_accums` hold the arrays
    registered so far back to back, in registration order (which is also
    the checkpoint order), and each named array is a view of its slice. So
    one operation over a flat buffer covers every dense array, and arrays
    registered one after another form one contiguous slice.

    Ownership: `add` copies a dense array into its slice. It takes the
    table without a copy and training writes into it, so a caller that must
    keep its own table passes a copy. A table that cannot be trained in
    place (read-only, not float64 or not C-contiguous) is copied: one viewed
    over immutable checkpoint bytes becomes a private copy, one viewed over
    the buffer that `load_checkpoint` alone holds is taken as it is.
    """

    def __init__(self, capacity: int) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.accums: dict[str, np.ndarray] = {}
        # np.zeros gets zeroed pages from the allocator
        self._buffers = tuple(np.zeros(capacity) for _ in range(3))
        self.flat_params, self.flat_grads, self.flat_accums = (b[:0] for b in self._buffers)

    def add(self, name: str, array: np.ndarray) -> np.ndarray:
        if name in self.params:
            raise ValueError(f"parameter '{name}' registered twice")
        if name == TABLE:
            array = np.require(array, dtype=np.float64, requirements=("C", "W"))
            # a frozen model never touches the table's gradient and accumulator
            arrays = (array, np.zeros(array.shape), np.zeros(array.shape))
        else:
            start = self.flat_params.size
            stop = start + np.size(array)
            if stop > len(self._buffers[0]):
                raise ValueError(f"parameter '{name}' overflows the store's capacity")
            self.flat_params, self.flat_grads, self.flat_accums = (b[:stop] for b in self._buffers)
            arrays = tuple(b[start:stop].reshape(np.shape(array)) for b in self._buffers)
            arrays[0][...] = array
        self.params[name], self.grads[name], self.accums[name] = arrays
        return arrays[0]
