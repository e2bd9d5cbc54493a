"""Named parameter registry over flat parameter, gradient and accumulator buffers."""

from __future__ import annotations

import numpy as np

# The word table: the one array kept out of the flat buffers.
TABLE = "embeddings"

# A component's arrays: name -> (shape, r), in checkpoint order. A new model
# draws each array uniformly from [-r, r], or zeros it when r is 0.
Layout = dict[str, tuple[tuple[int, ...], float]]


def initial_arrays(layout: Layout, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """A new model's arrays for `layout`, drawn from `rng` in layout order."""
    return {
        name: rng.uniform(-r, r, shape) if r else np.zeros(shape)
        for name, (shape, r) in layout.items()
    }


class ParameterStore:
    """All trainable arrays of a model, addressable by name.

    Every parameter has a gradient and an Adagrad accumulator of its shape.
    All but the table live in three flat buffers sized by their total:
    `flat_params`, `flat_grads` and `flat_accums` hold the arrays back to
    back, in the order given (which is also the checkpoint order), and each
    named array is a view of its slice. So one operation over a flat buffer
    covers every dense array, and arrays given one after another form one
    contiguous slice.

    Ownership: the store copies each dense array into its slice. It takes
    the table without a copy and training writes into it, so a caller that
    must keep its own table passes a copy. A table that cannot be trained in
    place (read-only, not float64 or not C-contiguous) is copied: one viewed
    over immutable checkpoint bytes becomes a private copy, one viewed over
    the buffer that `load_checkpoint` alone holds is taken as it is.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.accums: dict[str, np.ndarray] = {}
        size = sum(np.size(a) for name, a in arrays.items() if name != TABLE)
        # np.zeros gets zeroed pages from the allocator
        buffers = tuple(np.zeros(size) for _ in range(3))
        self.flat_params, self.flat_grads, self.flat_accums = buffers
        start = 0
        for name, array in arrays.items():
            if name == TABLE:
                array = np.require(array, dtype=np.float64, requirements=("C", "W"))
                # a frozen model never touches the table's gradient and accumulator
                views = (array, np.zeros(array.shape), np.zeros(array.shape))
            else:
                stop = start + np.size(array)
                views = tuple(b[start:stop].reshape(np.shape(array)) for b in buffers)
                views[0][...] = array
                start = stop
            self.params[name], self.grads[name], self.accums[name] = views
