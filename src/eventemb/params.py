"""Named parameters over a word table and flat parameter, gradient and accumulator buffers."""

from __future__ import annotations

import math

import numpy as np

# The word table: the one array kept out of the flat buffers.
TABLE = "embeddings"

# A component's arrays: name -> (shape, r), in checkpoint order. A new model
# draws each array uniformly from [-r, r], or zeros it when r is 0.
Layout = dict[str, tuple[tuple[int, ...], float]]


def flat_size(layout: Layout) -> int:
    """Entries of the flat buffer that holds `layout`'s arrays back to back."""
    return sum(math.prod(shape) for shape, _ in layout.values())


def initial_flat(layout: Layout, rng: np.random.Generator) -> np.ndarray:
    """A new model's flat buffer for `layout`, each array drawn from `rng` in layout order."""
    sizes = [(math.prod(shape), r) for shape, r in layout.values()]
    return np.concatenate([rng.uniform(-r, r, n) if r else np.zeros(n) for n, r in sizes])


class ParameterStore:
    """All trainable arrays of a model, addressable by name.

    A model's parameters are the word table and `flat_params`, which holds
    the arrays of `layout` back to back in layout order (the checkpoint
    order); `flat_grads` and `flat_accums` mirror it. `params`, `grads` and
    `accums` name the table and a view of each array's slice. So one
    operation over a flat buffer covers every dense array.

    Ownership: the store takes `flat` and `table` without a copy and training
    writes into them, so a caller that must keep its own passes a copy. An
    array that cannot be trained in place (read-only, not float64 or not
    C-contiguous) is copied: one viewed over immutable checkpoint bytes
    becomes a private copy, one viewed over the buffer that `load_checkpoint`
    alone holds is taken as it is.
    """

    def __init__(self, layout: Layout, flat: np.ndarray, table: np.ndarray | None = None) -> None:
        size = flat_size(layout)
        if np.shape(flat) != (size,):
            raise ValueError(f"flat buffer has shape {np.shape(flat)}, the layout needs ({size},)")
        self.flat_params = np.require(flat, dtype=np.float64, requirements=("C", "W"))
        # np.zeros gets zeroed pages from the allocator
        self.flat_grads, self.flat_accums = np.zeros(size), np.zeros(size)
        views = {}  # name -> (parameter, gradient, accumulator)
        if table is not None:
            table = np.require(table, dtype=np.float64, requirements=("C", "W"))
            # a frozen model never touches the table's gradient and accumulator
            views[TABLE] = (table, np.zeros(table.shape), np.zeros(table.shape))
        buffers = (self.flat_params, self.flat_grads, self.flat_accums)
        start = 0
        for name, (shape, _) in layout.items():
            stop = start + math.prod(shape)
            views[name] = tuple(b[start:stop].reshape(shape) for b in buffers)
            start = stop
        self.params, self.grads, self.accums = (
            {name: triple[i] for name, triple in views.items()} for i in range(3)
        )
