"""Named parameters over a word table and flat parameter, gradient and accumulator buffers."""

from __future__ import annotations

import math

import numpy as np

# The word table: the one array kept out of the flat buffers.
TABLE = "embeddings"

# Entries per block of an elementwise update of a flat buffer (the Adagrad
# step, the L2 gradient): a block's temporaries (256 KiB each) stay in cache,
# where those of a whole paper-shape flat buffer (6 MB each) do not.
FLAT_BLOCK = 1 << 15

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
    order); `flat_grads` and `flat_accums` mirror it. `params` names the
    table and a view of each array's slice, `grads` and `accums` the slices
    alone. So one operation over a flat buffer covers every dense array.

    The table's gradient and accumulator cover only the rows training
    touches. `table_grads` lists the contributions of one step in call
    order, each (N,) row ids and their (N, d) gradient rows. `table_rows`
    holds the sorted ids of every row any step has touched and
    `table_accums` their accumulator rows, in the same order. A frozen
    model's are empty.

    Ownership: the store takes `flat` and `table` without a copy and training
    writes into them, so a caller that must keep its own passes a copy. An
    array that cannot be trained in place (read-only, not float64 or not
    C-contiguous) is copied: one viewed over immutable checkpoint bytes
    becomes a private copy, one viewed over the copy-on-write mapping that
    `load_checkpoint` makes is taken as it is, and its writes go to private
    pages, never to the file.
    """

    def __init__(self, layout: Layout, flat: np.ndarray, table: np.ndarray) -> None:
        size = flat_size(layout)
        if np.shape(flat) != (size,):
            raise ValueError(f"flat buffer has shape {np.shape(flat)}, the layout needs ({size},)")
        self.flat_params = np.require(flat, dtype=np.float64, requirements=("C", "W"))
        # np.zeros gets zeroed pages from the allocator
        self.flat_grads, self.flat_accums = np.zeros(size), np.zeros(size)
        self.table_grads: list[tuple[np.ndarray, np.ndarray]] = []
        self.params = {TABLE: np.require(table, dtype=np.float64, requirements=("C", "W"))}
        self.table_rows = np.zeros(0, dtype=np.int64)
        self.table_accums = np.zeros((0, self.params[TABLE].shape[1]))
        self.grads, self.accums = {}, {}
        start = 0
        for name, (shape, _) in layout.items():
            stop = start + math.prod(shape)
            self.params[name] = self.flat_params[start:stop].reshape(shape)
            self.grads[name] = self.flat_grads[start:stop].reshape(shape)
            self.accums[name] = self.flat_accums[start:stop].reshape(shape)
            start = stop
