"""Low-rank tensor composition of event tuples into embeddings and scores.

Three stacked composition layers map (actor, predicate, object) word-vector
averages to the event embedding C: layer 1 composes actor with predicate,
layer 2 predicate with object, layer 3 the two intermediate vectors. A
linear head over C yields the scalar plausibility score used by the margin
loss against corrupted events.
"""

from __future__ import annotations

import numpy as np

from .data import EventTuple, Vocabulary
from .params import FLAT_BLOCK, TABLE, Layout, ParameterStore

# Event arguments that training may corrupt to draw negative events.
CORRUPTION_TARGETS = ("actor", "object")


class LowRankLayer:
    """k bilinear slices in factored form plus an affine part and tanh.

    Slice i contributes x' (left_i @ right_i + diag(diag_i)) y, with left_i =
    left[:, :, i] and right_i = right[:, i, :]; the k bilinear values are
    added to W [x; y] + b before the nonlinearity. With k innermost, both
    factors' GEMM forms, (d_in, n*k) and (n*k, d_in), are reshaped views.
    """

    @staticmethod
    def layout(prefix: str, d_in: int, k: int, n: int) -> Layout:
        r = 1.0 / np.sqrt(d_in)
        return {
            f"{prefix}.left": ((d_in, n, k), r),
            f"{prefix}.right": ((n, k, d_in), r),
            f"{prefix}.diag": ((k, d_in), 0.0),
            f"{prefix}.w": ((k, 2 * d_in), r),
            f"{prefix}.b": ((k,), r),
        }

    def __init__(self, store: ParameterStore, prefix: str) -> None:
        names = [f"{prefix}.{a}" for a in ("left", "right", "diag", "w", "b")]
        self.left, self.right, self.diag, self.w, self.b = (store.params[a] for a in names)
        self.g_left, self.g_right, self.g_diag, self.g_w, self.g_b = (
            store.grads[a] for a in names
        )
        self.d_in, self.n, self.k = self.left.shape
        self.prefix = prefix  # the benchmark's tracer names the layer's spans by it

    def forward(
        self, x: np.ndarray, y: np.ndarray, keep_cache: bool = True
    ) -> tuple[np.ndarray, tuple | None]:
        """(B, k) outputs for B row pairs x, y, which must be (B, d_in), plus the
        cache for `backward`, or None if `keep_cache` is false: a frozen caller
        then frees u and v, the largest arrays here, as this returns."""
        # u and v are (B, n, k): the sum over the rank, and the backward's
        # broadcasts, run along the contiguous k axis
        u = (x @ self.left.reshape(self.d_in, -1)).reshape(len(x), self.n, self.k)
        v = (y @ self.right.reshape(-1, self.d_in).T).reshape(len(x), self.n, self.k)
        bilinear = np.einsum("bnk,bnk->bk", u, v) + (x * y) @ self.diag.T
        xy = np.concatenate((x, y), axis=1)
        out = np.tanh(bilinear + xy @ self.w.T + self.b)
        return out, (x, y, xy, u, v, out) if keep_cache else None

    def backward(self, dout: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate parameter gradients summed over the rows, return (dx, dy).

        The parameters must still hold the values of the forward that made the
        cache: the GEMM operands are views of them, not cached copies.
        """
        x, y, xy, u, v, out = cache
        d = self.d_in
        dpre = dout * (1.0 - out * out)
        du = (dpre[:, None, :] * v).reshape(len(x), -1)
        dv = (dpre[:, None, :] * u).reshape(len(x), -1)
        dz = dpre @ self.w
        self.g_b += dpre.sum(axis=0)
        self.g_w += dpre.T @ xy
        self.g_diag += dpre.T @ (x * y)
        self.g_left += (x.T @ du).reshape(self.left.shape)
        self.g_right += (dv.T @ y).reshape(self.right.shape)
        ddiag_scale = dpre @ self.diag
        dx = dz[:, :d] + du @ self.left.reshape(d, -1).T + ddiag_scale * y
        dy = dz[:, d:] + dv @ self.right.reshape(-1, d) + ddiag_scale * x
        return dx, dy


def code_events(vocab: Vocabulary, events: list[EventTuple]) -> tuple[np.ndarray, np.ndarray]:
    """The flat word ids of the 3B arguments of B events, actor, predicate and
    object in turn, and the (3B,) argument sizes; an unknown word gets id 0."""
    args = [arg for e in events for arg in (e.actor, e.predicate, e.object)]
    sizes = np.array([len(arg) for arg in args])
    return np.array([vocab.index(w) for arg in args for w in arg]), sizes


def argument_means(table: np.ndarray, ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The (A, d) means of A arguments coded by `code_events`: each argument's
    word rows summed strictly left to right, then divided by its word count.

    The sum runs by word position: the first words' rows, then one `+=` per
    later position over the arguments that have a word there. For 1 or 2
    words this is bit-equal to `np.add.reduceat`, whose order differs from
    3 words on.
    """
    starts = np.cumsum(sizes) - sizes
    # `take` gathers rows with less call overhead than fancy indexing, which
    # is most of the cost at the desk shape
    sums = table.take(ids[starts], axis=0)
    for j in range(1, sizes.max()):
        longer = np.flatnonzero(sizes > j)
        sums[longer] += table.take(ids[starts[longer] + j], axis=0)
    sums /= sizes[:, None]
    return sums


def corrupt_event(
    ids: np.ndarray, sizes: np.ndarray, n_words: int, rng: np.random.Generator,
    target: str = "actor",
) -> np.ndarray:
    """A copy of one event's ids, coded by `code_events`, with each word of the
    target argument replaced by a random id. Draws are uniform over the ids
    1 .. n_words - 1, never the unknown id 0; a draw equal to the original id
    at that position is redrawn, so the corrupted argument always differs.

    `target` must be one of CORRUPTION_TARGETS and n_words at least 3, or
    this may never return; `TrainingConfig` and `train` check both.
    """
    argument = 0 if target == "actor" else 2
    start = sum(sizes[:argument])
    corrupted = np.array(ids)
    for j in range(start, start + sizes[argument]):
        while True:
            candidate = int(rng.integers(1, n_words))
            if candidate != ids[j]:
                break
        corrupted[j] = candidate
    return corrupted


class EventComposer:
    """The full three-layer composer with its linear scoring head, over the
    word table held in the store."""

    @staticmethod
    def layout(d: int, k: int, n: int) -> Layout:
        return {
            **LowRankLayer.layout("layer1", d, k, n),
            **LowRankLayer.layout("layer2", d, k, n),
            **LowRankLayer.layout("layer3", k, k, n),
            "u": ((k,), 1.0 / np.sqrt(k)),
        }

    def __init__(self, store: ParameterStore) -> None:
        self.embeddings, self.table_grads = store.params[TABLE], store.table_grads
        self.layer1, self.layer2, self.layer3 = (
            LowRankLayer(store, prefix) for prefix in ("layer1", "layer2", "layer3")
        )
        self.u, self.g_u = store.params["u"], store.grads["u"]
        self.d = self.embeddings.shape[1]
        # the L2 term covers the layers' 15 arrays (not the score head or the
        # table), which lead the layout: one slice of the flat buffers
        size = sum(a.size for name, a in store.params.items() if name.startswith("layer"))
        self.l2_params = store.flat_params[:size]
        self.l2_grads = store.flat_grads[:size]

    def embed(
        self, ids: np.ndarray, sizes: np.ndarray, keep_cache: bool = True
    ) -> tuple[np.ndarray, tuple | None]:
        """(B, k) embeddings C of B >= 1 events coded by `code_events`, composed
        from the `argument_means` of their 3B arguments, plus the cache for
        embed_backward. With `keep_cache` false the cache is None and no layer
        keeps its cache past its own forward, as frozen inference needs."""
        means = argument_means(self.embeddings, ids, sizes)
        a, p, o = means[0::3], means[1::3], means[2::3]
        s1, cache1 = self.layer1.forward(a, p, keep_cache)
        s2, cache2 = self.layer2.forward(p, o, keep_cache)
        c, cache3 = self.layer3.forward(s1, s2, keep_cache)
        return c, (ids, sizes, cache1, cache2, cache3) if keep_cache else None

    def embed_backward(self, dc: np.ndarray, cache: tuple) -> None:
        """Backprop dL/dC (B, k) through all layers into the parameter grads,
        recording the word rows' gradient as one table contribution."""
        ids, sizes, cache1, cache2, cache3 = cache
        ds1, ds2 = self.layer3.backward(dc, cache3)
        da, dp1 = self.layer1.backward(ds1, cache1)
        dp2, do = self.layer2.backward(ds2, cache2)
        dargs = np.stack((da, dp1 + dp2, do), axis=1).reshape(-1, self.d) / sizes[:, None]
        self.table_grads.append((ids, np.repeat(dargs, sizes, axis=0)))

    def regularization(self, lambda_l2: float) -> float:
        """lambda * ||Phi||_2^2 over the composition-layer parameters only."""
        return lambda_l2 * float(np.dot(self.l2_params, self.l2_params))

    def regularization_backward(self, lambda_l2: float, weight: float = 1.0) -> None:
        for start in range(0, self.l2_params.size, FLAT_BLOCK):
            block = slice(start, start + FLAT_BLOCK)
            self.l2_grads[block] += (2.0 * lambda_l2 * weight) * self.l2_params[block]
