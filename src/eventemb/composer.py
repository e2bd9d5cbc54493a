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
from .params import ParameterStore

# arrays covered by the L2 regularizer, per layer (score head and word
# embeddings are excluded)
_REGULARIZED = ("left", "right", "diag", "w", "b")


class LowRankLayer:
    """k bilinear slices in factored form plus an affine part and tanh.

    Slice i contributes x' (left_i @ right_i + diag(diag_i)) y; the k
    bilinear values are added to W [x; y] + b before the nonlinearity.
    """

    def __init__(
        self,
        store: ParameterStore,
        prefix: str,
        d_in: int,
        k: int,
        n: int,
        rng: np.random.Generator,
    ) -> None:
        if not (1 <= n <= d_in):
            raise ValueError(f"{prefix}: rank n={n} must satisfy 1 <= n <= d_in={d_in}")
        self.d_in = d_in
        self.k = k
        self.n = n
        r = 1.0 / np.sqrt(d_in)
        self.left = store.add(f"{prefix}.left", rng.uniform(-r, r, (k, d_in, n)))
        self.right = store.add(f"{prefix}.right", rng.uniform(-r, r, (k, n, d_in)))
        self.diag = store.add(f"{prefix}.diag", np.zeros((k, d_in)))
        self.w = store.add(f"{prefix}.w", rng.uniform(-r, r, (k, 2 * d_in)))
        self.b = store.add(f"{prefix}.b", rng.uniform(-r, r, k))
        self.g_left = store.grad(f"{prefix}.left")
        self.g_right = store.grad(f"{prefix}.right")
        self.g_diag = store.grad(f"{prefix}.diag")
        self.g_w = store.grad(f"{prefix}.w")
        self.g_b = store.grad(f"{prefix}.b")
        self.prefix = prefix

    def forward(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, tuple]:
        d = self.d_in
        if x.shape != (d,):
            raise ValueError(f"{self.prefix}: x has shape {x.shape}, expected {(d,)}")
        if y.shape != (d,):
            raise ValueError(f"{self.prefix}: y has shape {y.shape}, expected {(d,)}")
        u = np.einsum("kdn,d->kn", self.left, x)
        v = np.einsum("knd,d->kn", self.right, y)
        bilinear = np.einsum("kn,kn->k", u, v) + self.diag @ (x * y)
        out = np.tanh(bilinear + self.w @ np.concatenate((x, y)) + self.b)
        return out, (x, y, u, v, out)

    def backward(self, dout: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate parameter gradients, return (dx, dy)."""
        x, y, u, v, out = cache
        d = self.d_in
        dpre = dout * (1.0 - out * out)
        dz = self.w.T @ dpre
        self.g_b += dpre
        self.g_w += np.outer(dpre, np.concatenate((x, y)))
        self.g_diag += np.outer(dpre, x * y)
        self.g_left += np.einsum("k,d,kn->kdn", dpre, x, v)
        self.g_right += np.einsum("k,kn,d->knd", dpre, u, y)
        ddiag_scale = dpre @ self.diag
        dx = dz[:d] + np.einsum("k,kdn,kn->d", dpre, self.left, v) + ddiag_scale * y
        dy = dz[d:] + np.einsum("k,knd,kn->d", dpre, self.right, u) + ddiag_scale * x
        return dx, dy


def corrupt_event(
    event: EventTuple,
    vocab: Vocabulary,
    rng: np.random.Generator,
    target: str = "actor",
) -> EventTuple:
    """Replace every word of the target argument with a random dictionary word.

    Draws are uniform over the non-unknown vocabulary; a draw equal to the
    original word at that position is redrawn, so the corrupted argument
    always differs.
    """
    if target not in ("actor", "predicate", "object"):
        raise ValueError(f"corrupt_event: unknown target argument '{target}'")
    if len(vocab) < 3:
        raise ValueError(
            f"corrupt_event: vocabulary has {len(vocab) - 1} usable words, need at least 2"
        )
    original = getattr(event, target)
    replaced = []
    for word in original:
        while True:
            candidate = vocab.word(int(rng.integers(1, len(vocab))))
            if candidate != word:
                break
        replaced.append(candidate)
    return event.replace_argument(target, replaced)


class EventComposer:
    """The full three-layer composer with its linear scoring head."""

    def __init__(
        self,
        store: ParameterStore,
        vocab: Vocabulary,
        embeddings: np.ndarray,
        embeddings_grad: np.ndarray,
        d: int,
        k: int,
        n: int,
        rng: np.random.Generator,
    ) -> None:
        self.vocab = vocab
        self.embeddings = embeddings
        self.g_embeddings = embeddings_grad
        self.d = d
        self.k = k
        self.layer1 = LowRankLayer(store, "layer1", d, k, n, rng)
        self.layer2 = LowRankLayer(store, "layer2", d, k, n, rng)
        self.layer3 = LowRankLayer(store, "layer3", k, k, n, rng)
        rk = 1.0 / np.sqrt(k)
        self.u = store.add("u", rng.uniform(-rk, rk, k))
        self.g_u = store.grad("u")
        self._store = store

    # --- forward -----------------------------------------------------------

    def embed(self, event: EventTuple) -> tuple[np.ndarray, tuple]:
        """Event embedding C plus the cache needed for backprop."""
        idx = tuple(
            [self.vocab.index(w) for w in arg]
            for arg in (event.actor, event.predicate, event.object)
        )
        a = self.embeddings[idx[0]].mean(axis=0)
        p = self.embeddings[idx[1]].mean(axis=0)
        o = self.embeddings[idx[2]].mean(axis=0)
        s1, cache1 = self.layer1.forward(a, p)
        s2, cache2 = self.layer2.forward(p, o)
        c, cache3 = self.layer3.forward(s1, s2)
        return c, (idx, cache1, cache2, cache3)

    def embed_event(self, event: EventTuple) -> np.ndarray:
        return self.embed(event)[0]

    def score_event(self, event: EventTuple) -> float:
        return float(self.u @ self.embed(event)[0])

    # --- backward ----------------------------------------------------------

    def _scatter_argument_grad(self, indices: list[int], dvec: np.ndarray) -> None:
        share = dvec / len(indices)
        for i in indices:
            self.g_embeddings[i] += share

    def embed_backward(self, dc: np.ndarray, cache: tuple) -> None:
        """Backprop dL/dC through all layers into parameter and embedding grads."""
        idx, cache1, cache2, cache3 = cache
        ds1, ds2 = self.layer3.backward(dc, cache3)
        da, dp1 = self.layer1.backward(ds1, cache1)
        dp2, do = self.layer2.backward(ds2, cache2)
        self._scatter_argument_grad(idx[0], da)
        self._scatter_argument_grad(idx[1], dp1 + dp2)
        self._scatter_argument_grad(idx[2], do)

    # --- margin objective ----------------------------------------------------

    def margin_parts(
        self, c: np.ndarray, corrupted: EventTuple
    ) -> tuple[float, float, float, np.ndarray, tuple]:
        """Hinge term for a precomputed positive embedding C.

        Returns (margin, g_e, g_r, C_r, corrupted cache).
        """
        g_e = float(self.u @ c)
        c_r, cache_r = self.embed(corrupted)
        g_r = float(self.u @ c_r)
        margin = max(0.0, 1.0 - g_e + g_r)
        return margin, g_e, g_r, c_r, cache_r

    def regularization(self, lambda_l2: float) -> float:
        """lambda * ||Phi||_2^2 over the composition-layer parameters only."""
        total = 0.0
        for layer in (self.layer1, self.layer2, self.layer3):
            for name in _REGULARIZED:
                arr = getattr(layer, name)
                total += float(np.dot(arr.reshape(-1), arr.reshape(-1)))
        return lambda_l2 * total

    def regularization_backward(self, lambda_l2: float, weight: float = 1.0) -> None:
        scale = 2.0 * lambda_l2 * weight
        for layer in (self.layer1, self.layer2, self.layer3):
            for name in _REGULARIZED:
                getattr(layer, f"g_{name}")[...] += scale * getattr(layer, name)
