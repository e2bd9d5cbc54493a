"""BiLSTM intent-sentence encoder and the cosine ranking loss.

The encoder runs one LSTM left-to-right and another right-to-left from zero
initial states and concatenates their final hidden states, so the intent
vector has length 2h. With h = k/2 it lives in the same space as the event
embedding, and the ranking loss pushes an event towards its annotated
intent and away from a randomly drawn incorrect one.
"""

from __future__ import annotations

import numpy as np

from .data import Vocabulary
from .ops import cosine_grads, sigmoid
from .params import ParameterStore


class LstmCell:
    """Single-direction LSTM cell.

    One weight matrix `w` of shape (4h, d+h) and one bias `b` of shape (4h,)
    hold all four gates, stacked by rows in the order input, forget, output,
    candidate: gate g (0..3) owns rows g*h .. (g+1)*h.
    """

    def __init__(
        self,
        store: ParameterStore,
        prefix: str,
        d: int,
        h: int,
        rng: np.random.Generator,
    ) -> None:
        self.d = d
        self.h = h
        self.prefix = prefix
        r = 1.0 / np.sqrt(d + h)
        self.w = store.add(f"{prefix}.w", rng.uniform(-r, r, (4 * h, d + h)))
        self.b = store.add(f"{prefix}.b", np.zeros(4 * h))
        self.g_w = store.grad(f"{prefix}.w")
        self.g_b = store.grad(f"{prefix}.b")

    def step(
        self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """One gated state transition; returns (h, c, cache)."""
        if x.shape != (self.d,):
            raise ValueError(f"{self.prefix}: input has shape {x.shape}, expected {(self.d,)}")
        if h_prev.shape != (self.h,) or c_prev.shape != (self.h,):
            raise ValueError(
                f"{self.prefix}: state has shape {h_prev.shape}/{c_prev.shape}, "
                f"expected {(self.h,)}"
            )
        z = np.concatenate((x, h_prev))
        a = self.w @ z + self.b
        gi, gf, go = np.split(sigmoid(a[: 3 * self.h]), 3)
        gc = np.tanh(a[3 * self.h :])
        c = gf * c_prev + gi * gc
        tanh_c = np.tanh(c)
        h = go * tanh_c
        return h, c, (z, gi, gf, go, gc, c_prev, tanh_c)

    def step_backward(
        self, dh: np.ndarray, dc: np.ndarray, cache: tuple
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through one step; returns (dx, dh_prev, dc_prev)."""
        z, gi, gf, go, gc, c_prev, tanh_c = cache
        dc_total = dc + dh * go * (1.0 - tanh_c * tanh_c)
        da = np.concatenate((
            dc_total * gc * gi * (1.0 - gi),
            dc_total * c_prev * gf * (1.0 - gf),
            dh * tanh_c * go * (1.0 - go),
            dc_total * gi * (1.0 - gc * gc),
        ))
        self.g_w += np.outer(da, z)
        self.g_b += da
        dz = self.w.T @ da
        return dz[: self.d], dz[self.d:], dc_total * gf


class BiLstmEncoder:
    """Two LSTM directions over the shared embedding table."""

    def __init__(
        self,
        store: ParameterStore,
        vocab: Vocabulary,
        embeddings: np.ndarray,
        embeddings_grad: np.ndarray,
        d: int,
        h: int,
        rng: np.random.Generator,
    ) -> None:
        self.vocab = vocab
        self.embeddings = embeddings
        self.g_embeddings = embeddings_grad
        self.d = d
        self.h = h
        self.forward_cell = LstmCell(store, "lstm_fwd", d, h, rng)
        self.backward_cell = LstmCell(store, "lstm_bwd", d, h, rng)

    def _run_direction(
        self, cell: LstmCell, indices: list[int]
    ) -> tuple[np.ndarray, list[tuple]]:
        h = np.zeros(self.h)
        c = np.zeros(self.h)
        caches = []
        for i in indices:
            h, c, cache = cell.step(self.embeddings[i], h, c)
            caches.append(cache)
        return h, caches

    def encode(self, words) -> tuple[np.ndarray, tuple]:
        """Concatenated final hidden states of both directions, plus cache."""
        if not words:
            raise ValueError("encode_intent: empty word list")
        indices = [self.vocab.index(w) for w in words]
        h_fwd, caches_fwd = self._run_direction(self.forward_cell, indices)
        h_bwd, caches_bwd = self._run_direction(self.backward_cell, indices[::-1])
        return np.concatenate((h_fwd, h_bwd)), (indices, caches_fwd, caches_bwd)

    def encode_intent(self, words) -> np.ndarray:
        return self.encode(words)[0]

    def _backprop_direction(
        self, cell: LstmCell, dh_final: np.ndarray, caches: list[tuple], indices: list[int]
    ) -> None:
        dh = dh_final
        dc = np.zeros(self.h)
        for t in range(len(caches) - 1, -1, -1):
            dx, dh, dc = cell.step_backward(dh, dc, caches[t])
            self.g_embeddings[indices[t]] += dx

    def encode_backward(self, dvec: np.ndarray, cache: tuple) -> None:
        """Backprop d(loss)/d(intent vector) through both directions."""
        indices, caches_fwd, caches_bwd = cache
        self._backprop_direction(self.forward_cell, dvec[: self.h], caches_fwd, indices)
        self._backprop_direction(
            self.backward_cell, dvec[self.h:], caches_bwd, indices[::-1]
        )


def intent_loss_grads(
    v_e: np.ndarray, v_i: np.ndarray, v_i_neg: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """max(0, 1 - cos(v_e, v_i) + cos(v_e, v_i_neg)) plus its gradients.

    Gradients w.r.t. all three vectors; all zero when the hinge is inactive.
    """
    c_pos, d_e_pos, d_i = cosine_grads(v_e, v_i)
    c_neg, d_e_neg, d_in = cosine_grads(v_e, v_i_neg)
    # grouped so that identical positive/negative intents give exactly 1.0
    loss = 1.0 - (c_pos - c_neg)
    if loss <= 0.0:
        return 0.0, np.zeros_like(v_e), np.zeros_like(v_i), np.zeros_like(v_i_neg)
    return loss, d_e_neg - d_e_pos, -d_i, d_in
