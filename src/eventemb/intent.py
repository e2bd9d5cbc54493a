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
    """Single-direction LSTM cell over a batch of B rows.

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
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One gated transition of B rows x (B, d) from states (B, h).

        Returns (h, c, gates); gates (B, 4h) holds the activated input,
        forget, output and candidate gates, which the backward needs.
        """
        d, h = self.d, self.h
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"{self.prefix}: input has shape {x.shape}, expected (B, {d})")
        if h_prev.shape != (len(x), h) or c_prev.shape != (len(x), h):
            raise ValueError(
                f"{self.prefix}: state has shape {h_prev.shape}/{c_prev.shape}, "
                f"expected {(len(x), h)}"
            )
        gates = np.concatenate((x, h_prev), axis=1) @ self.w.T + self.b
        gates[:, : 3 * h] = sigmoid(gates[:, : 3 * h])
        gates[:, 3 * h :] = np.tanh(gates[:, 3 * h :])
        c = gates[:, h : 2 * h] * c_prev + gates[:, :h] * gates[:, 3 * h :]
        return gates[:, 2 * h : 3 * h] * np.tanh(c), c, gates

    def step_backward(
        self,
        dh: np.ndarray,
        dc: np.ndarray,
        x: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
        gates: np.ndarray,
        c: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through one step from its inputs and outputs; accumulates
        the weight gradients summed over the rows, returns (dx, dh_prev, dc_prev)."""
        h = self.h
        gi, gf, go, gc = (gates[:, j * h : (j + 1) * h] for j in range(4))
        tanh_c = np.tanh(c)
        dc_total = dc + dh * go * (1.0 - tanh_c * tanh_c)
        da = np.concatenate((
            dc_total * gc * gi * (1.0 - gi),
            dc_total * c_prev * gf * (1.0 - gf),
            dh * tanh_c * go * (1.0 - go),
            dc_total * gi * (1.0 - gc * gc),
        ), axis=1)
        self.g_w += da.T @ np.concatenate((x, h_prev), axis=1)
        self.g_b += da.sum(axis=0)
        dz = da @ self.w
        return dz[:, : self.d], dz[:, self.d :], dc_total * gf


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
        self.cells = (self.forward_cell, self.backward_cell)

    def encode(self, sentences) -> tuple[np.ndarray, list[tuple]]:
        """(S, 2h) intent vectors of S word sequences, in input order, plus cache.

        Sentences of equal token count form one group, so nothing is padded
        or masked. A group of B sentences and T tokens runs time-major: each
        step of each direction is one (B, d+h) @ (d+h, 4h) GEMM.
        """
        groups: dict[int, list[int]] = {}
        indices = []
        for s, words in enumerate(sentences):
            if not words:
                raise ValueError(f"intent encoder: empty word list in sentence {s}")
            indices.append([self.vocab.index(w) for w in words])
            groups.setdefault(len(words), []).append(s)
        h = self.h
        out = np.zeros((len(indices), 2 * h))
        cache = []
        for rows in groups.values():
            idx = np.array([indices[s] for s in rows]).T
            # tokens[r, t]: the (B,) word ids direction r reads at step t
            tokens = np.stack((idx, idx[::-1]))
            steps, size = idx.shape
            hs = np.zeros((2, steps + 1, size, h))
            cs = np.zeros((2, steps + 1, size, h))
            gates = np.empty((2, steps, size, 4 * h))
            for t in range(steps):
                for r, cell in enumerate(self.cells):
                    x = self.embeddings[tokens[r, t]]
                    hs[r, t + 1], cs[r, t + 1], gates[r, t] = cell.step(x, hs[r, t], cs[r, t])
            out[rows] = np.concatenate(hs[:, -1], axis=1)
            cache.append((rows, tokens, hs, cs, gates))
        return out, cache

    def encode_intent(self, words) -> np.ndarray:
        return self.encode([words])[0][0]

    def encode_backward(self, dvec: np.ndarray, cache: list[tuple]) -> None:
        """Backprop d(loss)/d(intent vectors) (S, 2h) through both directions."""
        h = self.h
        for rows, tokens, hs, cs, gates in cache:
            steps = tokens.shape[1]
            dx = np.empty(tokens.shape + (self.d,))
            for r, cell in enumerate(self.cells):
                dh = dvec[rows, r * h : (r + 1) * h]
                dc = np.zeros_like(dh)
                for t in range(steps - 1, -1, -1):
                    dx[r, t], dh, dc = cell.step_backward(
                        dh, dc, self.embeddings[tokens[r, t]], hs[r, t], cs[r, t],
                        gates[r, t], cs[r, t + 1],
                    )
            np.add.at(self.g_embeddings, tokens, dx)


def intent_hinge(
    v_e: np.ndarray, v_i: np.ndarray, v_i_neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise max(0, 1 - cos(v_e, v_i) + cos(v_e, v_i_neg)) over three (R, k)
    blocks: (R,) losses plus the gradients w.r.t. all three blocks, with zero
    rows where the hinge is inactive.
    """
    c_pos, d_e_pos, d_i = cosine_grads(v_e, v_i)
    c_neg, d_e_neg, d_in = cosine_grads(v_e, v_i_neg)
    # grouped so that identical positive/negative intents give exactly 1.0
    loss = 1.0 - (c_pos - c_neg)
    inactive = loss <= 0.0
    grads = (np.where(inactive[:, None], 0.0, g) for g in (d_e_neg - d_e_pos, -d_i, d_in))
    return np.where(inactive, 0.0, loss), *grads
