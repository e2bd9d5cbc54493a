"""BiLSTM intent-sentence encoder and the cosine ranking loss.

The encoder runs one LSTM left-to-right and another right-to-left from zero
initial states and concatenates their final hidden states, so the intent
vector has length 2h. With h = k/2 it lives in the same space as the event
embedding, and the ranking loss pushes an event towards its annotated
intent and away from a randomly drawn incorrect one.
"""

from __future__ import annotations

import numpy as np

from .ops import cosine_grads, sigmoid
from .params import TABLE, Layout, ParameterStore


def lstm_step(
    w: np.ndarray, b: np.ndarray, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One gated transition of B rows x (..., B, d) from states (..., B, h).

    The leading axes of the weights w (..., 4h, d+h) and biases b (..., 4h)
    stack directions: each runs its own rows through one GEMM. Returns
    (h, c, gates); gates (..., B, 4h) holds the activated input, forget,
    output and candidate gates, which the backward needs. The shapes must
    match as stated; `BiLstmEncoder.encode` builds them so.
    """
    h = b.shape[-1] // 4
    z = np.concatenate((x, h_prev), axis=-1)
    gates = np.matmul(z, w.swapaxes(-1, -2)) + b[..., None, :]
    gates[..., : 3 * h] = sigmoid(gates[..., : 3 * h])
    gates[..., 3 * h :] = np.tanh(gates[..., 3 * h :])
    c = gates[..., h : 2 * h] * c_prev + gates[..., :h] * gates[..., 3 * h :]
    return gates[..., 2 * h : 3 * h] * np.tanh(c), c, gates


def lstm_step_backward(
    w: np.ndarray,
    dh: np.ndarray,
    dc: np.ndarray,
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    gates: np.ndarray,
    c: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Backward through one `lstm_step` from its inputs and outputs:
    (dx, dh_prev, dc_prev, dw, db), the weight gradients summed over the rows."""
    h = gates.shape[-1] // 4
    gi, gf, go, gc = (gates[..., j * h : (j + 1) * h] for j in range(4))
    tanh_c = np.tanh(c)
    dc_total = dc + dh * go * (1.0 - tanh_c * tanh_c)
    da = np.concatenate((
        dc_total * gc * gi * (1.0 - gi),
        dc_total * c_prev * gf * (1.0 - gf),
        dh * tanh_c * go * (1.0 - go),
        dc_total * gi * (1.0 - gc * gc),
    ), axis=-1)
    dw = np.matmul(da.swapaxes(-1, -2), np.concatenate((x, h_prev), axis=-1))
    dz = np.matmul(da, w)
    d = x.shape[-1]
    return dz[..., :d], dz[..., d:], dc_total * gf, dw, da.sum(axis=-2)


class BiLstmEncoder:
    """Two LSTM directions over the word table held in the store.

    Both directions live in one stacked weight `lstm.w` (2, 4h, d+h) and
    bias `lstm.b` (2, 4h): direction 0 reads left to right, direction 1
    right to left. Each direction's rows stack its four gates in the order
    input, forget, output, candidate: gate g (0..3) owns rows g*h .. (g+1)*h.
    """

    @staticmethod
    def layout(d: int, h: int) -> Layout:
        return {
            "lstm.w": ((2, 4 * h, d + h), 1.0 / np.sqrt(d + h)),
            "lstm.b": ((2, 4 * h), 0.0),
        }

    def __init__(self, store: ParameterStore) -> None:
        self.embeddings, self.table_grads = store.params[TABLE], store.table_grads
        self.w, self.b = store.params["lstm.w"], store.params["lstm.b"]
        self.g_w, self.g_b = store.grads["lstm.w"], store.grads["lstm.b"]
        self.d = self.embeddings.shape[1]
        self.h = self.b.shape[1] // 4

    def encode(self, sentences) -> tuple[np.ndarray, list[tuple]]:
        """(S, 2h) intent vectors of S word-id sequences, in input order, plus cache.

        Sentences of equal token count form one group, so nothing is padded
        or masked. A group of B sentences and T tokens runs time-major, both
        directions stacked: each step is one `lstm_step` of a (2, B, d+h)
        input, whose GEMM runs one (B, d+h) @ (d+h, 4h) product per direction.
        """
        groups: dict[int, list[int]] = {}
        for s, ids in enumerate(sentences):
            if len(ids) == 0:
                raise ValueError(f"intent encoder: empty word list in sentence {s}")
            groups.setdefault(len(ids), []).append(s)
        h = self.h
        out = np.zeros((len(sentences), 2 * h))
        cache = []
        for rows in groups.values():
            idx = np.array([sentences[s] for s in rows]).T
            # tokens[r, t]: the (B,) word ids direction r reads at step t
            tokens = np.stack((idx, idx[::-1]))
            steps, size = idx.shape
            # states and gates time-major: [t] is both directions' (2, B, .) block
            hs = np.zeros((steps + 1, 2, size, h))
            cs = np.zeros((steps + 1, 2, size, h))
            gates = np.empty((steps, 2, size, 4 * h))
            for t in range(steps):
                x = self.embeddings[tokens[:, t]]
                hs[t + 1], cs[t + 1], gates[t] = lstm_step(self.w, self.b, x, hs[t], cs[t])
            out[rows] = np.concatenate(hs[-1], axis=1)
            cache.append((rows, tokens, hs, cs, gates))
        return out, cache

    def encode_backward(self, dvec: np.ndarray, cache: list[tuple]) -> None:
        """Backprop d(loss)/d(intent vectors) (S, 2h) through both directions,
        recording each group's word rows' gradient as one table contribution."""
        h = self.h
        for rows, tokens, hs, cs, gates in cache:
            steps = tokens.shape[1]
            dx = np.empty(tokens.shape + (self.d,))
            dh = dvec[rows].reshape(-1, 2, h).swapaxes(0, 1)
            dc = np.zeros_like(dh)
            for t in range(steps - 1, -1, -1):
                x = self.embeddings[tokens[:, t]]
                dx[:, t], dh, dc, dw, db = lstm_step_backward(
                    self.w, dh, dc, x, hs[t], cs[t], gates[t], cs[t + 1]
                )
                self.g_w += dw
                self.g_b += db
            # direction-major: the table gradient sums in a fixed order
            self.table_grads.append((tokens.reshape(-1), dx.reshape(-1, self.d)))


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
