"""Binary softmax sentiment classifier over event embeddings.

Class order is fixed as [negative, positive]; polarity +1 maps to class 1
and -1 to class 0, trained with one-hot cross entropy.
"""

from __future__ import annotations

import numpy as np

from .params import Layout, ParameterStore


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis via max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def polarity_class(polarity: int) -> int:
    if polarity == 1:
        return 1
    if polarity == -1:
        return 0
    raise ValueError(f"sentiment polarity must be +1 or -1, got {polarity!r}")


class SentimentHead:
    @staticmethod
    def layout(k: int) -> Layout:
        return {"sentiment.w": ((2, k), 1.0 / np.sqrt(k)), "sentiment.b": ((2,), 0.0)}

    def __init__(self, store: ParameterStore) -> None:
        self.w, self.b = store.params["sentiment.w"], store.params["sentiment.b"]
        self.g_w, self.g_b = store.grads["sentiment.w"], store.grads["sentiment.b"]
        self.k = self.w.shape[1]

    def forward(self, v_e: np.ndarray) -> np.ndarray:
        """(R, 2) probability pairs (negative, positive) for R rows of shape (R, k)."""
        if v_e.ndim != 2 or v_e.shape[1] != self.k:
            raise ValueError(f"sentiment: input has shape {v_e.shape}, expected (R, {self.k})")
        return softmax(v_e @ self.w.T + self.b)

    def loss_backward(
        self, v_e: np.ndarray, polarities, weight: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row cross-entropy losses (R,) and d(weight * their sum)/d(v_e);
        parameter gradients of the weighted sum accumulate."""
        probs = self.forward(v_e)
        rows = np.arange(len(probs))
        cls = [polarity_class(p) for p in polarities]
        losses = -np.log(probs[rows, cls])
        dlogits = probs.copy()
        dlogits[rows, cls] -= 1.0
        dlogits *= weight
        self.g_w += dlogits.T @ v_e
        self.g_b += dlogits.sum(axis=0)
        return losses, dlogits @ self.w
