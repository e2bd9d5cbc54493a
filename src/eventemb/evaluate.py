"""Similarity evaluation protocols over a frozen model.

Hard similarity: each instance pits a semantically similar (lexically
disjoint) event pair against a dissimilar (lexically overlapping) pair;
accuracy is the fraction where the similar pair gets the strictly higher
cosine. Transitive sentence similarity: Spearman correlation between
per-pair cosines and pre-averaged human scores.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .data import EventTuple, HardSimInstance, TransitiveSimInstance
from .ops import cosine

# a list of N events -> their (N, k) embeddings, one row per event
EmbedFn = Callable[[list[EventTuple]], np.ndarray]


def hard_similarity_accuracy(
    instances: Sequence[HardSimInstance], embed: EmbedFn
) -> float:
    """Fraction of instances where the similar pair out-scores the dissimilar.

    Ties count as failures (strict comparison).
    """
    if not instances:
        raise ValueError("hard_similarity_accuracy: empty instance list")
    events = [e for inst in instances for e in (*inst.similar, *inst.dissimilar)]
    quads = embed(events).reshape(len(instances), 4, -1)
    wins = cosine(quads[:, 0], quads[:, 1]) > cosine(quads[:, 2], quads[:, 3])
    return np.count_nonzero(wins) / len(instances)


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based fractional ranks; tied values share the average of their ranks."""
    _, inverse, counts = np.unique(
        np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True
    )
    # a group of c equal values ending at rank r shares rank r - (c - 1) / 2
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def spearman_rho(pred: Sequence[float], gold: Sequence[float]) -> float:
    """Pearson correlation of average-tie fractional ranks of two sequences
    of one length, as `evaluate_transitive` takes both from one instance list."""
    pred = np.asarray(pred, dtype=np.float64)
    if pred.size < 3:
        raise ValueError(f"spearman_rho: need at least 3 points, got {pred.size}")
    rp = average_ranks(pred)
    rg = average_ranks(gold)
    rp -= rp.mean()
    rg -= rg.mean()
    denom = float(np.sqrt(np.dot(rp, rp) * np.dot(rg, rg)))
    if denom == 0.0:
        raise ValueError(
            "spearman_rho: undefined for a constant input vector (zero rank variance)"
        )
    return float(np.dot(rp, rg) / denom)


def evaluate_transitive(
    instances: Sequence[TransitiveSimInstance], embed: EmbedFn
) -> float:
    """Spearman correlation between per-pair cosines and the gold scores."""
    if not instances:
        raise ValueError("evaluate_transitive: empty instance list")
    pairs = embed([e for inst in instances for e in inst.pair]).reshape(len(instances), 2, -1)
    gold = [inst.gold for inst in instances]
    return spearman_rho(cosine(pairs[:, 0], pairs[:, 1]), gold)
