"""Joint model: shared embedding table, event composer, intent encoder, sentiment head."""

from __future__ import annotations

import numpy as np

from .composer import EventComposer
from .data import EventTuple, Vocabulary
from .intent import BiLstmEncoder
from .params import TABLE, ParameterStore
from .sentiment import SentimentHead

# Events per composer call in `embed_events`. It bounds the per-layer
# (rows, k, n) caches of inference to what one training batch of 128
# positives and their 128 corrupted events already holds.
EMBED_BLOCK = 256


def dense_size(d: int, k: int, n: int) -> int:
    """Entries of the arrays the components register besides the table: three
    composition layers, `u`, two LSTM directions of size k/2, the sentiment head."""
    h = k // 2
    layers = sum(k * (2 * n * d_in + 3 * d_in + 1) for d_in in (d, d, k))
    return layers + k + 2 * 4 * h * (d + h + 1) + 2 * k + 2


class JointModel:
    """All trainable components wired over one ParameterStore.

    The embedding table is shared: event arguments and intent sentences
    both read (and fine-tune) the same word vectors. Construction order is
    fixed so that parameter initialization is a deterministic function of
    the rng seed.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        embeddings: np.ndarray,
        d: int,
        k: int,
        n: int,
        rng: np.random.Generator,
    ) -> None:
        if k % 2 != 0:
            raise ValueError(f"k={k} must be even: the intent hidden size is k/2")
        if not (1 <= n <= min(d, k)):
            raise ValueError(f"rank n={n} must satisfy 1 <= n <= min(d={d}, k={k})")
        self.store = ParameterStore(dense_size(d, k, n))
        # the store takes the table without a copy (see ParameterStore); the
        # composer and the intent encoder read it from there
        table = self.store.add(TABLE, embeddings)
        if table.shape != (len(vocab), d):
            raise ValueError(
                f"embedding table has shape {table.shape}, expected {(len(vocab), d)}"
            )
        self.vocab = vocab
        self.d = d
        self.k = k
        self.n = n
        self.embeddings = table
        self.composer = EventComposer(self.store, vocab, d, k, n, rng)
        self.intent = BiLstmEncoder(self.store, vocab, d, k // 2, rng)
        self.sentiment = SentimentHead(self.store, k, rng)

    # Frozen-model conveniences used by evaluation and the CLI.

    def embed_events(self, events: list[EventTuple]) -> np.ndarray:
        """(N, k) embeddings of N events, composed EMBED_BLOCK events at a time."""
        starts = range(0, len(events), EMBED_BLOCK)
        blocks = [self.composer.embed(events[i : i + EMBED_BLOCK])[0] for i in starts]
        return np.concatenate([np.empty((0, self.k)), *blocks])

    def embed_event(self, event: EventTuple) -> np.ndarray:
        return self.embed_events([event])[0]

    def encode_intent(self, words) -> np.ndarray:
        return self.intent.encode_intent(words)

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite all parameters from `arrays`; shapes must match exactly.

        An array that already is the store's own (the table `build_model`
        hands to the store) is skipped rather than copied onto itself.
        """
        missing = set(self.store.params) - set(arrays)
        if missing:
            raise ValueError(f"missing parameter arrays: {sorted(missing)}")
        extra = set(arrays) - set(self.store.params)
        if extra:
            raise ValueError(f"unknown parameter arrays: {sorted(extra)}")
        for name, current in self.store.params.items():
            incoming = arrays[name]
            if incoming is current:
                continue
            if incoming.shape != current.shape:
                raise ValueError(
                    f"array '{name}' has shape {incoming.shape}, expected {current.shape}"
                )
            current[...] = incoming
