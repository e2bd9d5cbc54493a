"""Joint model: shared embedding table, event composer, intent encoder, sentiment head."""

from __future__ import annotations

import numpy as np

from .composer import EventComposer, code_events
from .data import EventTuple, Vocabulary
from .intent import BiLstmEncoder
from .params import TABLE, Layout, ParameterStore
from .sentiment import SentimentHead

# Events per composer call in `embed_events`: the rows of one training batch
# of 128 positives and their 128 corrupted events. A frozen call keeps no
# layer's cache, so only one layer's (rows, n, k) factor products u and v
# are alive at a time: 4.1 MB at d = k = 100, n = 10.
EMBED_BLOCK = 256


def layout(d: int, k: int, n: int) -> Layout:
    """Every array but the table, in checkpoint order: the three composition
    layers first (the L2 slice), then `u`, the stacked LSTM directions of
    size k/2 and the sentiment head."""
    return {
        **EventComposer.layout(d, k, n),
        **BiLstmEncoder.layout(d, k // 2),
        **SentimentHead.layout(k),
    }


class JointModel:
    """All trainable components wired over one ParameterStore.

    The embedding table is shared: event arguments and intent sentences
    both read (and fine-tune) the same word vectors. `table` is the
    (|V|, d) word table and `flat` the arrays of `layout(d, k, n)` back to
    back: a new model's or a checkpoint's. The store takes both without a
    copy (see ParameterStore).
    """

    def __init__(
        self, vocab: Vocabulary, d: int, k: int, n: int, table: np.ndarray, flat: np.ndarray
    ) -> None:
        if k % 2 != 0:
            raise ValueError(f"k={k} must be even: the intent hidden size is k/2")
        if not (1 <= n <= min(d, k)):
            raise ValueError(f"rank n={n} must satisfy 1 <= n <= min(d={d}, k={k})")
        want = (len(vocab), d)
        if np.shape(table) != want:
            raise ValueError(f"word table has shape {np.shape(table)}, expected {want}")
        self.store = ParameterStore(layout(d, k, n), flat, table)
        self.vocab = vocab
        self.k = k
        self.embeddings = self.store.params[TABLE]
        self.composer = EventComposer(self.store)
        self.intent = BiLstmEncoder(self.store)
        self.sentiment = SentimentHead(self.store)

    # Frozen-model conveniences used by evaluation and the CLI.

    def embed_events(self, events: list[EventTuple]) -> np.ndarray:
        """(N, k) embeddings of N events, coded and composed EMBED_BLOCK events at a time."""
        starts = range(0, len(events), EMBED_BLOCK)
        coded = (code_events(self.vocab, events[i : i + EMBED_BLOCK]) for i in starts)
        blocks = [self.composer.embed(*block, keep_cache=False)[0] for block in coded]
        return np.concatenate([np.empty((0, self.k)), *blocks])

    def embed_event(self, event: EventTuple) -> np.ndarray:
        return self.embed_events([event])[0]
