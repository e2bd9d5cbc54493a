"""Joint training: weighted loss combination, Adagrad, batching, checkpoints.

The joint objective is alpha * L_event + beta * L_intent + gamma * L_sentiment
over one shared forward of the event embedding. Terms with zero weight or
missing annotations are skipped entirely, so the `ntn` preset is the exact
baseline margin objective, bit for bit.
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import checkpoint as ckpt_io
from .composer import CORRUPTION_TARGETS, code_events, corrupt_event
from .data import (
    AnnotatedExample,
    EventTuple,
    Vocabulary,
    derive_polarity,
    extend_embeddings,
    format_event,
)
from .intent import intent_hinge
from .model import JointModel, layout
from .params import FLAT_BLOCK, TABLE, ParameterStore, initial_flat

# The files a run writes into its output directory besides metrics.tsv, and
# their temp files: a run removes these, and only these, before its first save.
RUN_CHECKPOINT = re.compile(r"(epoch-[0-9]{4,}|final)\.ckpt(\.tmp)?")

ADAGRAD_EPS = 1e-8

# Ablation presets: (alpha, beta, gamma) weightings of the three loss terms.
PRESETS: dict[str, tuple[float, float, float]] = {
    "ntn": (1.0, 0.0, 0.0),
    "ntn+int": (1.0, 1.0, 0.0),
    "ntn+senti": (1.0, 0.0, 1.0),
    "ntn+int+senti": (1.0, 1.0, 1.0),
}


@dataclass(frozen=True)
class TrainingConfig:
    """One run's settings, checked when built, so no invalid config exists."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    learning_rate: float = 0.001
    batch_size: int = 128
    lambda_l2: float = 0.0001
    d: int = 100
    k: int = 100
    n: int = 10
    epochs: int = 20
    seed: int = 42
    corruption_target: str = "actor"

    def __post_init__(self) -> None:
        # each field has exactly the type of its default, except that a float
        # field also takes an int; a bool is neither
        for field in dataclasses.fields(self):
            value, kind = getattr(self, field.name), type(field.default)
            if kind is float:
                ok = isinstance(value, (int, float)) and type(value) is not bool
            else:
                ok = type(value) is kind
            if not ok:
                raise ValueError(f"{field.name}={value!r} is not of type {kind.__name__}")
            if kind is float:
                try:
                    float(value)
                except OverflowError:
                    raise ValueError(f"{field.name} is an integer too large for a float") from None
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name}={value} must lie in [0, 1]")
        if self.alpha == self.beta == self.gamma == 0.0:
            raise ValueError("alpha, beta and gamma are all 0: no loss term would train")
        if self.batch_size < 1:
            raise ValueError(f"batch_size={self.batch_size} must be >= 1")
        if self.epochs < 1:
            raise ValueError(f"epochs={self.epochs} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        if not (0 < self.learning_rate < np.inf):
            raise ValueError(f"learning_rate={self.learning_rate} must be finite and > 0")
        if not (0 <= self.lambda_l2 < np.inf):
            raise ValueError(f"lambda_l2={self.lambda_l2} must be finite and >= 0")
        if self.corruption_target not in CORRUPTION_TARGETS:
            raise ValueError(
                f"corruption_target={self.corruption_target!r} must be one of "
                f"{CORRUPTION_TARGETS}"
            )
        if self.d < 1 or self.k < 1 or self.n < 1:
            raise ValueError("d, k and n must all be >= 1")
        for name in ("d", "k", "n"):
            if getattr(self, name) > np.iinfo(np.intp).max:
                raise ValueError(f"{name}={getattr(self, name)} exceeds the largest array size")
        if self.k % 2 != 0:
            raise ValueError(f"k={self.k} must be even (intent hidden size is k/2)")
        if self.n > min(self.d, self.k):
            raise ValueError(f"n={self.n} must be <= min(d={self.d}, k={self.k})")

    def with_preset(self, preset: str) -> "TrainingConfig":
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}")
        alpha, beta, gamma = PRESETS[preset]
        return dataclasses.replace(self, alpha=alpha, beta=beta, gamma=gamma)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "TrainingConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**values)


@dataclass(frozen=True)
class CodedExample:
    """A training example as vocabulary ids: its event's ids and (3,)
    argument sizes as `code_events` codes them, plus the intent ids and the
    lexicon polarity where the loss weights use them (None otherwise)."""

    ids: np.ndarray
    sizes: np.ndarray
    intent: tuple[int, ...] | None = None
    polarity: int | None = None


@dataclass(frozen=True)
class LossParts:
    """Batch sums of the joint loss and of its unweighted terms, with the
    number of examples each term covered."""

    total: float = 0.0
    event: float = 0.0
    intent: float = 0.0
    sentiment: float = 0.0
    n_event: int = 0
    n_intent: int = 0
    n_sentiment: int = 0

    def __add__(self, other: "LossParts") -> "LossParts":
        fields = self.__dataclass_fields__
        return LossParts(*(getattr(self, f) + getattr(other, f) for f in fields))


def joint_loss(
    model: JointModel,
    examples: Sequence[CodedExample],
    corrupted: Sequence[np.ndarray],
    negative_intents: Sequence[tuple[int, ...]],
    config: TrainingConfig,
) -> LossParts:
    """Weighted combination of the three losses over one batch; all gradients
    accumulate into the model's ParameterStore.

    A term covers an example only if its weight is positive and the example
    carries the matching annotation. The positives and their corrupted events
    share one composer forward and backward, the intents and negative intents
    one encoder forward and backward, and the L2 term counts once per event
    example.

    `corrupted` holds one corrupted event per example and `negative_intents`
    one per example that carries an intent, in batch order, as `train` draws
    them; each list is read only where its term's weight is positive.
    """
    alpha, beta, gamma = config.alpha, config.beta, config.gamma
    use_event = alpha > 0.0
    intent_rows = [i for i, ex in enumerate(examples) if beta > 0.0 and ex.intent is not None]
    sentiment_rows = [
        i for i, ex in enumerate(examples) if gamma > 0.0 and ex.polarity is not None
    ]

    composer = model.composer
    n_event = len(examples) if use_event else 0
    ids = [ex.ids for ex in examples]
    ids += corrupted if use_event else []
    sizes = [ex.sizes for ex in examples] * (2 if use_event else 1)
    c, cache = composer.embed(np.concatenate(ids), np.concatenate(sizes))
    dc = np.zeros_like(c)
    l_event = l_intent = l_sentiment = 0.0

    if use_event:
        scores = c @ composer.u
        margins = np.maximum(0.0, 1.0 - scores[:n_event] + scores[n_event:])
        l_event = float(margins.sum()) + n_event * composer.regularization(config.lambda_l2)
        # d(alpha * margin)/d(score): -alpha for a positive, +alpha for its
        # corrupted event, 0 where the hinge is inactive
        dscore = alpha * (margins > 0.0)
        dscores = np.concatenate((-dscore, dscore))
        composer.g_u += dscores @ c
        dc += dscores[:, None] * composer.u
        composer.regularization_backward(config.lambda_l2, alpha * n_event)

    if intent_rows:
        # rows j and m + j hold example intent_rows[j]'s intent and its negative
        m = len(intent_rows)
        sentences = [examples[i].intent for i in intent_rows]
        sentences += negative_intents
        v, intent_cache = model.intent.encode(sentences)
        losses, d_ve, d_vi, d_vin = intent_hinge(c[intent_rows], v[:m], v[m:])
        l_intent = float(losses.sum())
        dc[intent_rows] += beta * d_ve
        model.intent.encode_backward(beta * np.concatenate((d_vi, d_vin)), intent_cache)
        # free the encoder's step buffers before the composer backward allocates
        del intent_cache

    if sentiment_rows:
        polarities = [examples[i].polarity for i in sentiment_rows]
        losses, d_vs = model.sentiment.loss_backward(c[sentiment_rows], polarities, gamma)
        l_sentiment = float(losses.sum())
        dc[sentiment_rows] += d_vs

    composer.embed_backward(dc, cache)
    total = alpha * l_event + beta * l_intent + gamma * l_sentiment
    return LossParts(
        total, l_event, l_intent, l_sentiment, n_event, len(intent_rows), len(sentiment_rows)
    )


def _adagrad_update(theta, acc, g, lr: float, scale: float) -> bool:
    """The update in place on C-contiguous arrays; False, with only g
    changed, where g * scale is not finite."""
    g *= scale
    if not np.isfinite(g).all():
        return False
    theta, acc, g = theta.reshape(-1), acc.reshape(-1), g.reshape(-1)
    for start in range(0, g.size, FLAT_BLOCK):
        block = slice(start, start + FLAT_BLOCK)
        acc[block] += g[block] * g[block]
        theta[block] -= lr * g[block] / (np.sqrt(acc[block]) + ADAGRAD_EPS)
    return True


def adagrad_step(store: ParameterStore, learning_rate: float, scale: float) -> np.ndarray:
    """g *= scale; acc += g^2; theta -= lr * g / (sqrt(acc) + eps); gradients zeroed.
    Returns the sorted ids of the table rows it updated.

    The rule is elementwise, so it runs as two updates: one over the store's
    flat buffers, which hold every array but the table, and one over the
    table rows that this step's recorded contributions touch. One
    `np.add.at` sums those contributions into a block of the touched rows,
    sorted by id, in call order and from +0.0, so each row sums the same
    additions in the same order as a dense table gradient would. A row no contribution names
    has a zero gradient, a fixed point of the rule (acc += 0, theta -= 0),
    so leaving it out is bit-equal to the dense rule. A touched row whose
    contributions cancel is updated, and that is bit-equal too: a sum that
    starts at +0.0 is never -0.0, so the update subtracts +0.0 and a -0.0
    theta stays -0.0. A row's accumulator is created, zeroed, when a step
    first touches it. A non-finite gradient raises naming the first
    parameter that holds one, found only then.
    """
    rows = np.zeros(0, dtype=np.int64)
    if store.table_grads:
        table = store.params[TABLE]
        ids, values = (np.concatenate(part) for part in zip(*store.table_grads))
        store.table_grads.clear()
        # np.unique(ids, return_inverse=True) in 4 calls: a step makes few
        # enough others that np.unique's own dozen would show
        rows = np.sort(ids)
        rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
        g = np.zeros((len(rows), table.shape[1]))
        np.add.at(g, rows.searchsorted(ids), values)
        # a row's slot in the accumulator; a row not yet there gets one
        slots = store.table_rows.searchsorted(rows)
        new = store.table_rows.searchsorted(rows, side="right") == slots
        if new.any():
            store.table_rows = np.insert(store.table_rows, slots[new], rows[new])
            store.table_accums = np.insert(store.table_accums, slots[new], 0.0, axis=0)
            slots = store.table_rows.searchsorted(rows)
        theta_rows, acc_rows = table[rows], store.table_accums[slots]
        if not _adagrad_update(theta_rows, acc_rows, g, learning_rate, scale):
            raise FloatingPointError(f"non-finite gradient in parameter '{TABLE}'")
        table[rows], store.table_accums[slots] = theta_rows, acc_rows
    g = store.flat_grads
    if not _adagrad_update(store.flat_params, store.flat_accums, g, learning_rate, scale):
        name = next(n for n, a in store.grads.items() if not np.all(np.isfinite(a)))
        raise FloatingPointError(f"non-finite gradient in parameter '{name}'")
    g[...] = 0.0
    return rows


def sample_negative_intent(
    pool: Sequence[tuple[int, ...]], true_intent: tuple[int, ...], rng: np.random.Generator
) -> tuple[int, ...]:
    """Uniform draw from the annotated intents' ids, resampled while it equals
    the true intent: within one vocabulary, on textual identity.

    The pool must hold an intent other than `true_intent`, or this never
    returns; `train` checks that its pool holds two distinct intents.
    """
    while True:
        candidate = pool[int(rng.integers(len(pool)))]
        if candidate != true_intent:
            return candidate


def code_examples(
    examples: Sequence[AnnotatedExample],
    vocab: Vocabulary,
    lexicon: dict[str, int] | None,
    config: TrainingConfig,
) -> list[CodedExample]:
    """Each example as vocabulary ids, with its polarity taken from its
    emotion words through the lexicon. An intent is coded only where beta is
    positive and a polarity only where gamma is; an example that then
    activates no loss term is an error."""
    coded = []
    for ex in examples:
        intent = polarity = None
        if config.beta > 0.0 and ex.intent is not None:
            intent = tuple(vocab.index(w) for w in ex.intent)
        if config.gamma > 0.0 and ex.emotion_words and lexicon is not None:
            polarity = derive_polarity(ex.emotion_words, lexicon)
        if config.alpha == 0.0 and intent is None and polarity is None:
            weights = f"alpha={config.alpha}, beta={config.beta}, gamma={config.gamma}"
            raise ValueError(f"{format_event(ex.event)}: activates no loss term ({weights})")
        coded.append(CodedExample(*code_events(vocab, [ex.event]), intent, polarity))
    return coded


@dataclass
class EpochMetrics:
    epoch: int
    event: float
    intent: float
    sentiment: float
    total: float

    def line(self) -> str:
        return (
            f"{self.epoch}\t{self.event:.6f}\t{self.intent:.6f}"
            f"\t{self.sentiment:.6f}\t{self.total:.6f}"
        )


class Run:
    """What the epoch loop reads, built from `train`'s first five arguments:
    the config, the model with its vocabulary, the coded examples (the corpus
    events, then the annotated ones, coded once by `code_examples` after the
    vocabulary gains their new words), their intent pool and the run's one
    RNG. Building a run checks every input and writes nothing."""

    def __init__(
        self, config: TrainingConfig, corpus: Sequence[EventTuple],
        annotations: Sequence[AnnotatedExample],
        word_vectors: tuple[Vocabulary, np.ndarray] | None, lexicon: dict[str, int] | None,
    ) -> None:
        if not corpus and not annotations:
            raise ValueError("empty training data: no corpus events and no annotations")
        annotated = [AnnotatedExample(event=e) for e in corpus] + list(annotations)
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        base_vocab, base_table = word_vectors or (Vocabulary(), np.zeros((1, config.d)))
        if base_table.shape[1] != config.d:
            raise ValueError(
                f"word vectors have dimension {base_table.shape[1]}, config d={config.d}"
            )
        tokens = (
            word for ex in annotated
            for words in (ex.event.words(), ex.intent, ex.emotion_words) for word in words or ()
        )
        vocab, table = extend_embeddings(base_vocab, base_table, tokens, self.rng)
        self.examples = code_examples(annotated, vocab, lexicon, config)
        flat = initial_flat(layout(config.d, config.k, config.n), self.rng)
        self.model = JointModel(vocab, config.d, config.k, config.n, table, flat)
        # corrupt_event draws from ids 1 .. |V| - 1 and redraws the original
        if config.alpha > 0.0 and len(vocab) < 3:
            raise ValueError(
                f"cannot corrupt an event: the vocabulary has {len(vocab) - 1} usable words, "
                "need at least 2"
            )
        self.intent_pool = [ex.intent for ex in self.examples if ex.intent is not None]
        if len(set(self.intent_pool)) == 1:
            intent = " ".join(vocab.words[i] for i in self.intent_pool[0])
            raise ValueError(
                f"cannot sample a negative intent: every annotated intent is '{intent}'"
            )

    def run_epochs(
        self, out_dir: str | None = None, progress: Callable[[EpochMetrics], None] | None = None
    ) -> list[EpochMetrics]:
        """Train the model for `config.epochs` epochs; returns the per-epoch
        metrics. With `out_dir` set, one checkpoint per epoch, `final.ckpt`
        (a hard link to the last) and `metrics.tsv` go there.

        The run first removes what an earlier run wrote in `out_dir` under
        these names, `epoch-NNNN.ckpt` and `final.ckpt` with or without a
        `.tmp` suffix, and nothing else, so no stale epoch outlives a shorter
        re-run. Each save then renames onto a name that does not exist, which
        costs less than renaming over a file (README gives the ext4 timings).
        `save_checkpoint` itself still replaces an existing file atomically.
        Every save gets the run's one `SaveState`, so the vocabulary is encoded
        once, and the table rows updated since the last save, so its CRC
        re-reads only the table chunks holding them: none for `final.ckpt`.
        """
        config, model, vocab, examples, intent_pool, rng = (
            self.config, self.model, self.model.vocab, self.examples, self.intent_pool, self.rng
        )
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            for name in os.listdir(out_dir):
                if RUN_CHECKPOINT.fullmatch(name):
                    os.remove(os.path.join(out_dir, name))
            metrics_path = os.path.join(out_dir, "metrics.tsv")
            with open(metrics_path, "w", encoding="utf-8"):
                pass  # truncate any previous log

        history: list[EpochMetrics] = []
        saves = ckpt_io.SaveState()  # nothing else writes the table while this runs
        n_examples = len(examples)
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n_examples)
            sums, changed = LossParts(), []  # changed: the table rows of each step
            for start in range(0, n_examples, config.batch_size):
                batch = [examples[i] for i in order[start : start + config.batch_size]]
                corrupted, negative_intents = [], []
                for example in batch:
                    if config.alpha > 0.0:
                        corrupted.append(corrupt_event(
                            example.ids, example.sizes, len(vocab), rng, config.corruption_target
                        ))
                    if example.intent is not None:
                        negative = sample_negative_intent(intent_pool, example.intent, rng)
                        negative_intents.append(negative)
                sums += joint_loss(model, batch, corrupted, negative_intents, config)
                changed.append(adagrad_step(model.store, config.learning_rate, 1.0 / len(batch)))

            metrics = EpochMetrics(
                epoch=epoch,
                event=sums.event / sums.n_event if sums.n_event else 0.0,
                intent=sums.intent / sums.n_intent if sums.n_intent else 0.0,
                sentiment=sums.sentiment / sums.n_sentiment if sums.n_sentiment else 0.0,
                total=sums.total / n_examples,
            )
            history.append(metrics)
            if progress is not None:
                progress(metrics)
            if out_dir is not None:
                with open(metrics_path, "a", encoding="utf-8") as fh:
                    fh.write(metrics.line() + "\n")
                snapshot = ckpt_io.Checkpoint(
                    config=config,
                    vocab=vocab,
                    table=model.embeddings,
                    flat=model.store.flat_params,
                    rng_state=rng.bit_generator.state,
                    epoch=epoch,
                )
                last = os.path.join(out_dir, f"epoch-{epoch:04d}.ckpt")
                ckpt_io.save_checkpoint(last, snapshot, saves, changed)

        if out_dir is not None:
            # final.ckpt is a hard link to the last epoch's file, on a name the
            # run freed; the snapshot is written again only if linking fails
            final = os.path.join(out_dir, "final.ckpt")
            try:
                os.link(last, final)
            except OSError:
                ckpt_io.save_checkpoint(final, snapshot, saves)
        return history


def train(
    config: TrainingConfig,
    corpus: Sequence[EventTuple],
    annotations: Sequence[AnnotatedExample] = (),
    word_vectors: tuple[Vocabulary, np.ndarray] | None = None,
    lexicon: dict[str, int] | None = None,
    out_dir: str | None = None,
    progress: Callable[[EpochMetrics], None] | None = None,
) -> tuple[JointModel, list[EpochMetrics]]:
    """Build a `Run` from the data, then train it into `out_dir` with
    `Run.run_epochs`; returns the model and per-epoch metrics."""
    run = Run(config, corpus, annotations, word_vectors, lexicon)
    return run.model, run.run_epochs(out_dir, progress)
