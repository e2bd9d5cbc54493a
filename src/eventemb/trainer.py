"""Joint training: weighted loss combination, Adagrad, batching, checkpoints.

The joint objective is alpha * L_event + beta * L_intent + gamma * L_sentiment
over one shared forward of the event embedding. Terms with zero weight or
missing annotations are skipped entirely, so the `ntn` preset is the exact
baseline margin objective, bit for bit.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import checkpoint as ckpt_io
from .composer import corrupt_event
from .data import (
    AnnotatedExample,
    EventTuple,
    Vocabulary,
    derive_polarity,
    extend_embeddings,
)
from .intent import intent_loss_grads
from .model import JointModel
from .params import ParameterStore

ADAGRAD_EPS = 1e-8

# Ablation presets: (alpha, beta, gamma) weightings of the three loss terms.
PRESETS: dict[str, tuple[float, float, float]] = {
    "ntn": (1.0, 0.0, 0.0),
    "ntn+int": (1.0, 1.0, 0.0),
    "ntn+senti": (1.0, 0.0, 1.0),
    "ntn+int+senti": (1.0, 1.0, 1.0),
}

# Event arguments that training may corrupt to draw negative events.
CORRUPTION_TARGETS = ("actor", "object")


@dataclass
class TrainingConfig:
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

    def validate(self) -> None:
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
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate={self.learning_rate} must be > 0")
        if self.lambda_l2 < 0:
            raise ValueError(f"lambda_l2={self.lambda_l2} must be >= 0")
        if self.corruption_target not in CORRUPTION_TARGETS:
            raise ValueError(
                f"corruption_target={self.corruption_target!r} must be one of "
                f"{CORRUPTION_TARGETS}"
            )
        if self.d < 1 or self.k < 1 or self.n < 1:
            raise ValueError("d, k and n must all be >= 1")
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
class Negatives:
    """Per-visit negative samples: corrupted event and incorrect intent."""

    corrupted_event: EventTuple | None = None
    negative_intent: tuple[str, ...] | None = None


@dataclass(frozen=True)
class LossParts:
    """Joint loss value and its unweighted components (None = term skipped)."""

    total: float
    event: float | None
    intent: float | None
    sentiment: float | None


def joint_loss(
    model: JointModel,
    example: AnnotatedExample,
    negatives: Negatives,
    config: TrainingConfig,
    backprop: bool = False,
) -> LossParts:
    """Weighted combination of the three losses over one shared event forward.

    A term participates only if its weight is positive and the example
    carries the matching annotation; an example activating no term at all is
    an error. With backprop=True all gradients accumulate into the model's
    ParameterStore.
    """
    alpha, beta, gamma = config.alpha, config.beta, config.gamma
    use_event = alpha > 0.0
    use_intent = beta > 0.0 and example.intent is not None
    use_sentiment = gamma > 0.0 and example.polarity is not None
    if not (use_event or use_intent or use_sentiment):
        raise ValueError(
            "example activates no loss term (weights "
            f"alpha={alpha}, beta={beta}, gamma={gamma}; "
            f"intent={'yes' if example.intent else 'no'}, "
            f"polarity={example.polarity})"
        )

    c, cache = model.composer.embed(example.event)
    dc = np.zeros_like(c) if backprop else None
    total = 0.0
    l_event = l_intent = l_sentiment = None

    if use_event:
        if negatives.corrupted_event is None:
            raise ValueError("event term is active but no corrupted event was sampled")
        margin, _, _, c_r, cache_r = model.composer.margin_parts(
            c, negatives.corrupted_event
        )
        l_event = margin + model.composer.regularization(config.lambda_l2)
        total += alpha * l_event
        if backprop:
            if margin > 0.0:
                model.composer.g_u += alpha * (c_r - c)
                model.composer.embed_backward(alpha * model.composer.u, cache_r)
                dc -= alpha * model.composer.u
            model.composer.regularization_backward(config.lambda_l2, alpha)

    if use_intent:
        if negatives.negative_intent is None:
            raise ValueError("intent term is active but no negative intent was sampled")
        v_i, cache_i = model.intent.encode(example.intent)
        v_in, cache_in = model.intent.encode(negatives.negative_intent)
        l_intent, d_ve, d_vi, d_vin = intent_loss_grads(c, v_i, v_in)
        total += beta * l_intent
        if backprop and l_intent > 0.0:
            dc += beta * d_ve
            model.intent.encode_backward(beta * d_vi, cache_i)
            model.intent.encode_backward(beta * d_vin, cache_in)

    if use_sentiment:
        if backprop:
            l_sentiment, d_vs = model.sentiment.loss_backward(
                c, example.polarity, gamma
            )
            dc += d_vs
        else:
            l_sentiment = model.sentiment.loss(c, example.polarity)
        total += gamma * l_sentiment

    if backprop:
        model.composer.embed_backward(dc, cache)
    return LossParts(total, l_event, l_intent, l_sentiment)


def adagrad_step(store: ParameterStore, learning_rate: float) -> None:
    """acc += g^2; theta -= lr * g / (sqrt(acc) + eps); gradients zeroed."""
    for name, theta in store.params.items():
        g = store.grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter '{name}'")
        acc = store.accums[name]
        acc += g * g
        theta -= learning_rate * g / (np.sqrt(acc) + ADAGRAD_EPS)
        g[...] = 0.0


def sample_negative_intent(
    pool: Sequence[tuple[str, ...]],
    true_intent: tuple[str, ...],
    rng: np.random.Generator,
    max_tries: int = 10000,
) -> tuple[str, ...]:
    """Uniform draw from the annotated intents, resampled on textual identity."""
    if not pool:
        raise ValueError("cannot sample a negative intent from an empty pool")
    for _ in range(max_tries):
        candidate = pool[int(rng.integers(len(pool)))]
        if candidate != true_intent:
            return candidate
    raise ValueError(
        "cannot sample a negative intent textually distinct from the true one"
    )


def resolve_polarities(
    annotations: Iterable[AnnotatedExample], lexicon: dict[str, int] | None
) -> list[AnnotatedExample]:
    """Fill in each example's polarity from its emotion words via the lexicon."""
    resolved = []
    for ex in annotations:
        polarity = None
        if ex.emotion_words and lexicon is not None:
            polarity = derive_polarity(ex.emotion_words, lexicon)
        resolved.append(dataclasses.replace(ex, polarity=polarity))
    return resolved


def _collect_tokens(examples: Sequence[AnnotatedExample]) -> list[str]:
    tokens: list[str] = []
    for ex in examples:
        tokens.extend(ex.event.words())
        if ex.intent:
            tokens.extend(ex.intent)
        if ex.emotion_words:
            tokens.extend(ex.emotion_words)
    return tokens


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


def train(
    config: TrainingConfig,
    corpus: Sequence[EventTuple],
    annotations: Sequence[AnnotatedExample] = (),
    word_vectors: tuple[Vocabulary, np.ndarray] | None = None,
    lexicon: dict[str, int] | None = None,
    out_dir: str | None = None,
    progress: Callable[[EpochMetrics], None] | None = None,
) -> tuple[JointModel, list[EpochMetrics]]:
    """Run the full training loop; returns the model and per-epoch metrics.

    Training examples are the bare corpus events plus the annotated examples
    (polarities resolved through the lexicon). With `out_dir` set, one checkpoint
    per epoch, the last again as `final.ckpt`, and `metrics.tsv` go there.
    """
    config.validate()
    if not corpus and not annotations:
        raise ValueError("empty training data: no corpus events and no annotations")

    examples = [AnnotatedExample(event=e) for e in corpus]
    examples.extend(resolve_polarities(annotations, lexicon))

    rng = np.random.default_rng(config.seed)
    if word_vectors is not None:
        base_vocab, base_table = word_vectors
        if base_table.shape[1] != config.d:
            raise ValueError(
                f"word vectors have dimension {base_table.shape[1]}, config d={config.d}"
            )
    else:
        base_vocab = Vocabulary()
        base_table = np.zeros((1, config.d))
    vocab, table = extend_embeddings(base_vocab, base_table, _collect_tokens(examples), rng)
    model = JointModel(vocab, table, config.d, config.k, config.n, rng)

    intent_pool = [ex.intent for ex in examples if ex.intent is not None]
    metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.tsv")
        with open(metrics_path, "w", encoding="utf-8"):
            pass  # truncate any previous log

    history: list[EpochMetrics] = []
    n_examples = len(examples)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_examples)
        sums = {"event": 0.0, "intent": 0.0, "sentiment": 0.0, "total": 0.0}
        counts = {"event": 0, "intent": 0, "sentiment": 0}
        for start in range(0, n_examples, config.batch_size):
            batch = order[start : start + config.batch_size]
            for idx in batch:
                example = examples[idx]
                corrupted = None
                if config.alpha > 0.0:
                    corrupted = corrupt_event(
                        example.event, vocab, rng, config.corruption_target
                    )
                negative_intent = None
                if config.beta > 0.0 and example.intent is not None:
                    negative_intent = sample_negative_intent(
                        intent_pool, example.intent, rng
                    )
                parts = joint_loss(
                    model,
                    example,
                    Negatives(corrupted, negative_intent),
                    config,
                    backprop=True,
                )
                sums["total"] += parts.total
                for key, value in (
                    ("event", parts.event),
                    ("intent", parts.intent),
                    ("sentiment", parts.sentiment),
                ):
                    if value is not None:
                        sums[key] += value
                        counts[key] += 1
            model.store.scale_grads(1.0 / len(batch))
            adagrad_step(model.store, config.learning_rate)

        metrics = EpochMetrics(
            epoch=epoch,
            event=sums["event"] / counts["event"] if counts["event"] else 0.0,
            intent=sums["intent"] / counts["intent"] if counts["intent"] else 0.0,
            sentiment=sums["sentiment"] / counts["sentiment"] if counts["sentiment"] else 0.0,
            total=sums["total"] / n_examples,
        )
        history.append(metrics)
        if progress is not None:
            progress(metrics)
        if out_dir is not None:
            with open(metrics_path, "a", encoding="utf-8") as fh:
                fh.write(metrics.line() + "\n")
            snapshot = ckpt_io.Checkpoint(
                config=config,
                vocab_words=vocab.words,
                arrays=model.store.params,
                rng_state=rng.bit_generator.state,
                epoch=epoch,
            )
            ckpt_io.save_checkpoint(
                os.path.join(out_dir, f"epoch-{epoch:04d}.ckpt"), snapshot
            )

    if out_dir is not None:
        ckpt_io.save_checkpoint(os.path.join(out_dir, "final.ckpt"), snapshot)
    return model, history
