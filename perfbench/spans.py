"""Outside-in span tracer for eventemb.

The tracer times calls into eventemb's public functions and methods by
patching them from the benchmark's files; `src/` is never edited. Each hook
is patched where callers look it up: a module-level function is replaced in
every loaded `eventemb` module that holds a reference to it (so `trainer`'s
by-name import of `corrupt_event` and `cli`'s of `cosine` are covered), and a
method is replaced on its class. A hook whose target no longer exists is
recorded as absent and the run goes on, so end-to-end numbers survive a
refactor that removes, say, `LowRankLayer.forward`.

Spans are aggregated in memory by name: calls and self time (duration minus
the time covered by child spans). Counters are computed at the same
boundaries inside a `trace.counters` span, so their cost shows as tracing
overhead rather than as any layer's self time. The tracer never touches the
training RNG and only reads program state.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _layer_span(kind: str):
    def name(args) -> str:
        return f"composer.{getattr(args[0], 'prefix', 'layer')}.{kind}"

    return name


# --- counters: each takes the tracer, the call's arguments and, for the
# "after" ones, its result ---------------------------------------------------


def _count_event_hinge(tr, args, result) -> None:
    tr.counts["composer.event_hinges"] += 1
    tr.counts["composer.event_hinges_active"] += result[0] > 0.0


def _count_intent_hinge(tr, args, result) -> None:
    tr.counts["intent.hinges"] += 1
    tr.counts["intent.hinges_active"] += result[0] > 0.0


def _count_tokens(tr, args) -> None:
    tr.counts["intent.tokens"] += len(args[1])


def _count_sentiment_excluded(tr, args) -> None:
    example, config = args[1], args[3]
    if config.gamma > 0.0 and example.emotion_words and example.polarity is None:
        tr.counts["sentiment.excluded"] += 1


def _count_adagrad(tr, args) -> None:
    store = args[0]
    table_grad = store.grads["embeddings"]
    tr.counts["params.steps"] += 1
    tr.counts["params.rows_touched_share_sum"] += (
        int(table_grad.any(axis=1).sum()) / table_grad.shape[0]
    )
    # read gradient, accumulator and parameter once, write all three once
    tr.counts["trainer.adagrad_step.bytes_computed"] += 6 * sum(
        p.nbytes for p in store.params.values()
    )


def _count_save_bytes(tr, args, result) -> None:
    tr.counts["checkpoint.save.bytes"] += os.path.getsize(args[0])


# (span name or name function, "module:qualified.attribute", before, after)
HOOKS = (
    ("data.load_word_vectors", "eventemb.data:load_word_vectors", None, None),
    ("data.load_corpus", "eventemb.data:load_corpus", None, None),
    ("data.load_annotations", "eventemb.data:load_annotations", None, None),
    ("trainer.train", "eventemb.trainer:train", None, None),
    ("trainer.joint_loss", "eventemb.trainer:joint_loss", _count_sentiment_excluded, None),
    ("trainer.sample_negative_intent", "eventemb.trainer:sample_negative_intent", None, None),
    ("trainer.adagrad_step", "eventemb.trainer:adagrad_step", _count_adagrad, None),
    ("params.scale_grads", "eventemb.params:ParameterStore.scale_grads", None, None),
    ("composer.corrupt_event", "eventemb.composer:corrupt_event", None, None),
    ("composer.embed", "eventemb.composer:EventComposer.embed", None, None),
    ("composer.embed_backward", "eventemb.composer:EventComposer.embed_backward", None, None),
    ("composer.margin_parts", "eventemb.composer:EventComposer.margin_parts",
     None, _count_event_hinge),
    (_layer_span("fwd"), "eventemb.composer:LowRankLayer.forward", None, None),
    (_layer_span("bwd"), "eventemb.composer:LowRankLayer.backward", None, None),
    ("composer.l2", "eventemb.composer:EventComposer.regularization", None, None),
    ("composer.l2", "eventemb.composer:EventComposer.regularization_backward", None, None),
    ("intent.encode", "eventemb.intent:BiLstmEncoder.encode", _count_tokens, None),
    ("intent.encode_backward", "eventemb.intent:BiLstmEncoder.encode_backward", None, None),
    ("intent.loss_grads", "eventemb.intent:intent_loss_grads", None, _count_intent_hinge),
    ("sentiment.loss_backward", "eventemb.sentiment:SentimentHead.loss_backward", None, None),
    ("checkpoint.save", "eventemb.checkpoint:save_checkpoint", None, _count_save_bytes),
    ("checkpoint.load", "eventemb.checkpoint:load_checkpoint", None, None),
    ("checkpoint.build_model", "eventemb.checkpoint:build_model", None, None),
    ("evaluate.hard_similarity", "eventemb.evaluate:hard_similarity_accuracy", None, None),
    ("evaluate.transitive", "eventemb.evaluate:evaluate_transitive", None, None),
    ("ops.cosine", "eventemb.ops:cosine", None, None),
)

# Every span the per-layer report lists. `trainer.train` is the root of a
# training; its self time is reported as `trainer.other_s`. The `cli.*`
# spans are opened by the benchmark around each in-process CLI invocation.
SPANS = (
    "data.load_word_vectors", "data.load_corpus", "data.load_annotations",
    "trainer.train", "trainer.joint_loss", "trainer.sample_negative_intent",
    "trainer.adagrad_step", "params.scale_grads",
    "composer.corrupt_event", "composer.embed", "composer.embed_backward",
    "composer.margin_parts",
    "composer.layer1.fwd", "composer.layer2.fwd", "composer.layer3.fwd",
    "composer.layer1.bwd", "composer.layer2.bwd", "composer.layer3.bwd",
    "composer.l2",
    "intent.encode", "intent.encode_backward", "intent.loss_grads",
    "sentiment.loss_backward",
    "checkpoint.save", "checkpoint.load", "checkpoint.build_model",
    "evaluate.hard_similarity", "evaluate.transitive", "ops.cosine",
    "cli.nn", "cli.eval_hard", "cli.eval_transitive",
    "trace.counters",
)


class Tracer:
    """In-memory span aggregator plus the hook patches that feed it."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.parents: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------

    def _enter(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, start: float) -> None:
        duration = time.perf_counter() - start
        name, child = self._stack.pop()
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.parents[(parent[0] if parent else "", name)] += 1

    @contextmanager
    def span(self, name: str):
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(start)

    def _count(self, counter, *args) -> None:
        if counter.__name__ in self.broken_counters:
            return
        start = self._enter("trace.counters")
        try:
            counter(self, *args)
        except (AttributeError, LookupError, TypeError, ValueError, OSError):
            # the program's API moved under the counter: stop counting, keep timing
            self.broken_counters.add(counter.__name__)
        finally:
            self._exit(start)

    def _wrap(self, fn, span, before, after):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                tracer._count(before, args)
            start = tracer._enter(span(args) if callable(span) else span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(start)
            if after is not None:
                tracer._count(after, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- hooks -------------------------------------------------------------

    def install(self) -> None:
        """Patch every hook; targets that no longer exist are marked absent."""
        package = [module for name, module in list(sys.modules.items())
                   if name == "eventemb" or name.startswith("eventemb.")]
        for span, target, before, after in HOOKS:
            module_name, _, qualname = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(target)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(target)
                continue
            wrapped = self._wrap(original, span, before, after)
            if path:  # a method: callers find it on the class
                self._patch(owner, attr, wrapped)
                continue
            for module in package:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # --- report --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name: (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            key = "trainer.other_s" if name == "trainer.train" else f"{name}.self_s"
            out[key] = (self.self_s.get(name, 0.0), "s")
        c = self.counts

        def share(part: str, whole: str) -> float:
            return c[part] / c[whole] if c[whole] else 0.0

        out["composer.event_hinge_active"] = (
            share("composer.event_hinges_active", "composer.event_hinges"), "ratio")
        out["intent.hinge_active"] = (share("intent.hinges_active", "intent.hinges"), "ratio")
        out["intent.tokens"] = (c["intent.tokens"], "count")
        out["sentiment.excluded"] = (c["sentiment.excluded"], "count")
        out["params.embedding_rows_touched_ratio"] = (
            share("params.rows_touched_share_sum", "params.steps"), "ratio")
        out["trainer.adagrad_step.bytes_computed"] = (
            c["trainer.adagrad_step.bytes_computed"], "B")
        out["checkpoint.save.bytes"] = (c["checkpoint.save.bytes"], "B")
        out["trace.absent_hooks"] = (len(self.absent), "count")
        return out

    def tree(self) -> dict[str, int]:
        """Call counts per `parent>child` edge; the root's parent is empty."""
        return {f"{p}>{n}": k for (p, n), k in sorted(self.parents.items())}
