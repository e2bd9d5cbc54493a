"""Command-line interface: train, evaluate, embed, nearest-neighbor search.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Reports go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import checkpoint as ckpt_io
from . import data as data_io
from . import evaluate, trainer
from .data import DataError, parse_event, format_event
from .ops import cosine

# TrainingConfig field name -> parser of its value: the keys of a `key = value`
# config file and the `train --field-name` flags
_CONFIG_FIELDS = {
    f.name: str if type(f.default) is str else data_io.ascii_number(type(f.default))
    for f in dataclasses.fields(trainer.TrainingConfig)
}
# the commands, in the order `eventemb --help` lists them
COMMANDS = ("train", "eval-hard", "eval-transitive", "embed", "nn")


def parse_config_file(path: str) -> dict:
    """Parse `key = value` lines mirroring TrainingConfig field names; each
    key may appear once."""
    values: dict = {}
    first: dict[str, int] = {}
    for lineno, line in data_io.records(path):
        key, equals, value = (part.strip() for part in line.partition("="))
        if not equals:
            raise DataError(path, lineno, "expected `key = value`")
        if key not in _CONFIG_FIELDS:
            raise DataError(path, lineno, f"unknown config key {key!r}")
        if key in first:
            raise DataError(path, lineno, f"config key {key!r} repeats line {first[key]}")
        first[key] = lineno
        try:
            values[key] = _CONFIG_FIELDS[key](value)
        except ValueError as exc:
            raise DataError(path, lineno, f"bad value for {key!r}: {exc}") from exc
    return values


def _build_config(args: argparse.Namespace) -> trainer.TrainingConfig:
    """Defaults, overridden by the config file, then the preset, then explicit
    flags, merged into one dict and built once."""
    values = parse_config_file(args.config) if args.config else {}
    if args.preset:
        values.update(zip(("alpha", "beta", "gamma"), trainer.PRESETS[args.preset]))
    values.update(
        (key, value) for key in _CONFIG_FIELDS if (value := getattr(args, key)) is not None
    )
    return trainer.TrainingConfig.from_dict(values)


def _cmd_train(args: argparse.Namespace) -> int:
    config = _build_config(args)
    corpus = data_io.load_corpus(args.corpus)
    print(f"loaded {len(corpus)} events from {args.corpus}", file=sys.stderr)
    annotations = data_io.load_annotations(args.annotations) if args.annotations else []
    if args.annotations:
        print(f"loaded {len(annotations)} annotations from {args.annotations}", file=sys.stderr)
    word_vectors = data_io.load_word_vectors(args.vectors) if args.vectors else None
    if word_vectors is not None:
        vocab, table = word_vectors
        print(
            f"loaded {len(vocab) - 1} word vectors of dimension {table.shape[1]} "
            f"from {args.vectors}",
            file=sys.stderr,
        )
    lexicon = data_io.load_lexicon(args.lexicon) if args.lexicon else None
    if lexicon is not None:
        print(f"loaded {len(lexicon)} lexicon entries from {args.lexicon}", file=sys.stderr)

    def report(metrics: trainer.EpochMetrics) -> None:
        print(f"epoch {metrics.epoch}: {metrics.line()}", file=sys.stderr)

    trainer.train(
        config,
        corpus,
        annotations,
        word_vectors=word_vectors,
        lexicon=lexicon,
        out_dir=args.out,
        progress=report,
    )
    final = os.path.join(args.out, "final.ckpt")
    print(final)
    return 0


def _load_model(path: str):
    return ckpt_io.build_model(ckpt_io.load_checkpoint(path))


def _cmd_eval(args: argparse.Namespace) -> int:
    model = _load_model(args.checkpoint)
    instances = args.load(args.data)
    try:
        value = args.metric(instances, model.embed_events)
    except ValueError as exc:  # too few instances, or scores that give no value
        raise DataError(args.data, 0, str(exc)) from exc
    print(f"{args.report}\t{args.data}\t{value:.6f}\t{len(instances)}")
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    model = _load_model(args.checkpoint)
    for vec in model.embed_events(data_io.load_corpus(args.events)):
        print("\t".join(f"{x:.10g}" for x in vec))
    return 0


def _cmd_nn(args: argparse.Namespace) -> int:
    model = _load_model(args.checkpoint)
    query = parse_event(args.query, "<query>", 0)
    unknown = dict.fromkeys(w for w in query.words() if w not in model.vocab)
    if unknown:
        print(
            f"unknown query words, embedded as {data_io.UNKNOWN_TOKEN}: {' '.join(unknown)}",
            file=sys.stderr,
        )
    events = data_io.load_corpus(args.corpus)
    if not events:
        raise ValueError(f"{args.corpus}: no events to search")
    vecs = model.embed_events([query, *events])
    scores = cosine(np.broadcast_to(vecs[0], vecs[1:].shape), vecs[1:])
    # stable sort: ties keep input order
    for i in np.argsort(-scores, kind="stable")[: args.top]:
        print(f"{scores[i]:.6f}\t{format_event(events[i])}")
    return 0


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = data_io.ascii_number(int)(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `eventemb` parser with only `command`'s subparser, or with all five
    when `command` is None; its usage lines list all five either way."""
    parser = argparse.ArgumentParser(
        prog="eventemb",
        description="Train and evaluate commonsense-supervised event embeddings.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    if command in (None, "train"):
        p_train = sub.add_parser("train", help="train a model and write checkpoints")
        p_train.add_argument("--corpus", required=True, help="event corpus file")
        p_train.add_argument("--out", required=True, help="output directory")
        p_train.add_argument("--annotations", help="intent/emotion annotation file")
        p_train.add_argument("--vectors", help="pretrained word-vector file")
        p_train.add_argument("--lexicon", help="sentiment lexicon TSV")
        p_train.add_argument("--config", help="key = value config file")
        p_train.add_argument(
            "--preset",
            choices=sorted(trainer.PRESETS),
            help="loss-weight preset (overrides config file alpha/beta/gamma)",
        )
        for key, parse in _CONFIG_FIELDS.items():
            p_train.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=parse,
                choices=trainer.CORRUPTION_TARGETS if key == "corruption_target" else None,
                help=f"overrides config key {key}",
            )
        p_train.set_defaults(func=_cmd_train)

    # the loader and metric are looked up here, when `main` runs, so a
    # function patched on its module after import is the one called
    for name, help_text, load, metric, report in (
        ("eval-hard", "hard-similarity accuracy", data_io.load_hardsim,
         evaluate.hard_similarity_accuracy, "hard_similarity_accuracy"),
        ("eval-transitive", "transitive-similarity Spearman rho", data_io.load_transitive,
         evaluate.evaluate_transitive, "transitive_spearman_rho"),
    ):
        if command in (None, name):
            p_eval = sub.add_parser(name, help=help_text)
            p_eval.add_argument("--checkpoint", required=True)
            p_eval.add_argument("--data", required=True)
            p_eval.set_defaults(func=_cmd_eval, load=load, metric=metric, report=report)

    if command in (None, "embed"):
        p_embed = sub.add_parser("embed", help="print event embeddings")
        p_embed.add_argument("--checkpoint", required=True)
        p_embed.add_argument("--events", required=True)
        p_embed.set_defaults(func=_cmd_embed)

    if command in (None, "nn"):
        p_nn = sub.add_parser("nn", help="nearest events by cosine similarity")
        p_nn.add_argument("--checkpoint", required=True)
        p_nn.add_argument("--query", required=True, help="event as actor|predicate|object")
        p_nn.add_argument("--corpus", required=True)
        p_nn.add_argument("--top", type=positive_int, default=10)
        p_nn.set_defaults(func=_cmd_nn)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
