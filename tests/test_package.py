import ast
import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import pytest

import eventemb
from eventemb import checkpoint, data, model, trainer
from eventemb.trainer import TrainingConfig
from conftest import SYNTHETIC_DIR, make_model, random_event


def test_every_public_name_imports():
    namespace = {}
    exec("from eventemb import *", namespace)
    for name in eventemb.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(eventemb, name)


ROOT = Path(__file__).resolve().parent.parent
# used only by tests, on purpose: the entry point
UNUSED_IN_SRC = {*eventemb.__all__, "main"}


def test_every_src_definition_has_a_caller_outside_tests():
    """Test-only code lives in tests/: each function, method or class that a
    src/eventemb module defines, at any depth, is named in src/ or perfbench/
    beyond its definitions at least as often as it is defined. A name defined
    twice with one caller (a method that only forwards to its namesake) fails.
    Dunder methods are called by Python itself and are exempt."""
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    )
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    definitions = {}
    for module in sorted((ROOT / "src" / "eventemb").glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, kinds) and not re.fullmatch(r"__\w+__", node.name):
                definitions.setdefault(node.name, []).append(f"{module.name}:{node.name}")
    unused = [
        where for name, where in sorted(definitions.items())
        if name not in UNUSED_IN_SRC and len(re.findall(rf"\b{name}\b", text)) < 2 * len(where)
    ]
    assert unused == []


def test_no_module_imports_a_name_it_never_reads():
    """Each name that a module in src/, tests/ or perfbench/ imports is read
    somewhere in that module. `__future__` imports and the names a module
    exports in `__all__` are exempt."""
    unread = []
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            nodes = list(ast.walk(tree))
            read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for node in nodes:
                if isinstance(node, ast.Assign) and "__all__" in {
                    target.id for target in node.targets if isinstance(target, ast.Name)
                }:
                    read.update(ast.literal_eval(node.value))
            for node in nodes:
                if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"
                ):
                    unread += [
                        f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                        for alias in node.names
                        if (name := alias.asname or alias.name.split(".")[0]) not in read
                    ]
    assert unread == []


# hooks of perfbench/spans.py whose targets the program no longer has, until
# a benchmark change drops them: the scale moved into `adagrad_step`, the
# event hinge into `joint_loss` and the intent hinge into `intent_hinge`
ABSENT_HOOKS = {
    "eventemb.params:ParameterStore.scale_grads",
    "eventemb.composer:EventComposer.margin_parts",
    "eventemb.intent:intent_loss_grads",
}

# counters of perfbench/spans.py that read what the program no longer passes
# or holds, until a benchmark change mends them: `_count_adagrad` reads the
# dense table gradient, and `_count_sentiment_excluded` reads `joint_loss`'s
# second argument as one example and its fourth as the config
KNOWN_BROKEN_COUNTERS = {"_count_adagrad", "_count_sentiment_excluded"}


def test_every_tracer_hook_resolves_to_a_reported_span(tmp_path):
    """A traced benchmark run skips a hook whose target is gone, and stops a
    counter that raises, and names a layer's spans by its `prefix`, so a
    rename in src/ would only show as per-layer metrics reading 0. Here the
    tracer installs its hooks as a traced run does; only the known-dead ones
    may be absent, and only the known-broken counters may stop, over a
    forward pass and a training with all three terms that saves its epoch.
    Both open only spans the report lists, each layer's among them."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        model, vocab, rng = make_model()
        model.embed_events([random_event(vocab, rng)])
        config = TrainingConfig(d=10, k=8, n=2, epochs=1, batch_size=10, seed=7)
        trainer.train(
            config,
            data.load_corpus(str(SYNTHETIC_DIR / "corpus.txt")),
            data.load_annotations(str(SYNTHETIC_DIR / "annotations.txt")),
            data.load_word_vectors(str(SYNTHETIC_DIR / "vectors.txt")),
            data.load_lexicon(str(SYNTHETIC_DIR / "lexicon.tsv")),
            out_dir=str(tmp_path),
        )
    finally:
        tracer.uninstall()
    assert set(tracer.absent) == ABSENT_HOOKS
    assert tracer.broken_counters == KNOWN_BROKEN_COUNTERS
    layers = {f"composer.layer{i}.{kind}" for i in (1, 2, 3) for kind in ("fwd", "bwd")}
    assert layers | {"trainer.joint_loss", "intent.encode", "checkpoint.save"} <= set(tracer.calls)
    assert set(tracer.calls) <= set(spans.SPANS)


SUMMARY_KEYS = {"unit", "parent_median", "change_median", "parent_iqr", "change_better_pairs"}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_bench_records_share_one_layout(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("change", "parent_commit", "command", "protocol", "machine", "summary", "pairs"):
        assert key in record, key
    assert len(record["pairs"]) >= 10
    assert record["summary"]
    for metric, entry in record["summary"].items():
        assert SUMMARY_KEYS <= entry.keys(), metric


def test_readme_checkpoint_layout_matches_the_code():
    """README's byte layout names the format version and array count the
    writer uses, so a format change cannot leave it stale."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    version = re.findall(r"format version\s+u32\s+(\d+)", readme)
    count = re.findall(r"That is\s+(\d+)\s+arrays", readme)
    assert version == [str(checkpoint.VERSION)]
    assert count == [str(1 + len(model.layout(6, 4, 2)))]


def test_readme_config_table_lists_every_field_with_its_default():
    """README's config table names each TrainingConfig field once, in field
    order, with the default the code gives it, so a new or renamed key
    cannot leave it stale."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config file", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|([^|]+)\|([^|]+)\|", section, flags=re.MULTILINE)
    listed = [
        (name.strip(), default.strip())
        for names, default in rows[2:]  # below the header and its rule
        for name in names.split(",")
    ]
    assert listed == [(f.name, str(f.default)) for f in dataclasses.fields(TrainingConfig)]
