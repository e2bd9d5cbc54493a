import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

import eventemb
from eventemb import checkpoint, model
from eventemb.trainer import TrainingConfig


def test_every_public_name_imports():
    namespace = {}
    exec("from eventemb import *", namespace)
    for name in eventemb.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(eventemb, name)


ROOT = Path(__file__).resolve().parent.parent
# used only by tests, on purpose: the entry point, and the in-memory checkpoint
# format that tests compare the streamed save with
UNUSED_IN_SRC = {*eventemb.__all__, "main", "checkpoint_bytes"}


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
