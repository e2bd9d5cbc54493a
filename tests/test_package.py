import ast
import json
import re
from pathlib import Path

import pytest

import eventemb


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
    """Test-only code lives in tests/: each top-level function or class of a
    src/eventemb module is named in src/ or perfbench/ beyond its definition."""
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    )
    unused = []
    for module in sorted((ROOT / "src" / "eventemb").glob("*.py")):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(node, kinds) and node.name not in UNUSED_IN_SRC:
                if len(re.findall(rf"\b{node.name}\b", text)) < 2:
                    unused.append(f"{module.name}:{node.name}")
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
