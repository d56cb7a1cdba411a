"""Checks on the package source itself."""

import ast
import importlib.util
import sys
from pathlib import Path

import qdisk

PACKAGE = Path(qdisk.__file__).parent


def test_no_assert_statements():
    """Runtime checks must raise: ``python -O`` strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in qdisk: {found}"


def test_traced_names_exist(monkeypatch):
    """The benchmark's tracer wraps these names where the program looks them
    up; a refactor that drops one must fail here, not only in the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _span in tracing.TARGETS
        if not hasattr(owner, attr)
    ]
    assert not missing, f"traced names missing from qdisk: {missing}"
