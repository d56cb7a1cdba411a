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


def test_every_definition_is_used():
    """Each function, class and method of the package is used somewhere in
    the package, the tests or the benchmark: by name, as an attribute, as an
    imported name, or as an identifier string (the tracer's targets)."""
    root = Path(__file__).resolve().parents[1]
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for directory in (PACKAGE, root / "tests", root / "perfbench")
        for path in sorted(directory.rglob("*.py"))
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    used.add(node.value)
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert not unused, f"definitions nothing uses: {unused}"
