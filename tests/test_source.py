"""Checks on the package source itself."""

import ast
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
