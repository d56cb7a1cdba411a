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


def _referred_name(node):
    """The name a node refers to: by name, as an attribute, as an imported
    name, or as an identifier string (the tracer's targets); else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.isidentifier():
            return node.value
    return None


def _definitions(tree):
    """The functions, classes and methods of a module, dunders left out."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_every_definition_is_used():
    """Each function, class and method of the package is used somewhere in
    the package, the tests or the benchmark."""
    root = Path(__file__).resolve().parents[1]
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for directory in (PACKAGE, root / "tests", root / "perfbench")
        for path in sorted(directory.rglob("*.py"))
    }
    used = {_referred_name(node) for tree in trees.values() for node in ast.walk(tree)}
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in _definitions(tree)
        if node.name not in used
    ]
    assert not unused, f"definitions nothing uses: {unused}"


def _program_references(tree):
    """The names a module of the program refers to, leaving out annotations
    and a definition's references to itself (a class built in its own
    methods, a recursive call)."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = _referred_name(node)
        if name is not None and name not in inside:
            found.add(name)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, inside)

    visit(tree, frozenset())
    return found


# Package definitions that only the tests call, each with the acceptance
# criterion (tests/test_acceptance.py) or the I/O role it serves.
TEST_ONLY = {
    "sample_field": "criteria 2 and 7: a catalog entry sampled on the grid",
    "enumerate_entries": "criteria 2, 7 and 8: the catalog entries with seeded parameters",
    "holder_fit": "criterion 7: the Hölder exponent of a field",
    "energy_decay_check": "criterion 7: the energy decay bound",
    "sheet_gradient": "criterion 8: the closed-form Jacobian of a sheet",
    "save_trace": "I/O: writes the boundary trace files the CLI reads",
    "rescale_exact": "the tests' exact catalog entries: one rescale of blowup_sequence",
}


def test_test_only_definitions_are_listed():
    """A function, class or method that no package module but __init__ and
    no benchmark file refers to runs for the tests alone: it must be listed
    in TEST_ONLY with what it serves, and nothing else may be listed."""
    root = Path(__file__).resolve().parents[1]
    modules = {
        path: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))
    }
    program = [tree for path, tree in modules.items() if path.name != "__init__.py"] + [
        ast.parse(path.read_text(), str(path))
        for path in sorted((root / "perfbench").rglob("*.py"))
    ]
    referred = set().union(*map(_program_references, program))
    test_only = {
        node.name
        for tree in modules.values()
        for node in _definitions(tree)
        if node.name not in referred
    }
    assert test_only == set(TEST_ONLY), (
        f"test-only but not listed: {sorted(test_only - set(TEST_ONLY))}; "
        f"listed but used by the program: {sorted(set(TEST_ONLY) - test_only)}"
    )


# Thresholds on data, each stated for data whose largest |value| lies in [1, 2)
DATA_THRESHOLDS = {
    "COEFF_EPS", "SEP_TOL", "EPS_BOUNDARY_MASS", "ENERGY_EPS", "CENTER_RING_ATOL",
}


def test_data_thresholds_are_read_through_scaled_tol():
    """The package reads each data threshold only as the first argument of
    scaled_tol, which scales it to the data it tests, so an absolute
    comparison cannot come back unseen. Spectrum's coeff_eps default, for a
    spectrum built by hand, is the one exception."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _referred_name(node.func) == "scaled_tol":
                allowed.add(id(node.args[0]))
            if isinstance(node, ast.ClassDef) and node.name == "Spectrum":
                allowed.update(
                    id(item.value) for item in node.body
                    if isinstance(item, ast.AnnAssign) and _referred_name(item.target) == "coeff_eps"
                )
        found += [
            f"{path.name}:{node.lineno} {_referred_name(node)}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
            and _referred_name(node) in DATA_THRESHOLDS
            and id(node) not in allowed
        ]
    assert not found, f"data thresholds read without scaled_tol: {found}"


def _blowup_refers_to(names):
    """Where qdisk/blowup.py refers to one of the names, or defines it."""
    path = PACKAGE / "blowup.py"
    return [
        f"{path.name}:{getattr(node, 'lineno', '?')} {name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in {_referred_name(node), getattr(node, "name", None)} & names
    ]


def test_blowup_reads_no_grid_field():
    """One blow-up route: qdisk/blowup.py takes spectra only and does not
    refer to DiskField, so a grid-field branch cannot come back unseen."""
    found = _blowup_refers_to({"DiskField"})
    assert not found, f"DiskField referred to in qdisk.blowup: {found}"


GRID_RING_RULE = {"rings", "ring_of", "GridTooCoarse"}


def test_blowup_holds_no_ring_rule():
    """The blow-up reads its radii exactly: qdisk/blowup.py refers to none
    of the grid's ring rule (PolarGrid.rings and ring_of, and the
    GridTooCoarse they raise), so the rule cannot come back unseen."""
    found = _blowup_refers_to(GRID_RING_RULE)
    assert not found, f"the grid's ring rule referred to in qdisk.blowup: {found}"


CATALOG_FIT = {"lstsq", "_fit_sheet_tuple"}


def test_blowup_holds_no_catalog_fit():
    """The blow-up reads its catalog entry off the limit's lowest mode:
    qdisk/blowup.py refers to neither a least-squares solve nor the sheet
    fit that made one, so the fit cannot come back unseen."""
    found = _blowup_refers_to(CATALOG_FIT)
    assert not found, f"a catalog fit referred to in qdisk.blowup: {found}"


SPECTRAL_ROUTE = {"_eval_modes", "harmonic_extension", "analyze_spectrum"}


def test_oracle_calls_no_spectral_code():
    """The relaxation oracle stays independent of the spectral route:
    relax_oracle, and every function of qdisk/minimizer.py that it calls,
    directly or not, refer to none of the mode evaluator, the extension and
    the spectral analysis."""
    path = PACKAGE / "minimizer.py"
    functions = {
        node.name: node
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.FunctionDef)
    }
    found, seen, todo = [], set(), ["relax_oracle"]
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            referred = _referred_name(node)
            if referred in SPECTRAL_ROUTE:
                found.append(f"{name}:{node.lineno} {referred}")
            elif referred in functions and referred not in seen:
                todo.append(referred)
    assert not found, f"the oracle calls spectral code: {found}"
