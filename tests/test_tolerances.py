"""The tolerance table in ``certificate``: the only place a guard's value is
written, imported by name wherever the same decision is made, and every
name gated by ``tests/mutants.py``."""

import ast
import importlib
import inspect
import io
import re
import tokenize
from pathlib import Path

import pytest

import mutants
from steerbound import certificate

PACKAGE = Path(certificate.__file__).resolve().parent
ROWS = mutants.table(PACKAGE / "certificate.py")
TABLE_LINES = {index + 1 for index, _, _ in ROWS}
NAMES = [name for _, name, _ in ROWS]

# decisions made at more than one site: each site module imports the name
SHARED = {
    "ENDPOINT_SLACK": ("cli", "numsearch", "selftest", "steering"),
    "VALIDITY_TOL": ("assemblage", "cli"),
}


def _certificate_imports(path: Path) -> set:
    """Names a module imports with ``from .certificate import ...``."""
    tree = ast.parse(path.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "certificate"
        for alias in node.names
    }


def test_no_tolerance_literal_outside_the_table():
    # a NUMBER token such as 1e-12 anywhere in the package but the table is
    # a guard with no name; docstrings and comments are other tokens
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        for token in tokens:
            if token.type == tokenize.NUMBER and re.search(r"e-", token.string, re.IGNORECASE):
                if not (path.name == "certificate.py" and token.start[0] in TABLE_LINES):
                    found.append(f"{path.name}:{token.start[0]}: {token.string}")
    assert found == []


def test_table_names_are_unique_and_defined_once():
    assert len(NAMES) == len(set(NAMES)) >= 11
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "certificate.py":
            continue
        assigned = {
            target.id
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        assert not assigned & set(NAMES), path.name


@pytest.mark.parametrize("name", SHARED)
def test_shared_decisions_import_one_name(name):
    for module in SHARED[name]:
        assert name in _certificate_imports(PACKAGE / f"{module}.py"), module


def test_every_name_has_gate_rows():
    # the gate builds its rows from the table; each name needs test files
    assert set(mutants.TESTS) == set(NAMES)
    assert all(Path(mutants.ROOT, f).is_file() for files in mutants.TESTS.values() for f in files)
    assert set(mutants.EQUIVALENT) <= {label for label, *_ in mutants.mutants()}


def test_structural_rows_apply():
    # each structural mutant drops one _require_valid call, written once in
    # its module, and every call site has its row
    calls = sum(path.read_text().count("_require_valid(") for path in PACKAGE.glob("*.py"))
    assert len(mutants.STRUCTURAL) == calls - 1  # less the definition
    for _, module, old, new, files in mutants.STRUCTURAL:
        assert (PACKAGE / module).read_text().count(old) == 1, old
        assert "_require_valid(" in old and "_require_valid(" not in new
        assert all(Path(mutants.ROOT, f).is_file() for f in files)


def test_guard_rows_apply():
    # each guard row's text is written once in its module
    for _, module, old, new, files in mutants.GUARDS:
        assert (PACKAGE / module).read_text().count(old) == 1, old
        assert old != new
        assert all(Path(mutants.ROOT, f).is_file() for f in files)


def test_require_valid_takes_only_the_assemblage():
    # one validity rule, at VALIDITY_TOL: no caller picks a tolerance
    from steerbound.assemblage import _require_valid

    assert list(inspect.signature(_require_valid).parameters) == ["asm"]


@pytest.mark.parametrize(
    "module, name",
    [("fidelity", "_ROUNDING"), ("assemblage", "PROB_FLOOR")],
)
def test_moved_names_still_import_from_their_old_modules(module, name):
    assert getattr(importlib.import_module(f"steerbound.{module}"), name) is getattr(certificate, name)
