import ast
import dataclasses
import re
import sys
from pathlib import Path

import qptycho

PACKAGE = Path(qptycho.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def test_public_names_resolve_once():
    names = qptycho.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qptycho, name, None) is not None, name


def _names_used_outside_own_definition() -> set:
    """Identifiers that some top-level statement of a package module (other
    than ``__init__``) reads, not counting a definition's mentions of its own
    name; imports do not count."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            used |= names - {getattr(stmt, "name", None)}
    return used


def test_every_public_name_has_a_caller_or_is_documented():
    # A public name that nothing in the package uses and the README does not
    # name exists only for the tests; it belongs in the tests.
    used = _names_used_outside_own_definition()
    readme = README.read_text()
    orphans = [
        name for name in qptycho.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert orphans == []


def test_every_config_field_is_passed_by_a_caller():
    # A config field that no module other than its own passes by keyword is a
    # knob that only the tests can turn; it belongs in the tests or nowhere.
    for cls in (qptycho.PieConfig, qptycho.SweepConfig):
        home = Path(sys.modules[cls.__module__].__file__).resolve()
        passed = {
            node.arg
            for path in PACKAGE.glob("*.py") if path.resolve() != home
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.keyword)
        }
        unset = [f.name for f in dataclasses.fields(cls) if f.name not in passed]
        assert unset == [], cls.__name__
