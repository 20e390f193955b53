import ast
import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qptycho
from qptycho import cli

PACKAGE = Path(qptycho.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def test_public_names_resolve_once():
    names = qptycho.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qptycho, name, None) is not None, name


# In a fresh interpreter: the top-level modules that importing the package and
# its CLI adds, other than the standard library's. Modules that site hooks
# load at start-up are in sys.modules before the import, so they do not count.
IMPORTS_CHILD = """
import sys
before = set(sys.modules)
import qptycho, qptycho.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(*sorted(added - set(sys.stdlib_module_names)))
"""


def test_the_only_runtime_dependency_is_numpy():
    pythonpath = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTS_CHILD], env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy", "qptycho"]


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


def _dataset():
    return qptycho.generate_dataset(
        qptycho.named_state("ghz", 2), qptycho.UnitarySpec.qft(), 10, seed=1
    )


#: One instance of each value type that the pipeline passes between stages.
PIPELINE_VALUES = {
    "StateVector": lambda: qptycho.named_state("ghz", 2),
    "UnitarySpec": lambda: qptycho.UnitarySpec.random_separable(2, 0),
    "CircuitRecord": lambda: _dataset().records[0],
    "PtychoDataset": _dataset,
    "CalibrationMatrix": lambda: qptycho.build_calibration(
        2, qptycho.ReadoutNoiseModel.symmetric(3, 0.1), 10, seed=1
    ),
    "PieConfig": qptycho.PieConfig,
    "SweepConfig": lambda: qptycho.SweepConfig(n_values=(2,)),
}


def _arrays(value):
    """Every numpy array reachable from ``value`` through dataclass fields,
    tuples, lists and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


@pytest.mark.parametrize("name", PIPELINE_VALUES)
def test_pipeline_values_are_immutable(name):
    value = PIPELINE_VALUES[name]()
    if isinstance(value, tuple):  # a CircuitRecord, a named tuple
        fields, frozen = value._fields, AttributeError
    else:
        fields, frozen = [f.name for f in dataclasses.fields(value)], dataclasses.FrozenInstanceError
    for field in fields:
        with pytest.raises(frozen):
            setattr(value, field, getattr(value, field))
    for arr in _arrays(value):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]
    if name == "PtychoDataset":  # checked once, when built: no list to append to, no re-check
        assert type(value.records) is tuple and not hasattr(value, "validate")


def test_readme_command_lines_parse():
    # Each `qptycho <command> ...` line of the README's code blocks, and each
    # such inline span, names a command and only that command's options; every
    # command has one.
    text = README.read_text()
    blocks = re.findall(r"^```\w*\n(.*?)^```", text, re.S | re.M)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    lines += re.findall(r"`(qptycho [^`\n]+)`", text)
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("qptycho ")]
    parser, refused = cli.build_parser(), []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(shlex.join(argv))
    assert refused == []
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
