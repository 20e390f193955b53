"""``capture_literals.py`` re-captures every rounding-pinned literal of the
suite; each table it prints must match the constant it re-captures."""
import ast
import contextlib
import io

import capture_literals
import test_experiments
import test_files
from test_experiments import assert_rows_close


def test_capture_prints_every_pinned_table():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        capture_literals.capture()
    tables = {stmt.targets[0].id: ast.literal_eval(stmt.value) for stmt in ast.parse(out.getvalue()).body}
    assert list(tables) == [*capture_literals.SERIAL, *capture_literals.PER_DATASET,
                            "README_CHAIN_N4_ESTIMATE"]
    for name in capture_literals.SERIAL:
        assert_rows_close(tables[name], getattr(test_experiments, name))
    for name in capture_literals.PER_DATASET:
        assert tables[name] == getattr(test_experiments, name), name
    assert tables["README_CHAIN_N4_ESTIMATE"] == test_files.README_CHAIN_N4_ESTIMATE
