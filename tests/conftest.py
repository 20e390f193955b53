import tracemalloc
from dataclasses import replace

import pytest

from qptycho import pie
from qptycho.protocol import CircuitRecord

ACCEPTANCE_LINES = []


def peak_traced_bytes(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def with_counts(dataset, index, counts):
    """A new dataset, built and checked like any other, that is ``dataset``
    with record ``index`` holding ``counts``."""
    records = list(dataset.records)
    records[index] = CircuitRecord(records[index].axis, records[index].qubit, counts)
    return replace(dataset, records=records)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def engine_passes(monkeypatch):
    """The (n, datasets, starts) of every engine pass made during the test."""
    shapes, run = [], pie._run_rows

    def spy(n, unitary, ids, targets, config, seeds, refs):
        shapes.append((n, len(seeds), len(seeds[0])))
        return run(n, unitary, ids, targets, config, seeds, refs)

    monkeypatch.setattr(pie, "_run_rows", spy)
    return shapes
