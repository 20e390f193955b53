import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import strategies as st

from qptycho import pie

ACCEPTANCE_LINES = []

#: Any JSON value. Integers stay small, so that one landing on a qubit count
#: keeps n <= 3 and nothing the size of 2^n grows large.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=6)
    | st.sampled_from(["named", "separable", "arbitrary", "ghz", "psi5", "<f8", "zlib", "qft", "AAAA"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


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
    with row ``index`` holding ``counts``."""
    table = dataset.counts.copy()
    table[index] = counts
    return replace(dataset, counts=table)


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
