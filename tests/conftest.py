import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from qptycho import pie
from qptycho.pie import _correction_amps, _workspace
from qptycho.states import _pauli_bras_kets

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


def frame_correction(amps, n, q, kets, targets, beta):
    """The engine's circuit step in a measurement frame: both sign
    projectors |kets[s]><kets[s]| on qubit q, ``targets`` holding the +
    row then the - row, with no unitary."""
    kets = np.asarray(kets)
    return _correction_amps(amps, n, q, kets.conj(), kets, np.asarray(targets), beta, None,
                            _workspace(np.shape(amps)))


def circuit_correction(amps, n, circuit, targets, unitary, beta):
    """The engine's circuit step in the computational frame: both sign
    projectors of the Pauli circuit ``circuit``, an ``(axis, qubit)`` pair,
    through ``unitary``, ``targets`` holding the + row then the - row."""
    axis, q = circuit
    return _correction_amps(amps, n, q, *_pauli_bras_kets(axis), np.asarray(targets), beta,
                            unitary, _workspace(np.shape(amps)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def engine_passes(monkeypatch):
    """The (n, datasets, starts) of every engine pass made during the test."""
    shapes, run = [], pie._run_rows

    def spy(n, unitary, targets, config, seeds, refs):
        shapes.append((n, len(seeds), len(seeds[0])))
        return run(n, unitary, targets, config, seeds, refs)

    monkeypatch.setattr(pie, "_run_rows", spy)
    return shapes
