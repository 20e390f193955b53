"""Target states for the estimation experiments.

Covers the fixed benchmark set (separable phase states, the four Bell
states, GHZ and W) plus two random ensembles: product states built from
Haar-random single-qubit unitaries, and Haar-uniform arbitrary states.
"""
from __future__ import annotations

import math

import numpy as np

from .states import StateVector, _integer
from .transforms import UnitarySpec


def _product_state(n: int, factor: np.ndarray) -> StateVector:
    amps = np.array([1.0 + 0.0j])
    for _ in range(n):
        amps = np.kron(factor, amps)
    return StateVector(n, amps)


def _superposition_factor(sign: int, phase: float = 0.0) -> np.ndarray:
    # (|0> + sign * e^{i phase} |1>) / sqrt(2)
    return np.array([1.0, sign * np.exp(1j * phase)]) / math.sqrt(2)


def ghz_state(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2)."""
    n = _integer(n, "qubit count must be an integer", 1)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return StateVector(n, amps)


def w_state(n: int) -> StateVector:
    """Uniform superposition of the n single-excitation basis states."""
    n = _integer(n, "qubit count must be an integer", 1)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[[1 << k for k in range(n)]] = 1 / math.sqrt(n)
    return StateVector(n, amps)


def random_separable(n: int, rng=None) -> StateVector:
    """Product state from an independent Haar-random unitary on each qubit:
    :meth:`UnitarySpec.random_separable` applied to |0...0>."""
    n = _integer(n, "qubit count must be an integer", 1)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n, UnitarySpec.random_separable(n, rng).apply_amps(amps, n))


def random_arbitrary(n: int, rng=None) -> StateVector:
    """Haar-uniform state: 2^n i.i.d. complex Gaussians, normalized."""
    n = _integer(n, "qubit count must be an integer", 1)
    rng = np.random.default_rng(rng)
    dim = 1 << n
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n, z / np.linalg.norm(z))


# The benchmark set, tag -> builder, in table order. It holds two unspecified
# random states at n=2 and one random separable n-qubit state; the seeds 9,
# 10 and 3 pin them for reproducibility.
_TWO_QUBIT_STATES = {
    "psi1": lambda: _product_state(2, _superposition_factor(+1)),
    "psi2": lambda: _product_state(2, _superposition_factor(-1)),
    "psi3": lambda: _product_state(2, _superposition_factor(+1, math.pi / 4)),
    "psi4": lambda: _product_state(2, _superposition_factor(-1, math.pi / 4)),
    "psi5": lambda: ghz_state(2),
    "psi6": lambda: StateVector(2, np.array([1, 0, 0, -1]) / math.sqrt(2)),
    "psi7": lambda: StateVector(2, np.array([0, 1, 1, 0]) / math.sqrt(2)),
    "psi8": lambda: StateVector(2, np.array([0, 1, -1, 0]) / math.sqrt(2)),
    "psi9": lambda: random_arbitrary(2, 9),
    "psi10": lambda: random_arbitrary(2, 10),
}
_NQUBIT_STATES = {
    "psi1_n": lambda n: _product_state(n, _superposition_factor(+1, math.pi / 4)),
    "psi2_n": lambda n: _product_state(n, _superposition_factor(-1, math.pi / 4)),
    "psi3_n": lambda n: random_separable(n, 3),
    "psi4_n": ghz_state,
    "psi5_n": w_state,
    "ghz": ghz_state,
    "w": w_state,
}


def named_state(tag: str, n: int) -> StateVector:
    """Benchmark state by tag.

    Tags ``psi1`` .. ``psi10`` are the fixed two-qubit set and require n = 2;
    tags ``psi1_n`` .. ``psi5_n`` (aliases ``ghz``, ``w``) work for any n >= 2.
    Tags are case-insensitive; any other tag raises ``ValueError``.
    """
    tags = (*_TWO_QUBIT_STATES, *_NQUBIT_STATES)
    if not isinstance(tag, str) or tag.lower() not in tags:
        raise ValueError(f"unknown state tag {tag!r}, expected one of {', '.join(tags)}")
    tag = tag.lower()
    n = _integer(n, "named states need an integer n", 2)
    if tag in _TWO_QUBIT_STATES:
        if n != 2:
            raise ValueError(f"state {tag!r} is a two-qubit state, got n={n}")
        return _TWO_QUBIT_STATES[tag]()
    return _NQUBIT_STATES[tag](n)


def table_states(n: int):
    """The full benchmark set for a given qubit count, as (tag, state) pairs."""
    tags = _TWO_QUBIT_STATES if n == 2 else [t for t in _NQUBIT_STATES if t.endswith("_n")]
    return [(tag, named_state(tag, n)) for tag in tags]
