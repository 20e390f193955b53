"""Target states for the estimation experiments.

Covers the fixed benchmark set (separable phase states, the four Bell
states, GHZ and W) plus two random ensembles: product states built from
Haar-random single-qubit unitaries, and Haar-uniform arbitrary states.
"""
from __future__ import annotations

import math

import numpy as np

from .states import StateVector, _integer
from .transforms import _haar_u3_angles, u3_matrix

# The benchmark set contains two unspecified random states at n=2 and one
# random separable n-qubit state; these seeds pin them for reproducibility.
PSI9_SEED = 9
PSI10_SEED = 10
PSI3N_SEED = 3

TWO_QUBIT_TAGS = tuple(f"psi{i}" for i in range(1, 11))
NQUBIT_TAGS = tuple(f"psi{i}_n" for i in range(1, 6))


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
    """Product state from an independent Haar-random unitary on each qubit.

    The per-qubit unitary is drawn in the (theta, phi, lam) chart with
    cos(theta) uniform on [-1, 1] and phi, lam uniform on [0, 2 pi).
    """
    n = _integer(n, "qubit count must be an integer", 1)
    amps = np.array([1.0 + 0.0j])
    for triple in _haar_u3_angles(n, rng):
        amps = np.kron(u3_matrix(*triple)[:, 0], amps)
    return StateVector(n, amps)


def random_arbitrary(n: int, rng=None) -> StateVector:
    """Haar-uniform state: 2^n i.i.d. complex Gaussians, normalized."""
    n = _integer(n, "qubit count must be an integer", 1)
    rng = np.random.default_rng(rng)
    dim = 1 << n
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n, z / np.linalg.norm(z))


def _two_qubit_state(tag: str) -> StateVector:
    sqrt2 = math.sqrt(2)
    if tag == "psi1":
        return _product_state(2, _superposition_factor(+1))
    if tag == "psi2":
        return _product_state(2, _superposition_factor(-1))
    if tag == "psi3":
        return _product_state(2, _superposition_factor(+1, math.pi / 4))
    if tag == "psi4":
        return _product_state(2, _superposition_factor(-1, math.pi / 4))
    if tag == "psi5":
        return ghz_state(2)
    if tag == "psi6":
        return StateVector(2, np.array([1, 0, 0, -1]) / sqrt2)
    if tag == "psi7":
        return StateVector(2, np.array([0, 1, 1, 0]) / sqrt2)
    if tag == "psi8":
        return StateVector(2, np.array([0, 1, -1, 0]) / sqrt2)
    if tag == "psi9":
        return random_arbitrary(2, PSI9_SEED)
    if tag == "psi10":
        return random_arbitrary(2, PSI10_SEED)
    raise KeyError(tag)


def _nqubit_state(tag: str, n: int) -> StateVector:
    if tag == "psi1_n":
        return _product_state(n, _superposition_factor(+1, math.pi / 4))
    if tag == "psi2_n":
        return _product_state(n, _superposition_factor(-1, math.pi / 4))
    if tag == "psi3_n":
        return random_separable(n, PSI3N_SEED)
    if tag in ("psi4_n", "ghz"):
        return ghz_state(n)
    if tag in ("psi5_n", "w"):
        return w_state(n)
    raise KeyError(tag)


def named_state(tag: str, n: int) -> StateVector:
    """Benchmark state by tag.

    Tags ``psi1`` .. ``psi10`` are the fixed two-qubit set and require n = 2;
    tags ``psi1_n`` .. ``psi5_n`` (aliases ``ghz``, ``w``) work for any n >= 2.
    """
    tag = tag.lower()
    n = _integer(n, "named states need an integer n", 2)
    if tag in TWO_QUBIT_TAGS:
        if n != 2:
            raise ValueError(f"state {tag!r} is a two-qubit state, got n={n}")
        return _two_qubit_state(tag)
    if tag in NQUBIT_TAGS or tag in ("ghz", "w"):
        return _nqubit_state(tag, n)
    raise KeyError(f"unknown state tag {tag!r}")


def table_states(n: int):
    """The full benchmark set for a given qubit count, as (tag, state) pairs."""
    tags = TWO_QUBIT_TAGS if n == 2 else NQUBIT_TAGS
    return [(tag, named_state(tag, n)) for tag in tags]
