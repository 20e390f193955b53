"""Complex statevector storage and primitive qubit-local operations.

Conventions used everywhere in this package:

* A basis index ``j`` has binary expansion ``j_{n-1} ... j_1 j_0`` and qubit
  ``k`` owns bit weight ``2**k``, so qubit 0 is the least significant bit.
* Amplitude buffers are double-precision complex and frozen after
  construction; all operations return new values, which makes every type in
  this module safe to share across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PAULI_AXES = ("x", "y", "z")
SIGNS = (1, -1)

#: A state counts as normalized when |sum |a_j|^2 - 1| is below this.
NORMALIZATION_ATOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Pure n-qubit state held as 2**n complex amplitudes.

    Parameters
    ----------
    n : int
        Qubit count, at least 1.
    amps : array_like
        2**n complex amplitudes; copied and frozen on construction.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"qubit count must be an integer >= 1, got {self.n!r}")
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes (amps) must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector."""
        return float(np.linalg.norm(self.amps))

    @property
    def is_normalized(self) -> bool:
        return abs(float(np.sum(self.amps.real**2 + self.amps.imag**2)) - 1.0) < NORMALIZATION_ATOL

    def normalized(self) -> "StateVector":
        """Return a unit-norm copy; raises on the zero vector."""
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n, self.amps / nrm)


def basis_state(n: int, j: int) -> StateVector:
    """Computational basis state |j> on n qubits."""
    if not 0 <= j < (1 << n):
        raise IndexError(f"basis index {j} out of range for n={n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[j] = 1.0
    return StateVector(n, amps)


@dataclass(frozen=True, order=True)
class ProjectorId:
    """Label of one rank-2**(n-1) overlapping projector: a Pauli axis,
    the measured qubit, and the eigenvalue sign. An n-qubit protocol uses
    all 6n of these (3n circuits, both signs recorded per circuit)."""

    axis: str
    qubit: int
    sign: int

    def __post_init__(self):
        if self.axis not in PAULI_AXES:
            raise ValueError(f"axis must be one of {PAULI_AXES}, got {self.axis!r}")
        if self.qubit < 0:
            raise ValueError(f"qubit index must be >= 0, got {self.qubit}")
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


def projector_ids(n: int):
    """The 6n projector labels in canonical order: axis x,y,z outer,
    qubit ascending, sign + before -."""
    return [
        ProjectorId(axis, q, sign)
        for axis in PAULI_AXES
        for q in range(n)
        for sign in SIGNS
    ]


def _check_qubit(n: int, q: int):
    if not 0 <= q < n:
        raise IndexError(f"qubit index {q} out of range for n={n}")


def _apply_single_qubit_amps(amps: np.ndarray, q: int, g: np.ndarray) -> np.ndarray:
    # View the vector as (high bits, bit q, low bits) and mix the bit-q pair.
    v = amps.reshape(-1, 2, 1 << q)
    out = np.empty_like(v)
    out[:, 0, :] = g[0, 0] * v[:, 0, :] + g[0, 1] * v[:, 1, :]
    out[:, 1, :] = g[1, 0] * v[:, 0, :] + g[1, 1] * v[:, 1, :]
    return out.reshape(amps.shape)


def apply_single_qubit(state: StateVector, q: int, gate) -> StateVector:
    """Apply an arbitrary 2x2 complex matrix to qubit ``q``.

    For every index pair differing only in bit ``q``, the output pair is the
    matrix-vector product of ``gate`` with the input pair.
    """
    _check_qubit(state.n, q)
    g = np.asarray(gate, dtype=np.complex128)
    if g.shape != (2, 2):
        raise ValueError(f"gate must be 2x2, got shape {g.shape}")
    return StateVector(state.n, _apply_single_qubit_amps(state.amps, q, g))


def _project_amps(amps: np.ndarray, axis: str, q: int, sign: int) -> np.ndarray:
    """Matrix-free application of the rank-1 Pauli eigenprojector on bit q,
    tensored with identity elsewhere. O(2**n), returns a new array."""
    v = amps.reshape(-1, 2, 1 << q)
    out = np.zeros_like(v)
    a0, a1 = v[:, 0, :], v[:, 1, :]
    if axis == "z":
        if sign > 0:
            out[:, 0, :] = a0
        else:
            out[:, 1, :] = a1
    elif axis == "x":
        # |x+-> = (|0> +- |1>)/sqrt(2)
        t = 0.5 * (a0 + sign * a1)
        out[:, 0, :] = t
        out[:, 1, :] = sign * t
    else:
        # |y+-> = (|0> +- i|1>)/sqrt(2)
        t = 0.5 * (a0 - 1j * sign * a1)
        out[:, 0, :] = t
        out[:, 1, :] = 1j * sign * t
    return out.reshape(amps.shape)


def apply_pauli_projector(state: StateVector, proj: ProjectorId) -> StateVector:
    """Project onto the +-1 eigenspace of a single-qubit Pauli operator.

    Returns the generally unnormalized projected vector; its squared norm is
    the Born probability of the corresponding outcome.
    """
    _check_qubit(state.n, proj.qubit)
    return StateVector(state.n, _project_amps(state.amps, proj.axis, proj.qubit, proj.sign))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product <a|b> = sum_j conj(a_j) b_j."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return complex(np.vdot(a.amps, b.amps))


def born_distribution(state: StateVector) -> np.ndarray:
    """Computational-basis outcome weights |a_j|^2, with no renormalization."""
    return state.amps.real**2 + state.amps.imag**2


# ---------------------------------------------------------------------------
# File format: {"n": int, "amps": [[re, im], ...], "normalized": bool}
# ---------------------------------------------------------------------------

def state_to_dict(state: StateVector) -> dict:
    return {
        "n": state.n,
        "amps": [[float(a.real), float(a.imag)] for a in state.amps],
        "normalized": bool(state.is_normalized),
    }


def state_from_dict(data: dict) -> StateVector:
    n = data["n"]
    amps = data["amps"]
    if len(amps) != (1 << n):
        raise ValueError(f"state file has {len(amps)} amplitudes, expected {1 << n} for n={n}")
    return StateVector(n, np.array([complex(re, im) for re, im in amps]))


def save_state(state: StateVector, path, provenance: dict | None = None):
    doc = state_to_dict(state)
    if provenance is not None:
        doc["provenance"] = provenance
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_state(path) -> StateVector:
    with open(path) as fh:
        return state_from_dict(json.load(fh))

