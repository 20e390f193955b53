"""Complex statevector storage and primitive qubit-local operations.

Conventions used everywhere in this package:

* A basis index ``j`` has binary expansion ``j_{n-1} ... j_1 j_0`` and qubit
  ``k`` owns bit weight ``2**k``, so qubit 0 is the least significant bit.
* Amplitude buffers are double-precision complex and frozen after
  construction; all operations return new values, which makes every type in
  this module safe to share across threads.
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

PAULI_AXES = ("x", "y", "z")
SIGNS = (1, -1)

#: A state counts as normalized when |sum |a_j|^2 - 1| is below this.
NORMALIZATION_ATOL = 1e-10


def _integer(value, what: str, minimum: int) -> int:
    """``value`` as an int. Raises ``ValueError("<what> >= <minimum>, got
    <value>")`` unless it is an int or a numpy integer, not a bool, of at
    least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{what} >= {minimum}, got {value!r}")
    return int(value)


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
        n = _integer(self.n, "qubit count must be an integer", 1)
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes for n={n}, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes (amps) must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "n", n)
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
        object.__setattr__(self, "qubit", _integer(self.qubit, "qubit index must be an integer", 0))
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


# ---------------------------------------------------------------------------
# File helpers shared by the state, dataset and calibration readers
# ---------------------------------------------------------------------------

_PAYLOAD_DTYPE = "<f8"


def _encode_array(values) -> dict:
    """JSON payload of a float64 array: its dtype, shape and the base64 of its
    little-endian bytes. Exact, and far cheaper than a list of JSON floats."""
    arr = np.ascontiguousarray(values, dtype=_PAYLOAD_DTYPE)
    return {
        "dtype": _PAYLOAD_DTYPE,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr).decode("ascii"),
    }


def _decode_array(value, where: str) -> np.ndarray:
    """Owned, writable float64 array from a payload object or from a plain
    JSON list of numbers, the form that older files hold."""
    if isinstance(value, list):
        try:
            arr = np.array(value)
        except ValueError:
            arr = None  # ragged nesting
        if arr is None or arr.dtype.kind not in "fiu":
            raise ValueError(f"{where} must be a list of numbers")
        return arr.astype(np.float64)
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a payload object or a list of numbers")
    if value.get("dtype") != _PAYLOAD_DTYPE:
        raise ValueError(f"{where}: dtype must be {_PAYLOAD_DTYPE!r}, got {value.get('dtype')!r}")
    shape = value.get("shape")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"{where}: shape must be a list of integers >= 0, got {shape!r}")
    try:
        raw = base64.b64decode(value.get("data"), validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: data is not valid base64 ({exc})") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(
            f"{where}: data holds {len(raw)} bytes, shape {shape} needs {8 * math.prod(shape)}"
        )
    return np.frombuffer(raw, dtype=_PAYLOAD_DTYPE).reshape(shape).astype(np.float64)


def _qubit_count(doc, where: str) -> int:
    """Check that a file document is a JSON object and return its ``n``,
    an integer >= 1 (a JSON ``true`` is not an integer here)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return _integer(doc.get("n"), f"{where}: n must be an integer", 1)


# ---------------------------------------------------------------------------
# File format: {"n": int, "amps": [[re, im], ...], "normalized": bool}
# ---------------------------------------------------------------------------

def state_to_dict(state: StateVector) -> dict:
    return {
        "n": state.n,
        "amps": [[float(a.real), float(a.imag)] for a in state.amps],
        "normalized": bool(state.is_normalized),
    }


def state_from_dict(data: dict, where: str = "state") -> StateVector:
    n = _qubit_count(data, where)
    pairs = _decode_array(data.get("amps"), f"{where}: amps")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"{where}: amps must be a list of [re, im] pairs")
    if len(pairs) != (1 << n):
        raise ValueError(
            f"{where}: amps holds {len(pairs)} amplitudes, expected {1 << n} for n={n}"
        )
    return StateVector(n, pairs.view(np.complex128)[:, 0])


def save_state(state: StateVector, path, provenance: dict | None = None):
    doc = state_to_dict(state)
    if provenance is not None:
        doc["provenance"] = provenance
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_state(path) -> StateVector:
    with open(path) as fh:
        return state_from_dict(json.load(fh), f"state file {path}")
