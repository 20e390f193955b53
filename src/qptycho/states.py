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
import csv
import json
import math
import numbers
import zlib
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


def _real(value) -> bool:
    """Whether ``value`` is a real number (a numpy float counts) and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
    def is_normalized(self) -> bool:
        # Finite amplitudes near 1e308 overflow the sum to inf, which is rightly not normalized.
        with np.errstate(over="ignore"):
            total = float(np.sum(self.amps.real**2 + self.amps.imag**2))
        return abs(total - 1.0) < NORMALIZATION_ATOL


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


def circuit_settings(n: int):
    """The 3n (axis, qubit) circuits in canonical order: axis x,y,z outer, qubit ascending."""
    return [(axis, q) for axis in PAULI_AXES for q in range(n)]


def projector_ids(n: int):
    """The 6n projector labels in canonical order: the circuits of
    :func:`circuit_settings`, sign + before - within each."""
    return [ProjectorId(axis, q, sign) for axis, q in circuit_settings(n) for sign in SIGNS]


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
    zlib-compressed little-endian bytes. Exact, and far smaller than a list of
    JSON floats; level 1 because a sampled calibration matrix, mostly zeros,
    gains little from a higher level and costs twice the time."""
    arr = np.ascontiguousarray(values, dtype=_PAYLOAD_DTYPE)
    return {
        "dtype": _PAYLOAD_DTYPE,
        "shape": list(arr.shape),
        "encoding": "zlib",
        "data": base64.b64encode(zlib.compress(arr, 1)).decode("ascii"),
    }


#: Bytes inflated, and compressed bytes fed, per step. Each step's output is
#: copied into the result and dropped, so a payload costs its array plus one
#: step, not the array twice; feeding the input in steps too keeps zlib's
#: ``unconsumed_tail`` copy of the rest of it to one step.
_INFLATE_STEP = 1 << 16


def _inflate_into(data: bytes, dest: np.ndarray) -> int:
    """Inflate the zlib stream ``data`` into the uint8 array ``dest`` and
    return the stream's length in bytes; bytes past ``dest`` are counted, not
    kept. Raises ``zlib.error`` for a stream that ends early or is followed by
    other bytes."""
    stream, view = zlib.decompressobj(), memoryview(data)
    total = fed = 0
    pending = b""
    while True:
        if not pending:
            pending = view[fed : fed + _INFLATE_STEP]
            fed += len(pending)
        chunk = stream.decompress(pending, _INFLATE_STEP)
        pending = stream.unconsumed_tail
        keep = min(len(chunk), dest.size - total)
        if keep > 0:
            dest[total : total + keep] = np.frombuffer(chunk, np.uint8, keep)
        total += len(chunk)
        if stream.eof:
            break
        if not chunk and not pending and fed == len(view):
            raise zlib.error("the stream ends early")
    trailing = len(stream.unused_data) + len(view) - fed
    if trailing:
        raise zlib.error(f"{trailing} bytes follow the end of the stream")
    return total


def _decode_array(value, field: str, size: int | None = None) -> np.ndarray:
    """Owned, writable, C-contiguous float64 array from a payload object or
    from a plain JSON list of numbers, the form that older files hold. A
    payload without ``encoding`` holds the raw bytes, as older files do.

    ``size`` is the entry count the reader expects: a payload whose shape
    declares more is refused before its buffer is allocated. A smaller one
    decodes, and the length check of the value built from it names it."""
    if isinstance(value, list):
        try:
            arr = np.array(value)
        except ValueError:
            arr = None  # ragged nesting
        if arr is None or arr.dtype.kind not in "fiu":
            raise ValueError(f"{field} must be a list of numbers")
        return arr.astype(np.float64)
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a payload object or a list of numbers")
    if value.get("dtype") != _PAYLOAD_DTYPE:
        raise ValueError(f"{field}: dtype must be {_PAYLOAD_DTYPE!r}, got {value.get('dtype')!r}")
    shape = value.get("shape")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"{field}: shape must be a list of integers >= 0, got {shape!r}")
    count = math.prod(shape)
    if size is not None and count > size:
        raise ValueError(f"{field}: shape {shape} declares {count} entries, expected {size}")
    encoding = value.get("encoding")
    if encoding not in (None, "zlib"):
        raise ValueError(f"{field}: encoding must be 'zlib' or absent, got {encoding!r}")
    try:
        raw = base64.b64decode(value.get("data"), validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: data is not valid base64 ({exc})") from None
    out = np.empty(shape, dtype=_PAYLOAD_DTYPE)
    dest = out.reshape(-1).view(np.uint8)
    if encoding == "zlib":
        try:
            length = _inflate_into(raw, dest)
        except zlib.error as exc:
            raise ValueError(f"{field}: data is not a valid zlib stream ({exc})") from None
    else:
        length = len(raw)
        if length == dest.size:
            dest[:] = np.frombuffer(raw, np.uint8)
    if length != dest.size:
        raise ValueError(f"{field}: data holds {length} bytes, shape {shape} needs {dest.size}")
    return out.astype(np.float64, copy=False)  # a copy only where float64 is big-endian


def _write_json(doc: dict, path):
    """Write ``doc`` to ``path`` as indented JSON and a final newline, the
    form of every file the package writes."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    """Write ``header`` and then ``rows`` to ``path`` as CSV, the form of every
    table the package writes. ``None`` becomes an empty field and a float
    its full ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _json_object(doc) -> dict:
    """``doc`` if it is a JSON object (a dict)."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def _qubit_count(doc) -> int:
    """The ``n`` of a JSON-object document: an integer >= 1 (``true`` is not)."""
    return _integer(_json_object(doc).get("n"), "n must be an integer", 1)


def _load(path, kind: str, from_dict):
    """``from_dict`` of the JSON document in the file ``path``: the one reader
    of every file the package reads. Any ``ValueError`` on the way, a JSON
    syntax error or a check of the built value included, is raised again as
    ``"<kind> file <path>: <message>"``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{kind} file {path}: {exc}") from None


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
    n = _qubit_count(data)
    pairs = _decode_array(data.get("amps"), "amps", 2 << n)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("amps must be a list of [re, im] pairs")
    return StateVector(n, pairs.view(np.complex128)[:, 0])


def save_state(state: StateVector, path, provenance: dict | None = None):
    doc = state_to_dict(state)
    if provenance is not None:
        doc["provenance"] = provenance
    _write_json(doc, path)


def load_state(path) -> StateVector:
    return _load(path, "state", state_from_dict)
