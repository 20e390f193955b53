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


def circuit_settings(n: int):
    """The 3n (axis, qubit) circuits in canonical order: axis x,y,z outer, qubit ascending."""
    return [(axis, q) for axis in PAULI_AXES for q in range(n)]


def projector_ids(n: int):
    """The 6n projectors as ``(axis, qubit, sign)`` in canonical order: the
    circuits of :func:`circuit_settings`, sign + before - within each. An
    n-qubit protocol records all of them (3n circuits, both signs each)."""
    return [(axis, q, sign) for axis, q in circuit_settings(n) for sign in SIGNS]


#: An eigenvector e of each (axis, sign) Pauli projector |e><e| / <e|e>: the
#: one place the axes are spelt. Unnormalized, so that every product with an
#: entry, and with its bra e^dagger / <e|e>, is exact.
_PAULI_EIGENVECTORS = {
    ("z", 1): np.array([1, 0], dtype=np.complex128),
    ("z", -1): np.array([0, 1], dtype=np.complex128),
    ("x", 1): np.array([1, 1], dtype=np.complex128),
    ("x", -1): np.array([1, -1], dtype=np.complex128),
    ("y", 1): np.array([1, 1j], dtype=np.complex128),
    ("y", -1): np.array([1, -1j], dtype=np.complex128),
}


def _pauli_bra_ket(axis: str, sign: int):
    """``(e^dagger / <e|e>, e)`` of the (axis, sign) Pauli projector, so that
    the projector is |ket><bra|."""
    e = _PAULI_EIGENVECTORS[axis, sign]
    return e.conj() / np.vdot(e, e).real, e


def _bra_on_qubit(amps: np.ndarray, q: int, bra: np.ndarray) -> np.ndarray:
    """<bra| applied to bit q of each row of ``amps``: an array of half the
    size, laid out for :func:`_ket_on_qubit`."""
    v = amps.reshape(-1, 2, 1 << q)
    return bra[0] * v[:, 0] + bra[1] * v[:, 1]


def _ket_on_qubit(ket: np.ndarray, c: np.ndarray, shape) -> np.ndarray:
    """|ket> on bit q tensored with the output ``c`` of :func:`_bra_on_qubit`,
    as an array of ``shape``."""
    return (ket[:, None] * c[:, None]).reshape(shape)


def _project_amps(amps: np.ndarray, axis: str, q: int, sign: int) -> np.ndarray:
    """Matrix-free application of the rank-1 Pauli eigenprojector on bit q,
    tensored with identity elsewhere. O(2**n), returns a new array."""
    bra, ket = _pauli_bra_ket(axis, sign)
    return _ket_on_qubit(ket, _bra_on_qubit(amps, q, bra), amps.shape)


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


def _inflate_into(data: bytes, dest: np.ndarray, field: str) -> int:
    """Inflate the zlib stream ``data`` into the uint8 array ``dest`` and
    return the stream's length in bytes; bytes past ``dest`` are counted, not
    kept. Raises a ``ValueError`` that names ``field`` for data that is no
    zlib stream, ends early or is followed by other bytes."""
    stream, view = zlib.decompressobj(), memoryview(data)
    total = fed = 0
    pending = b""
    try:
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
    except zlib.error as exc:
        raise ValueError(f"{field}: data is not a valid zlib stream ({exc})") from None
    return total


#: Most bytes one byte of a deflate stream inflates to (zlib FAQ): a length
#: 258 match in two bits.
_MAX_INFLATE_RATIO = 1032


def _check_length(length: int, shape: list, field: str):
    """Refuse ``length`` bytes of data unless they fill ``shape`` exactly."""
    needed = 8 * math.prod(shape)
    if length != needed:
        raise ValueError(f"{field}: data holds {length} bytes, shape {shape} needs {needed}")


def _check_payload(value: dict, field: str, size: int | None = None):
    """The ``(shape, raw data bytes, encoding)`` of the payload object
    ``value``, checked as far as they can be before its array is allocated.

    ``size`` is the entry count the reader expects: a shape that declares
    more is refused, and so is data that cannot fill the shape (raw bytes of
    another length, or a zlib stream too short to inflate to it, which is
    only inflated to count it). Every ``ValueError`` names ``field``."""
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
    if encoding is None:
        _check_length(len(raw), shape, field)
    elif 8 * count > _MAX_INFLATE_RATIO * len(raw):
        _check_length(_inflate_into(raw, np.empty(0, np.uint8), field), shape, field)
    return shape, raw, encoding


def _decode_array(value, field: str, size: int | None = None) -> np.ndarray:
    """Owned, writable, C-contiguous float64 array from a payload object or
    from a plain JSON list of numbers, the form that older files hold. A
    payload without ``encoding`` holds the raw bytes, as older files do.

    A payload passes :func:`_check_payload` with ``size`` before its buffer
    is allocated. A smaller shape decodes, and the length check of the value
    built from it names it."""
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
    shape, raw, encoding = _check_payload(value, field, size)
    if encoding is None:
        out = np.frombuffer(raw, _PAYLOAD_DTYPE).reshape(shape).copy()
    else:
        out = np.empty(shape, dtype=_PAYLOAD_DTYPE)
        _check_length(_inflate_into(raw, out.reshape(-1).view(np.uint8), field), shape, field)
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


#: Most qubits a file may declare. A state's payload holds 2^(n+1) float64
#: entries, 2^(n+4) bytes, and numpy holds no array of 2^63 bytes or more;
#: the dataset and calibration payloads of an n are larger still.
_MAX_FILE_QUBITS = 58


def _qubit_count(doc) -> int:
    """The ``n`` of a JSON-object document: an integer from 1 to
    ``_MAX_FILE_QUBITS`` (``true`` is not), checked before anything of a
    size that grows with n is built."""
    n = _integer(_json_object(doc).get("n"), "n must be an integer", 1)
    if n > _MAX_FILE_QUBITS:
        raise ValueError(f"n must be at most {_MAX_FILE_QUBITS}: no larger state fits a numpy array")
    return n


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
