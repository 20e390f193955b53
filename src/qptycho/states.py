"""Complex statevector storage and primitive qubit-local operations.

Conventions used everywhere in this package:

* A basis index ``j`` has binary expansion ``j_{n-1} ... j_1 j_0`` and qubit
  ``k`` owns bit weight ``2**k``, so qubit 0 is the least significant bit.
* Amplitude buffers are double-precision complex. A ``StateVector`` is
  frozen after construction, which makes every type in this module safe to
  share across threads. The Pauli projection kernels ``_bras_on_qubit`` and
  ``_kets_on_qubit`` write into ``out=`` buffers that their caller owns;
  ``_project_amps`` allocates its own and returns a new array.
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


def _integers(values, field: str, minimum: int, check=_integer) -> tuple:
    """``values``, a non-empty iterable such as a list, tuple or numpy array,
    as a tuple of ints, each from ``check(value, what="<field> must hold
    integers", minimum=minimum)``. A str, bytes, a non-iterable or an empty
    iterable raises a ``ValueError`` that names ``field``."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        raise ValueError(f"{field} must be a sequence of integers, got {values!r}")
    checked = tuple(check(v, what=f"{field} must hold integers", minimum=minimum) for v in values)
    if not checked:
        raise ValueError(f"{field} must be non-empty")
    return checked


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


def _pauli_bras_kets(axis: str):
    """The bras and kets of both sign projectors |ket><bra| of an axis, as
    two 2x2 arrays whose row s is sign ``SIGNS[s]``: the eigenvector e and
    e^dagger / <e|e>."""
    kets = np.array([_PAULI_EIGENVECTORS[axis, sign] for sign in SIGNS])
    return np.array([e.conj() / np.vdot(e, e).real for e in kets]), kets


def _bras_on_qubit(bras, x, out, scratch):
    """out[s] = <bras[s]| applied to bit q of ``x``, a ``(..., 2, 2^q)``
    view, for both signs; ``scratch`` is a buffer of ``out``'s shape."""
    np.multiply(bras[:, 0, None, None], x[..., 0, :], out=out)
    np.multiply(bras[:, 1, None, None], x[..., 1, :], out=scratch)
    np.add(out, scratch, out=out)


def _kets_on_qubit(kets, c, out):
    """out[s] = |kets[s]> on bit q tensored with c[s], the output of
    :func:`_bras_on_qubit`, in the sign-major stack ``out``: one multiply
    per value of bit q, so the loops run over c even at q = 0."""
    halves = out.reshape(c.shape[:2] + (2, -1))
    np.multiply(kets[:, 0, None, None], c, out=halves[..., 0, :])
    np.multiply(kets[:, 1, None, None], c, out=halves[..., 1, :])


def _project_amps(amps: np.ndarray, axis: str, q: int) -> np.ndarray:
    """Both sign projections of the Pauli circuit (axis, q): the sign-major
    ``(2, *amps.shape)`` stack whose row s is the rank-1 projector of sign
    ``SIGNS[s]`` on bit q, tensored with identity elsewhere, applied to
    ``amps``. Matrix-free, O(2**n); returns a new array."""
    bras, kets = _pauli_bras_kets(axis)
    low = 1 << q
    stack = np.empty((2, *amps.shape), np.complex128)
    c = np.empty((2, amps.size // (2 * low), low), np.complex128)
    # The stack holds nothing yet, so half of it is the bras' scratch.
    _bras_on_qubit(bras, amps.reshape(-1, 2, low), c, stack.reshape(2, *c.shape)[0])
    _kets_on_qubit(kets, c, stack)
    return stack


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


def _check_payload(value, field: str, shape: list) -> bytes:
    """The compressed data bytes of ``value``, an array payload that must
    declare exactly ``shape``, checked as far as they can be before its
    array is allocated: the object, its dtype, shape and encoding before
    the base64 is decoded, and then a zlib stream too short to inflate to
    the shape, which is only inflated to count it. Every ``ValueError``
    names ``field``."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a zlib array payload object, got {type(value).__name__}")
    if value.get("dtype") != _PAYLOAD_DTYPE:
        raise ValueError(f"{field}: dtype must be {_PAYLOAD_DTYPE!r}, got {value.get('dtype')!r}")
    declared = value.get("shape")
    if not (isinstance(declared, list) and all(type(d) is int for d in declared) and declared == shape):
        raise ValueError(f"{field}: shape must be {shape}, got {declared!r}")
    if value.get("encoding") != "zlib":
        raise ValueError(f"{field}: encoding must be 'zlib', got {value.get('encoding')!r}")
    try:
        raw = base64.b64decode(value.get("data"), validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: data is not valid base64 ({exc})") from None
    if 8 * math.prod(shape) > _MAX_INFLATE_RATIO * len(raw):
        _check_length(_inflate_into(raw, np.empty(0, np.uint8), field), shape, field)
    return raw


def _fill_payload(raw: bytes, out: np.ndarray, field: str):
    """Inflate the bytes that :func:`_check_payload` returned into ``out``, a
    C-contiguous ``_PAYLOAD_DTYPE`` array of the payload's shape."""
    _check_length(_inflate_into(raw, out.reshape(-1).view(np.uint8), field), list(out.shape), field)


def _decode_array(value, field: str, shape: list) -> np.ndarray:
    """Owned, writable, C-contiguous float64 array of ``shape`` from the array
    payload ``value``, which passes :func:`_check_payload` before its buffer
    is allocated."""
    raw = _check_payload(value, field, shape)
    out = np.empty(shape, dtype=_PAYLOAD_DTYPE)
    _fill_payload(raw, out, field)
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


#: Most qubits a file may declare. A state holds 2^n complex amplitudes,
#: 2^(n+4) bytes, and numpy holds no array of 2^63 bytes or more; the
#: dataset and calibration payloads of an n are larger still.
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
    amps, pairs = data.get("amps"), None
    if isinstance(amps, list):
        try:
            pairs = np.array(amps)
        except ValueError:
            pass  # ragged nesting
    if pairs is None or pairs.dtype.kind not in "fiu" or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("amps must be a list of [re, im] pairs of numbers")
    return StateVector(n, pairs.astype(np.float64).view(np.complex128)[:, 0])


def save_state(state: StateVector, path, provenance: dict | None = None):
    doc = state_to_dict(state)
    if provenance is not None:
        doc["provenance"] = provenance
    _write_json(doc, path)


def load_state(path) -> StateVector:
    return _load(path, "state", state_from_dict)
