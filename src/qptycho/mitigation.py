"""Readout-error model and calibration-matrix mitigation.

Readout noise is modeled per measured bit by a 2x2 column-stochastic
confusion matrix C with C[i][j] = p(read i | prepared j); independent bits
combine as a tensor product. Mitigation estimates the matrices M1 (mid-circuit
bit) and Mn (register) from simulated calibration circuits and inverts
M1 (x) Mn through its factors, never forming the 2^(n+1)-square product.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .seeding import shot_count, shot_streams
from .states import (
    _decode_array, _encode_array, _integer, _load, _qubit_count, _real, _write_json,
)
from .transforms import _apply_gates_amps

#: Refuse to mitigate through a calibration matrix worse-conditioned than this.
MAX_CONDITION_NUMBER = 1e12


def _check_confusion(mat: np.ndarray):
    if mat.shape != (2, 2):
        raise ValueError(f"confusion matrix must be 2x2, got {mat.shape}")
    if np.any(mat < -1e-12) or np.any(mat > 1 + 1e-12):
        raise ValueError("confusion matrix entries must lie in [0, 1]")
    if not np.allclose(mat.sum(axis=0), 1.0, atol=1e-9):
        raise ValueError("confusion matrix columns must each sum to 1")


@dataclass(frozen=True)
class ReadoutNoiseModel:
    """Independent per-bit readout channel over k measured bits.

    ``bit_confusions[i]`` acts on the outcome bit of weight 2**i; for the
    ptychographic layout bits 0..n-1 are the final register and bit n is the
    intermediate measurement. Each matrix is kept with its columns divided by
    their sums, so they sum to 1 within rounding.
    """

    bit_confusions: tuple
    label: str | None = None

    def __post_init__(self):
        mats = []
        for mat in self.bit_confusions:
            mat = np.array(mat, dtype=np.float64)
            _check_confusion(mat)
            # Sums 1e-9 from 1 would compound over n+1 bits past the protocol's sum
            # checks. fl(fl(1 - p) + p) is exactly 1: a (1 - p, p) column stays.
            mat = mat / mat.sum(axis=0)
            mat.flags.writeable = False
            mats.append(mat)
        if not mats:
            raise ValueError("noise model needs at least one bit")
        object.__setattr__(self, "bit_confusions", tuple(mats))

    @property
    def num_bits(self) -> int:
        return len(self.bit_confusions)

    @classmethod
    def identity(cls, num_bits: int, label: str | None = None) -> "ReadoutNoiseModel":
        return cls(tuple(np.eye(2) for _ in range(num_bits)), label=label or "identity")

    @classmethod
    def symmetric(cls, num_bits: int, flip_prob: float, label: str | None = None):
        """Same symmetric bit-flip probability on every measured bit."""
        if not (_real(flip_prob) and 0.0 <= flip_prob <= 1.0):
            raise ValueError(f"flip probability must be in [0, 1], got {flip_prob!r}")
        c = np.array([[1 - flip_prob, flip_prob], [flip_prob, 1 - flip_prob]])
        return cls(
            tuple(c for _ in range(num_bits)),
            label=label or f"symmetric-{flip_prob:g}",
        )

    @classmethod
    def from_flip_probabilities(cls, p_read1_given0, p_read0_given1, label=None):
        """Asymmetric per-bit model from p(1|0) and p(0|1) lists (bit 0 first)."""
        if len(p_read1_given0) != len(p_read0_given1):
            raise ValueError("flip probability lists must have equal length")
        for name, probs in (("p_read1_given0", p_read1_given0), ("p_read0_given1", p_read0_given1)):
            for i, p in enumerate(probs):
                if not (_real(p) and 0.0 <= p <= 1.0):
                    raise ValueError(f"{name}[{i}]: flip probability must be in [0, 1], got {p!r}")
        mats = [
            np.array([[1 - e10, e01], [e10, 1 - e01]])
            for e10, e01 in zip(p_read1_given0, p_read0_given1)
        ]
        return cls(tuple(mats), label=label)


def corrupt_counts(p: np.ndarray, model: ReadoutNoiseModel) -> np.ndarray:
    """Push a distribution (or count vector) through the independent-bit
    channel: each bit's confusion matrix through the per-qubit kernel."""
    p = np.asarray(p, dtype=np.float64)
    k = model.num_bits
    if p.shape != (1 << k,):
        raise ValueError(f"expected a length-{1 << k} vector for {k} bits, got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("distribution p must be finite")
    return _apply_gates_amps(p, model.bit_confusions)


def _refuse(self, *args, **kwargs):
    raise TypeError("provenance is read-only")


class _ReadOnlyDict(dict):
    """A dict that refuses every change; it still equals a dict, and ``json`` writes it as one."""

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # copy and pickle rebuild it whole, not key by key
        return type(self), (dict(self),)


class _ReadOnlyList(list):
    """A list that refuses every change; it still equals a list, and ``json`` writes it as one."""

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):
        return type(self), (list(self),)


def _read_only(value):
    """``value`` with each dict and list in it, nested ones included, a read-only copy."""
    if isinstance(value, Mapping):
        return _ReadOnlyDict({key: _read_only(item) for key, item in value.items()})
    if isinstance(value, list):
        return _ReadOnlyList(map(_read_only, value))
    return value


@dataclass(frozen=True)
class CalibrationMatrix:
    """Estimated confusion matrices for the protocol's n+1 measured bits.

    ``intermediate`` is the 2x2 matrix M1 of the mid-circuit bit, ``register``
    the 2^n x 2^n matrix Mn of the final register; they model the channel
    M1 (x) Mn, intermediate bit most significant. Its singular values are
    products of the factors', so cond(M1 (x) Mn) = cond(M1) * cond(Mn).

    Both are read-only views of float64 inputs, not copies: at n=12 Mn alone
    holds 128 MB. Other dtypes are converted. ``provenance``, a mapping or
    None, is kept as a read-only copy, its nested dicts and lists included.
    """

    intermediate: np.ndarray
    register: np.ndarray
    provenance: Mapping | None = None

    def __post_init__(self):
        for name in ("intermediate", "register"):
            mat = np.asarray(getattr(self, name), dtype=np.float64).view()
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} calibration matrix holds non-finite entries")
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)
        if self.intermediate.shape != (2, 2):
            raise ValueError("intermediate calibration matrix must be 2x2")
        dim = self.register.shape[0]
        if self.register.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
            raise ValueError("register calibration matrix must be square with 2^n rows")
        provenance = self.provenance
        if provenance is not None and not isinstance(provenance, Mapping):
            raise ValueError(f"provenance must be an object or null, got {type(provenance).__name__}")
        if provenance is not None:
            object.__setattr__(self, "provenance", _read_only(provenance))

    @property
    def n(self) -> int:
        return int(self.register.shape[0]).bit_length() - 1

    @cached_property
    def condition_number(self) -> float:
        return float(np.linalg.cond(self.intermediate) * np.linalg.cond(self.register))


def build_calibration(n: int, model: ReadoutNoiseModel, shots: int, seed=None) -> CalibrationMatrix:
    """Estimate calibration matrices by simulating the basis-state circuits.

    Each of the 2^n register circuits (and the 2 intermediate-bit circuits)
    prepares a basis state, corrupts it with the model, and samples ``shots``
    outcomes; the normalized histograms form matrix columns. ``shots = 0``
    stores the exact channel columns instead, and without a seed draws no
    entropy and records ``seed = None``.
    """
    n = _integer(n, "qubit count must be an integer", 1)
    if model.num_bits != n + 1:
        raise ValueError(f"model covers {model.num_bits} bits, expected {n + 1}")
    shots = shot_count(shots)
    streams, entropy = shot_streams(seed, shots, (1 << n) + 2)
    children = iter(streams)

    def estimated_matrix(bits) -> np.ndarray:
        # Exact channel: the Kronecker product of the bits' confusion
        # matrices, highest bit leftmost, multiplied in corrupt_counts' order.
        mats = [model.bit_confusions[i] for i in bits]
        mat = reduce(lambda acc, c: np.kron(c, acc), mats, np.ones((1, 1)))
        if shots == 0:
            return mat
        for j in range(mat.shape[1]):  # column j: basis state j through the channel
            exact = mat[:, j]
            counts = np.random.default_rng(next(children)).multinomial(shots, exact / exact.sum())
            mat[:, j] = counts / shots
        return mat

    register = estimated_matrix(range(n))  # spends the first 2^n seed children
    intermediate = estimated_matrix([n])
    provenance = {"model_id": model.label, "shots": shots, "seed": entropy}
    return CalibrationMatrix(intermediate, register, provenance)


#: Entries in the buffer through which ``_neumann_terms`` reads Mn's rows.
_ROW_BLOCK = 1 << 15


def _neumann_terms(mat: np.ndarray) -> tuple[float, float]:
    """q = ||I - Mn||_1 and ||Mn||_1, read through one buffer of a few rows
    instead of a full-size ``np.abs(mat)``. Each block's first row takes the
    running column sums, so the rows are added in the order that
    ``np.abs(mat).sum(axis=0)`` adds them, and the result is the same bit for
    bit."""
    dim, cols = mat.shape
    rows = max(1, _ROW_BLOCK // cols)
    buf = np.empty((min(rows, dim), cols))
    col = None
    for start in range(0, dim, rows):
        block = np.abs(mat[start : start + rows], out=buf[: min(rows, dim - start)])
        if col is not None:
            block[0] += col
        col = np.add.reduce(block, axis=0)
    diag = np.diag(mat)
    return float(np.max(col - np.abs(diag) + np.abs(1 - diag))), float(col.max())


def _condition_bound(cal: CalibrationMatrix) -> float:
    """Upper bound on ``cal.condition_number`` in O(4^n), without an SVD.

    With q = ||I - Mn||_1 < 1 the Neumann series gives ||Mn^-1||_1 <= 1/(1 - q),
    and cond_2 <= N cond_1 for an N x N matrix, so cond(Mn) <= N ||Mn||_1 / (1 - q).
    Returns inf when q >= 1 (or overflows), where the series proves nothing.
    """
    with np.errstate(all="ignore"):  # huge entries overflow to an inf q: no bound
        q, norm = _neumann_terms(cal.register)
    if not q < 1:
        return np.inf
    return float(np.linalg.cond(cal.intermediate)) * cal.register.shape[0] * norm / (1 - q)


def mitigate(record: np.ndarray, cal: CalibrationMatrix) -> np.ndarray:
    """Invert the readout channel on joint count vectors of shape (..., 2^(n+1)).

    Solves (M1 (x) Mn) x = record for all of them at once: one solve against
    Mn with every register block as a right-hand side, then M1 on the sign
    axis. The result may contain negative entries and preserves the total count.
    """
    record = np.asarray(record, dtype=np.float64)
    dim = cal.register.shape[0]
    if record.ndim == 0 or record.shape[-1] != 2 * dim:
        raise ValueError(f"record shape {record.shape} does not match calibration n={cal.n}")
    if not np.all(np.isfinite(record)):
        raise ValueError("record counts must be finite")
    # The bound (2x margin for rounding) spares the SVD; the exact value decides the rest.
    certified = _condition_bound(cal) <= MAX_CONDITION_NUMBER / 2
    if not certified and not cal.condition_number <= MAX_CONDITION_NUMBER:  # NaN fails too
        raise np.linalg.LinAlgError(
            f"calibration matrix condition number {cal.condition_number:.3g} exceeds "
            f"{MAX_CONDITION_NUMBER:g}; re-calibrate with more shots"
        )
    blocks = record.reshape(-1, dim).T  # one column per (record, sign)
    solved = np.linalg.solve(cal.register, blocks).T.reshape(-1, 2, dim)
    return np.linalg.solve(cal.intermediate, solved).reshape(record.shape)


# ---------------------------------------------------------------------------
# File format: {"n", "M1": 2x2, "Mn": 2^n x 2^n (array payloads), "provenance"}
# ---------------------------------------------------------------------------

def save_calibration(cal: CalibrationMatrix, path):
    doc = {
        "n": cal.n,
        "M1": _encode_array(cal.intermediate),
        "Mn": _encode_array(cal.register),
        "provenance": cal.provenance,
    }
    _write_json(doc, path)


def calibration_from_dict(doc: dict) -> CalibrationMatrix:
    """Inverse of the document :func:`save_calibration` writes."""
    n = _qubit_count(doc)
    entries = {}
    for key, size in (("M1", 4), ("Mn", 4**n)):
        values = _decode_array(doc.get(key), key, size).ravel()
        if values.size != size:
            raise ValueError(f"{key} has {values.size} entries, expected {size} for n={n}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{key} holds non-finite entries")
        entries[key] = values
    return CalibrationMatrix(
        entries["M1"].reshape(2, 2),
        entries["Mn"].reshape(1 << n, 1 << n),
        doc.get("provenance"),
    )


def load_calibration(path) -> CalibrationMatrix:
    return _load(path, "calibration", calibration_from_dict)
