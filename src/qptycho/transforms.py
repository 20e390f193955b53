"""Final-measurement unitaries and their adjoints.

Four families are supported: the full Fourier transform on basis indices,
its degree-m approximation, the Hadamard transform, and per-qubit random
unitaries. All are defined as index-space sums, so there is no swap or
bit-reversal ambiguity; fast realizations (FFT, per-qubit kernels) are used
where they agree with the dense definition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import _integer

KINDS = ("qft", "aqft", "hadamard", "separable")

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit unitary e^{i(phi+lam)/2} Rz(phi) Ry(theta) Rz(lam).

    The phase convention puts a real cos(theta/2) in the top-left entry:
    [[c, -s e^{i lam}], [s e^{i phi}, c e^{i(phi+lam)}]].
    """
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -s * np.exp(1j * lam)],
            [s * np.exp(1j * phi), c * np.exp(1j * (phi + lam))],
        ],
        dtype=np.complex128,
    )


# ---------------------------------------------------------------------------
# Kernels on raw amplitude arrays
# ---------------------------------------------------------------------------

# Every kernel acts on the trailing axis, so a (R, 2^n) array of R states is
# transformed row by row in one call.

def _qft_amps(amps: np.ndarray, adjoint: bool) -> np.ndarray:
    # Forward is out_j = 2^{-n/2} sum_k e^{+2 pi i jk / 2^n} in_k, which is the
    # orthonormal inverse DFT; the FFT realizes it in O(n 2^n).
    if adjoint:
        return np.fft.fft(amps, axis=-1, norm="ortho")
    return np.fft.ifft(amps, axis=-1, norm="ortho")


# Entries per row block of the AQFT build. One int64 index block of this size
# is the only temporary of the build besides the small tables.
_AQFT_BLOCK = 1 << 16


@lru_cache(maxsize=2, typed=True)
def aqft_matrix(n: int, m: int) -> np.ndarray:
    """Dense degree-m approximate transform.

    Entry (j, k) is 2^{-n/2} e^{2 pi i Y_jk / 2^n} with
    Y_jk = sum over bit pairs (a, b), n-m <= a+b <= n-1, of j_a k_b 2^{a+b}.
    Exponents are reduced mod 2^n before exponentiation so that m = n is
    bit-for-bit the plain Fourier matrix. Each entry is copied from a table
    of the 2^n distinct phases, a block of rows at a time, so the build
    peaks at the 16 * 4^n-byte result plus one 2^16-entry block. Cached for
    the last two (n, m), frozen.
    """
    n = _integer(n, "aqft qubit count must be an integer", 1)
    m = _integer(m, "aqft degree must be an integer", 1)
    if not m <= n:
        raise ValueError(f"approximation degree must satisfy 1 <= m <= n, got m={m}, n={n}")
    dim = 1 << n
    # Every entry is one of these dim phases. Keep this operation order:
    # another, such as 2j * pi * y / dim, rounds differently, and the engine
    # amplifies that into its rounding-pinned results.
    table = np.exp((2j * np.pi / dim) * np.arange(dim)) / math.sqrt(dim)
    # Y_jk = sum_a j_a ((k & mask_a) << a), mask_a keeping bits n-m-a..n-1-a.
    k = np.arange(dim)
    terms = np.stack([(k & ((1 << (n - a)) - (1 << max(0, n - m - a)))) << a
                      for a in range(n)])  # [n, dim]
    bits = (k[:, None] >> np.arange(n)[None, :]) & 1  # [dim, n]
    mat = np.empty((dim, dim), dtype=np.complex128)
    step = max(1, _AQFT_BLOCK >> n)
    for lo in range(0, dim, step):
        rows = slice(lo, lo + step)
        # mode="wrap" takes the exact int64 sum mod dim and needs no buffer.
        np.take(table, bits[rows] @ terms, out=mat[rows], mode="wrap")
    mat.flags.writeable = False
    return mat


def _aqft_amps(amps: np.ndarray, n: int, m: int, adjoint: bool) -> np.ndarray:
    # Each state is a (1, 2^n) row times the matrix: numpy then runs one
    # matrix-vector product per state, so a batched state rounds exactly as a
    # lone one (a matrix-matrix product would round differently, and the
    # engine amplifies that). The adjoint conj(mat).T @ x is taken as
    # conj(conj(x) @ mat), which copies no matrix. mat equals its transpose
    # exactly, as its phase is symmetric in (j, k), yet x @ mat.T and x @ mat
    # round differently, so the transpose stays to keep the forward's rounding.
    mat = aqft_matrix(n, m)
    rows = amps[..., None, :]
    if adjoint:
        return np.conj(np.conj(rows) @ mat)[..., 0, :]
    return (rows @ mat.T)[..., 0, :]


def _apply_gates_amps(amps: np.ndarray, gates) -> np.ndarray:
    """Apply ``gates[q]``, a 2x2 matrix, to qubit q for every q, qubit 0 first.

    Perfect-shuffle kernel (Davio, IEEE Trans. Computers C-30, 116 (1981)):
    each gate reads bit 0 through a (-1, 2^(n-1), 2) view and writes its
    result as (-1, 2, 2^(n-1)), which moves that bit to the top, so after all
    n gates every bit is back in place. Each output is still
    g[r,0]*v0 + g[r,1]*v1, so it rounds exactly as a gate applied in place.
    """
    half = amps.shape[-1] >> 1
    for g in gates:
        v = amps.reshape(-1, half, 2)
        out = g[:, 0, None] * v[:, None, :, 0]
        out += g[:, 1, None] * v[:, None, :, 1]
        amps = out.reshape(amps.shape)
    return amps


@lru_cache(maxsize=64)
def _separable_gates(angles: tuple, adjoint: bool) -> tuple:
    """The per-qubit u3 matrices of a separable spec, or their adjoints."""
    gates = tuple(u3_matrix(*t).conj().T if adjoint else u3_matrix(*t) for t in angles)
    for g in gates:
        g.flags.writeable = False  # shared between calls
    return gates


def _angle(value) -> float:
    """A finite angle in radians; TypeError for anything else (a bool too)."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise TypeError(f"not a finite angle: {value!r}")
    return float(value)


def _haar_u3_angles(n: int, rng) -> list:
    """n Haar-random (theta, phi, lam) triples: cos(theta) uniform on [-1, 1],
    phi and lam uniform on [0, 2 pi), drawn qubit by qubit."""
    rng = np.random.default_rng(rng)
    angles = []
    for _ in range(n):
        theta = math.acos(1.0 - 2.0 * rng.random())
        phi, lam = rng.uniform(0.0, 2.0 * math.pi, size=2)
        angles.append((theta, float(phi), float(lam)))
    return angles


@dataclass(frozen=True)
class UnitarySpec:
    """Which final-measurement unitary a protocol uses.

    ``kind`` is one of "qft", "aqft", "hadamard", "separable". AQFT carries
    its degree ``m``; the separable kind carries one (theta, phi, lam) triple
    per qubit, in radians.
    """

    kind: str
    m: int | None = None
    angles: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "aqft":
            object.__setattr__(self, "m", _integer(self.m, "aqft requires an integer degree m", 1))
        elif self.m is not None:
            raise ValueError(f"degree m is only valid for aqft, not {self.kind!r}")
        if self.kind == "separable":
            if not self.angles:
                raise ValueError("separable requires one angle triple per qubit")
            try:
                angles = tuple(tuple(_angle(a) for a in triple) for triple in self.angles)
            except TypeError:
                raise ValueError(
                    f"separable angles must be (theta, phi, lam) triples of finite numbers, "
                    f"got {self.angles!r}"
                ) from None
            if any(len(triple) != 3 for triple in angles):
                raise ValueError("each separable angle entry must be a (theta, phi, lam) triple")
            object.__setattr__(self, "angles", angles)
        elif self.angles is not None:
            raise ValueError(f"angles are only valid for separable, not {self.kind!r}")

    @classmethod
    def qft(cls) -> "UnitarySpec":
        return cls("qft")

    @classmethod
    def aqft(cls, m: int) -> "UnitarySpec":
        return cls("aqft", m=m)

    @classmethod
    def hadamard(cls) -> "UnitarySpec":
        return cls("hadamard")

    @classmethod
    def separable(cls, angles) -> "UnitarySpec":
        return cls("separable", angles=tuple(tuple(t) for t in angles))

    @classmethod
    def random_separable(cls, n: int, rng) -> "UnitarySpec":
        """Haar-random per-qubit unitaries: cos(theta) uniform, phases uniform."""
        return cls.separable(_haar_u3_angles(n, rng))

    def validate_for(self, n: int):
        if self.kind == "aqft" and not self.m <= n:
            raise ValueError(f"aqft degree m={self.m} exceeds qubit count n={n}")
        if self.kind == "separable" and len(self.angles) != n:
            raise ValueError(
                f"separable spec has {len(self.angles)} angle triples but n={n}"
            )

    def apply_amps(self, amps: np.ndarray, n: int, adjoint: bool = False) -> np.ndarray:
        if self.kind == "qft":
            return _qft_amps(amps, adjoint)
        if self.kind == "aqft":
            return _aqft_amps(amps, n, self.m, adjoint)
        if self.kind == "hadamard":
            return _apply_gates_amps(amps, (_H,) * n)  # self-adjoint
        return _apply_gates_amps(amps, _separable_gates(self.angles, adjoint))

    def to_dict(self) -> dict:
        doc = {"kind": self.kind}
        if self.m is not None:
            doc["m"] = self.m
        if self.angles is not None:
            doc["angles"] = [list(t) for t in self.angles]
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "UnitarySpec":
        """Inverse of :meth:`to_dict`. A malformed document raises a
        ValueError that starts with ``unitary`` and names the field."""
        if not isinstance(data, dict):
            raise ValueError(f"unitary must be an object, got {type(data).__name__}")
        try:
            return cls(data.get("kind"), m=data.get("m"), angles=data.get("angles"))
        except ValueError as exc:
            raise ValueError(f"unitary: {exc}") from None

    @classmethod
    def parse(cls, text, n: int, seed) -> "UnitarySpec":
        """The spec that ``text`` names for n qubits, checked against n:
        ``qft``, ``aqft:<m>``, ``hadamard`` or ``separable``, in any case.
        The separable kind draws its angles from ``seed`` (any seed that
        :meth:`random_separable` takes)."""
        kind, colon, degree = str(text).lower().partition(":")
        if kind == "aqft":
            try:
                m = int(degree)
            except ValueError:
                hint = "use aqft:<m> with an integer degree m >= 1"
                raise ValueError(f"bad aqft degree in {text!r}; {hint}") from None
            spec = cls.aqft(m)
        elif kind in KINDS and not colon:
            spec = cls.random_separable(n, seed) if kind == "separable" else cls(kind)
        else:
            raise ValueError(f"unknown unitary {text!r}; use qft, aqft:<m>, hadamard, or separable")
        spec.validate_for(n)
        return spec
