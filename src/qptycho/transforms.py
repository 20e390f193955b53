"""Final-measurement unitaries and their adjoints.

Four families are supported: the full Fourier transform on basis indices,
its degree-m approximation, the Hadamard transform, and per-qubit random
unitaries. All are defined as index-space sums, so there is no swap or
bit-reversal ambiguity; each is realized matrix-free in O(n 2^n) (FFT, staged
butterflies, per-qubit kernels) and agrees with the dense definition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import _integer

KINDS = ("qft", "aqft", "hadamard", "separable")

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_H.flags.writeable = False  # shared between calls


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


@lru_cache(maxsize=8)
def _aqft_stages(n: int, m: int, adjoint: bool) -> tuple:
    """The staged degree-m transform's tables: per output bit a, the input
    bit n-1-a that its butterfly reads, the lowest input bit of its phase and
    its phase vector (None when no term is left; conjugated for the
    adjoint), then the bit reversal."""
    stages = []
    for a in range(n):
        bit, lowest = n - 1 - a, max(0, n - m - a)
        phase = None
        if lowest < bit:
            # Term (a, b) adds k_b 2^(a+b-n) turns. Summed over the kept
            # b = lowest..bit-1 that is t / 2^bit half-turns, where t is k
            # with every bit outside lowest..bit-1 cleared.
            half_turns = (np.arange(1 << (bit - lowest)) << lowest) / (1 << bit)
            phase = np.exp(1j * np.pi * half_turns)[:, None]
            if adjoint:
                phase = phase.conj()
            phase.flags.writeable = False
        stages.append((bit, lowest, phase))
    j = np.arange(1 << n)
    reverse = sum(((j >> b) & 1) << (n - 1 - b) for b in range(n))
    reverse.flags.writeable = False
    return tuple(stages), reverse


def _aqft_amps(amps: np.ndarray, n: int, m: int, adjoint: bool) -> np.ndarray:
    # Staged form (Coppersmith, IBM RC19642; arXiv:quant-ph/0201067) of
    # entry (j, k) = 2^{-n/2} e^{2 pi i Y_jk / 2^n}, with Y_jk the sum over
    # bit pairs n-m <= a+b <= n-1 of j_a k_b 2^{a+b}. Stage a turns input bit
    # n-1-a into output bit j_a with one butterfly, then phases the j_a = 1
    # half by its terms with the lower input bits; a bit reversal ends it.
    # O(n 2^n) and no matrix. The matrix is symmetric, so the adjoint is
    # conj(forward(conj(x))): the same stages with conjugated phases, which
    # round to exactly those bits. Rows never mix, and they run innermost
    # (index-major layout), so a batch's loops stay long even at small n.
    stages, reverse = _aqft_stages(n, m, adjoint)
    x = amps.reshape(-1, 1 << n).T
    rows = x.shape[1]
    for bit, lowest, phase in stages:
        v = x.reshape(-1, 2, rows << bit)
        x = np.empty(v.shape, dtype=np.complex128)
        np.add(v[:, 0], v[:, 1], out=x[:, 0])
        np.subtract(v[:, 0], v[:, 1], out=x[:, 1])
        if phase is not None:
            half = x[:, 1].reshape(-1, len(phase), rows << lowest)  # a view
            half *= phase
    x = np.take(x.reshape(1 << n, rows), reverse, axis=0)
    out = np.empty((rows, 1 << n), dtype=np.complex128)
    np.multiply(x.T, 2.0 ** (-n / 2), out=out)
    return out.reshape(amps.shape)


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
        n = _integer(n, "qubit count must be an integer", 1)
        if self.kind == "aqft" and not self.m <= n:
            raise ValueError(f"aqft degree m={self.m} exceeds qubit count n={n}")
        if self.kind == "separable" and len(self.angles) != n:
            raise ValueError(
                f"separable spec has {len(self.angles)} angle triples but n={n}"
            )

    def qubit_gates(self, n: int, adjoint: bool = False):
        """The 2x2 gate of each qubit, qubit 0 first, when this unitary is a
        product of them (hadamard, separable), or their adjoints; None for
        the Fourier kinds. The matrices are shared and read-only."""
        if self.kind == "hadamard":
            return (_H,) * n  # self-adjoint
        if self.kind == "separable":
            return _separable_gates(self.angles, adjoint)
        return None

    def apply_amps(self, amps: np.ndarray, n: int, adjoint: bool = False) -> np.ndarray:
        if self.kind == "qft":
            return _qft_amps(amps, adjoint)
        if self.kind == "aqft":
            return _aqft_amps(amps, n, self.m, adjoint)
        return _apply_gates_amps(amps, self.qubit_gates(n, adjoint))

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
            # ASCII digits only, where int() also takes "1_0", " 3" and other scripts' digits.
            digits = degree.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                hint = "use aqft:<m> with an integer degree m >= 1"
                raise ValueError(f"bad aqft degree in {text!r}; {hint}")
            spec = cls.aqft(int(degree))
        elif kind in KINDS and not colon:
            spec = cls.random_separable(n, seed) if kind == "separable" else cls(kind)
        else:
            raise ValueError(f"unknown unitary {text!r}; use qft, aqft:<m>, hadamard, or separable")
        spec.validate_for(n)
        return spec
