"""Final-measurement unitaries and their adjoints.

Four families are supported: the full Fourier transform on basis indices,
its degree-m approximation, the Hadamard transform, and per-qubit random
unitaries. All are defined as index-space sums, so there is no swap or
bit-reversal ambiguity; each is realized in O(n 2^n) (FFT, staged
butterflies, per-qubit kernels) and agrees with the dense definition. No
kernel holds a matrix wider than 2^5: the AQFT applies its stages in runs of
three or more as cached blocks of at most 2^5 x 2^5 where they fit, and one
by one where they do not.
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


def _run_stages(x: np.ndarray, stages) -> np.ndarray:
    """``stages`` run on the index-major ``(2^w, rows)`` array ``x``: per
    stage one butterfly on its bit, then its phase on the bit-1 half."""
    rows = x.shape[1]
    for bit, lowest, phase in stages:
        v = x.reshape(-1, 2, rows << bit)
        x = np.empty(v.shape, dtype=np.complex128)
        np.add(v[:, 0], v[:, 1], out=x[:, 0])
        np.subtract(v[:, 0], v[:, 1], out=x[:, 1])
        if phase is not None:
            half = x[:, 1].reshape(-1, len(phase), rows << lowest)  # a view
            half *= phase
    return x.reshape(-1, rows)


#: Widest fused window, in bits: no AQFT block is larger than 2^5 x 2^5.
_WINDOW_BITS = 5


@lru_cache(maxsize=8)
def _aqft_blocks(n: int, m: int, adjoint: bool) -> tuple | None:
    """The staged transform's stages in groups, each the longest run of
    consecutive stages that spans at most m + 2 bits (three stages, or more
    at the end, where the lowest bit stays 0), as the group's lowest bit and
    one read-only 2^w x 2^w block over bits lowest..lowest+w-1, built by
    running its stages on the identity. None when m + 2 bits would span the
    register or exceed ``_WINDOW_BITS``."""
    if not (m + 2 < n and m + 2 <= _WINDOW_BITS):
        return None
    stages, _ = _aqft_stages(n, m, adjoint)
    blocks, a = [], 0
    while a < n:
        top, b = stages[a][0], a + 1
        while b < n and top - stages[b][1] < m + 2:
            b += 1
        low = stages[b - 1][1]
        local = [(bit - low, lowest - low, phase) for bit, lowest, phase in stages[a:b]]
        block = _run_stages(np.eye(2 << (top - low), dtype=np.complex128), local)
        block.flags.writeable = False
        blocks.append((low, block))
        a = b
    return tuple(blocks)


def _aqft_amps(amps: np.ndarray, n: int, m: int, adjoint: bool) -> np.ndarray:
    # Staged form (Coppersmith, IBM RC19642; arXiv:quant-ph/0201067) of
    # entry (j, k) = 2^{-n/2} e^{2 pi i Y_jk / 2^n}, with Y_jk the sum over
    # bit pairs n-m <= a+b <= n-1 of j_a k_b 2^{a+b}. Stage a turns input bit
    # n-1-a into output bit j_a with one butterfly, then phases the j_a = 1
    # half by its terms with the lower input bits; a bit reversal ends it.
    # O(n 2^n) and no matrix of the register. The matrix is symmetric, so the
    # adjoint is conj(forward(conj(x))): the same stages (and so blocks) with
    # conjugated phases, which round to exactly those bits.
    #
    # Stage a touches only bits max(0, n-m-a) .. n-1-a, so three stages (more
    # at the end) fuse into one local block (Barenco et al., PRA 54, 139
    # (1996)), applied by one stacked matmul whose GEMMs have the same shape
    # for every row, however many share the call: a batched row rounds as a
    # lone one. Where no block fits, the stages run one by one on the
    # index-major layout, rows innermost, so a batch's loops stay long even
    # at small n.
    stages, reverse = _aqft_stages(n, m, adjoint)
    blocks = _aqft_blocks(n, m, adjoint)
    if blocks is None:
        x = np.take(_run_stages(amps.reshape(-1, 1 << n).T, stages), reverse, axis=0).T
    else:
        x = amps.reshape(-1, 1 << n)
        rows = x.shape[0]
        for low, block in blocks:
            size = len(block)
            above = (1 << n) // (size << low)
            if low:
                x = block @ x.reshape(rows * above, size, 1 << low)
            else:
                x = x.reshape(rows, above, size) @ block.T
        x = np.take(x.reshape(rows, 1 << n), reverse, axis=1)
    out = np.empty(x.shape, dtype=np.complex128)
    np.multiply(x, 2.0 ** (-n / 2), out=out)
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


def _angle(value) -> float:
    """A finite angle in radians; TypeError for anything else (a bool too)."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise TypeError(f"not a finite angle: {value!r}")
    return float(value)


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
            try:
                angles = tuple(tuple(_angle(a) for a in triple) for triple in self.angles)
            except TypeError:
                raise ValueError(
                    f"separable angles must be (theta, phi, lam) triples of finite numbers, "
                    f"got {self.angles!r}"
                ) from None
            if not angles:
                raise ValueError("separable requires one angle triple per qubit")
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
        return cls("separable", angles=angles)

    @classmethod
    def random_separable(cls, n: int, rng) -> "UnitarySpec":
        """Haar-random per-qubit unitaries: cos(theta) uniform on [-1, 1],
        phi and lam uniform on [0, 2 pi), drawn qubit by qubit."""
        rng = np.random.default_rng(rng)
        angles = []
        for _ in range(n):
            theta = math.acos(1.0 - 2.0 * rng.random())
            angles.append((theta, *rng.uniform(0.0, 2.0 * math.pi, size=2)))
        return cls.separable(angles)

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
        the Fourier kinds. The matrices are read-only."""
        if self.kind == "hadamard":
            return (_H,) * n  # self-adjoint
        if self.kind != "separable":
            return None
        gates = tuple(u3_matrix(*t).conj().T if adjoint else u3_matrix(*t) for t in self.angles)
        for g in gates:
            g.flags.writeable = False
        return gates

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
