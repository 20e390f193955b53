"""Independent dense-matrix constructions used as test oracles.

Everything here is built from explicit 2^n x 2^n matrices and plain tensor
products, deliberately sharing no code path with the package's matrix-free
kernels. The exceptions are ``gates_in_place``, ``looped_aqft``,
``aqft_matrix``, ``looped_joint_laws`` and ``full_size_neumann_bound``, the
per-qubit loop, the two dense AQFT builds, the per-circuit outcome laws
(with the per-sign projection they were first computed with) and the
mitigation guard's bound that the package replaced, kept as their
references, and ``basis_state``, which wraps a one-hot vector in the
package's StateVector. ``extended_aqft`` rounds each entry of the AQFT
once, from 40-digit ``mpmath`` values. ``dense_correction`` is the engine's
computational-frame correction by one projector: two in a row, + then -, are
the reference for the engine's one step per circuit and for the measurement
frame that the hadamard and separable kinds run in. ``dense_unitary`` is the
dense matrix of any spec.
Qubit k owns bit weight 2**k throughout.
"""
import math
from functools import reduce

import mpmath
import numpy as np

from qptycho import StateVector, circuit_settings

#: An eigenvector e of each (axis, sign) Pauli projector, unnormalized: every
#: entry is 0, 1 or +-i, so products with e and with e^dagger / <e|e> are exact.
_PAULI_KETS = {
    ("z", 1): np.array([1, 0], dtype=complex),
    ("z", -1): np.array([0, 1], dtype=complex),
    ("x", 1): np.array([1, 1], dtype=complex),
    ("x", -1): np.array([1, -1], dtype=complex),
    ("y", 1): np.array([1, 1j], dtype=complex),
    ("y", -1): np.array([1, -1j], dtype=complex),
}
_EIGENVECTORS = {key: e / np.sqrt(np.vdot(e, e).real) for key, e in _PAULI_KETS.items()}


def basis_state(n: int, j: int) -> StateVector:
    """Computational basis state |j> on n qubits."""
    amps = np.zeros(1 << n, dtype=complex)
    amps[j] = 1.0
    return StateVector(n, amps)


def dense_gate_on_qubit(gate: np.ndarray, q: int, n: int) -> np.ndarray:
    """kron(I_high, gate, I_low) with the gate acting on bit weight 2**q."""
    return np.kron(np.eye(1 << (n - 1 - q)), np.kron(gate, np.eye(1 << q)))


def rotation_z(angle: float) -> np.ndarray:
    """diag(e^{-ia/2}, e^{+ia/2})."""
    return np.array(
        [[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=np.complex128
    )


def rotation_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def gates_in_place(amps: np.ndarray, gates) -> np.ndarray:
    """Reference per-qubit loop: gates[q] mixes each index pair that differs
    only in bit q, through a (high bits, bit q, low bits) view, qubit 0 first.
    The package's shuffle kernel must match it bit for bit."""
    for q, g in enumerate(gates):
        v = amps.reshape(-1, 2, 1 << q)
        out = np.empty_like(v)
        out[:, 0, :] = g[0, 0] * v[:, 0, :] + g[0, 1] * v[:, 1, :]
        out[:, 1, :] = g[1, 0] * v[:, 0, :] + g[1, 1] * v[:, 1, :]
        amps = out.reshape(amps.shape)
    return amps


def dense_pauli_projector(axis: str, sign: int, q: int, n: int) -> np.ndarray:
    vec = _EIGENVECTORS[(axis, sign)]
    return dense_gate_on_qubit(np.outer(vec, vec.conj()), q, n)


def dense_qft(n: int) -> np.ndarray:
    dim = 1 << n
    j = np.arange(dim)
    return np.exp(2j * np.pi * (np.outer(j, j) % dim) / dim) / np.sqrt(dim)


def _aqft_exponents(n: int, m: int) -> np.ndarray:
    """Y_jk = sum over bit pairs n-m <= a+b <= n-1 of j_a k_b 2^(a+b), exact int64."""
    dim = 1 << n
    bits = (np.arange(dim)[:, None] >> np.arange(n)[None, :]) & 1
    weights = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            if n - m <= a + b <= n - 1:
                weights[a, b] = 1 << (a + b)
    return bits @ weights @ bits.T


def dense_aqft(n: int, m: int) -> np.ndarray:
    """Degree-m approximate transform from the bitwise phase sum."""
    dim = 1 << n
    return np.exp(2j * np.pi * (_aqft_exponents(n, m) % dim) / dim) / np.sqrt(dim)


def extended_aqft(n: int, m: int) -> np.ndarray:
    """Degree-m approximate transform with every entry correctly rounded:
    its 2^n distinct values 2^{-n/2} e^{2 pi i y / 2^n} are computed to 40
    digits with ``mpmath`` and rounded once to complex128."""
    dim = 1 << n
    with mpmath.workdps(40):
        scale = 1 / mpmath.sqrt(dim)
        table = np.array([complex(scale * mpmath.expjpi(mpmath.mpf(2 * y) / dim))
                          for y in range(dim)])
    return table[_aqft_exponents(n, m) % dim]


def looped_aqft(n: int, m: int) -> np.ndarray:
    """The degree-m transform as the package first built it: an int64
    exponent matrix summed one bit pair at a time, reduced mod 2^n, then
    exponentiated entry by entry. ``aqft_matrix`` must match it bit for bit;
    ``dense_aqft`` rounds differently and agrees only to ~1e-12."""
    dim = 1 << n
    bits = (np.arange(dim)[:, None] >> np.arange(n)[None, :]) & 1
    y = np.zeros((dim, dim), dtype=np.int64)
    for a in range(n):
        for b in range(max(0, n - m - a), n - a):
            y += np.outer(bits[:, a], bits[:, b]) << (a + b)
    return np.exp((2j * np.pi / dim) * (y % dim)) / math.sqrt(dim)


def aqft_matrix(n: int, m: int) -> np.ndarray:
    """The degree-m transform as the package built it before its staged
    kernel: one table of the 2^n distinct phases, in ``looped_aqft``'s
    operation order, indexed by the exact int64 exponent (``mode="wrap"``
    takes it mod 2^n). Bit for bit ``looped_aqft``."""
    dim = 1 << n
    table = np.exp((2j * np.pi / dim) * np.arange(dim)) / math.sqrt(dim)
    # Y_jk = sum_a j_a ((k & mask_a) << a), mask_a keeping bits n-m-a..n-1-a.
    k = np.arange(dim)
    terms = np.stack([(k & ((1 << (n - a)) - (1 << max(0, n - m - a)))) << a
                      for a in range(n)])  # [n, dim]
    bits = (k[:, None] >> np.arange(n)[None, :]) & 1  # [dim, n]
    return np.take(table, bits @ terms, mode="wrap")


def looped_joint_laws(state: StateVector, unitary) -> list:
    """The 3n exact circuit laws, canonical order, as the package first
    computed them: one projected sign branch and one transform call at a
    time, entry s * 2^n + j = |<j| U P_s |psi>|^2, with P_s = |e><e| / <e|e>
    applied to bit q as ket e tensored with c = <bra|v>, bra = e^dagger / <e|e>.
    ``generate_dataset`` with ``shots = 0`` must match them bit for bit."""
    n = state.n
    v = state.amps
    laws = []
    for axis, q in circuit_settings(n):
        p = np.empty(2 << n)
        pairs = v.reshape(-1, 2, 1 << q)
        for s_index, sign in enumerate((1, -1)):
            ket = _PAULI_KETS[axis, sign]
            bra = ket.conj() / np.vdot(ket, ket).real
            c = bra[0] * pairs[:, 0] + bra[1] * pairs[:, 1]
            branch = (ket[:, None] * c[:, None]).reshape(v.shape)
            transformed = unitary.apply_amps(branch, n)
            p[s_index << n : (s_index + 1) << n] = transformed.real**2 + transformed.imag**2
        laws.append(p)
    return laws


def dense_hadamard(n: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, h)
    return out


def dense_u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """e^{i(phi+lam)/2} Rz(phi) Ry(theta) Rz(lam), the package's u3 convention."""
    return np.exp(0.5j * (phi + lam)) * rotation_z(phi) @ rotation_y(theta) @ rotation_z(lam)


def dense_qubit_gates(spec, n: int) -> list:
    """The 2x2 gate of each qubit of a hadamard or separable spec, qubit 0 first."""
    if spec.kind == "hadamard":
        return [dense_hadamard(1)] * n
    return [dense_u3(*triple) for triple in spec.angles]


def dense_product_unitary(spec, n: int) -> np.ndarray:
    """u_{n-1} (x) ... (x) u_0 of a hadamard or separable spec."""
    return reduce(np.kron, reversed(dense_qubit_gates(spec, n)))


def dense_unitary(spec, n: int) -> np.ndarray:
    """The dense matrix of any spec: ``dense_qft``, ``extended_aqft`` or
    ``dense_product_unitary``."""
    if spec.kind == "qft":
        return dense_qft(n)
    if spec.kind == "aqft":
        return extended_aqft(n, spec.m)
    return dense_product_unitary(spec, n)


def frame_vector(spec, n: int, axis: str, sign: int, q: int) -> np.ndarray:
    """f = u_q e: U |e><e|_q U^dagger = |f><f|_q for a product unitary U."""
    return dense_qubit_gates(spec, n)[q] @ _EIGENVECTORS[(axis, sign)]


def dense_correction(amps, projector, unitary_matrix, target, beta) -> np.ndarray:
    """One engine correction in the computational frame, from explicit
    matrices: phi + beta P (U^dagger (t * phase(U P phi)) - P phi), with
    phase 1 where U P phi is exactly zero."""
    projected = projector @ amps
    tilde = unitary_matrix @ projected
    mag = np.abs(tilde)
    phase = np.where(mag > 0, tilde / np.where(mag > 0, mag, 1.0), 1.0)
    back = unitary_matrix.conj().T @ (target * phase)
    return amps + beta * (projector @ back - projected)


def bit_reversal_permutation(n: int) -> np.ndarray:
    """P with (P x)_j = x_rev(j), rev reversing the n-bit string."""
    dim = 1 << n
    perm = np.zeros((dim, dim))
    for j in range(dim):
        r = int(format(j, f"0{n}b")[::-1], 2)
        perm[j, r] = 1.0
    return perm


def reduced_single_qubit(amps: np.ndarray, q: int, n: int) -> np.ndarray:
    """2x2 reduced density matrix of qubit q from a pure state."""
    psi = amps.reshape(-1, 2, 1 << q)          # (high, bit q, low)
    psi = np.moveaxis(psi, 1, 0).reshape(2, -1)
    return psi @ psi.conj().T


def dense_joint_distribution(amps, axis, sign, q, unitary_matrix, n):
    """|(U P psi)_j|^2 via explicit matrices, one sign block."""
    projected = dense_pauli_projector(axis, sign, q, n) @ amps
    transformed = unitary_matrix @ projected
    return np.abs(transformed) ** 2


def haar_state(n: int, rng) -> np.ndarray:
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return z / np.linalg.norm(z)


def dense_calibration(cal) -> np.ndarray:
    """The full 2^(n+1)-square readout matrix M1 (x) Mn of a calibration,
    intermediate bit most significant."""
    return np.kron(cal.intermediate, cal.register)


def dense_readout_channel(bit_confusions) -> np.ndarray:
    """C_{k-1} (x) ... (x) C_0 for per-bit confusion matrices listed bit 0
    first, folded from the most significant bit down."""
    return reduce(np.kron, reversed([np.asarray(c) for c in bit_confusions]))


def full_size_neumann_bound(cal):
    """(q, bound) of the mitigation guard as the package first computed them,
    through a full-size ``np.abs(Mn)``: q = ||I - Mn||_1 and the bound
    cond(M1) N ||Mn||_1 / (1 - q), or inf when q >= 1. ``_neumann_terms`` and
    ``_condition_bound`` must match it bit for bit."""
    mat, diag = cal.register, np.diag(cal.register)
    with np.errstate(all="ignore"):
        col = np.abs(mat).sum(axis=0)
        q = float(np.max(col - np.abs(diag) + np.abs(1 - diag)))
    if not q < 1:
        return q, np.inf
    return q, float(np.linalg.cond(cal.intermediate)) * mat.shape[0] * float(col.max()) / (1 - q)
