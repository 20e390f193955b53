"""Independent dense-matrix constructions used as test oracles.

Everything here is built from explicit 2^n x 2^n matrices and plain tensor
products, deliberately sharing no code path with the package's matrix-free
kernels. Qubit k owns bit weight 2**k throughout.
"""
import numpy as np

_EIGENVECTORS = {
    ("z", 1): np.array([1, 0], dtype=complex),
    ("z", -1): np.array([0, 1], dtype=complex),
    ("x", 1): np.array([1, 1], dtype=complex) / np.sqrt(2),
    ("x", -1): np.array([1, -1], dtype=complex) / np.sqrt(2),
    ("y", 1): np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ("y", -1): np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


def dense_gate_on_qubit(gate: np.ndarray, q: int, n: int) -> np.ndarray:
    """kron(I_high, gate, I_low) with the gate acting on bit weight 2**q."""
    return np.kron(np.eye(1 << (n - 1 - q)), np.kron(gate, np.eye(1 << q)))


def dense_pauli_projector(axis: str, sign: int, q: int, n: int) -> np.ndarray:
    vec = _EIGENVECTORS[(axis, sign)]
    return dense_gate_on_qubit(np.outer(vec, vec.conj()), q, n)


def dense_qft(n: int) -> np.ndarray:
    dim = 1 << n
    j = np.arange(dim)
    return np.exp(2j * np.pi * (np.outer(j, j) % dim) / dim) / np.sqrt(dim)


def dense_aqft(n: int, m: int) -> np.ndarray:
    """Degree-m approximate transform from the bitwise phase sum."""
    dim = 1 << n
    bits = (np.arange(dim)[:, None] >> np.arange(n)[None, :]) & 1
    weights = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            if n - m <= a + b <= n - 1:
                weights[a, b] = 1 << (a + b)
    exponents = bits @ weights @ bits.T
    return np.exp(2j * np.pi * (exponents % dim) / dim) / np.sqrt(dim)


def dense_hadamard(n: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, h)
    return out


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
