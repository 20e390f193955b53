import math
import re
from functools import reduce

import numpy as np
import pytest

from qptycho import (
    StateVector,
    UnitarySpec,
    random_arbitrary,
    u3_matrix,
)
from qptycho.transforms import _WINDOW_BITS, _aqft_blocks

from oracles import (
    aqft_matrix,
    basis_state,
    bit_reversal_permutation,
    dense_aqft,
    dense_hadamard,
    dense_product_unitary,
    dense_qft,
    extended_aqft,
    haar_state,
    looped_aqft,
    rotation_y,
    rotation_z,
)

SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
H_TRIPLE = (math.pi / 2, 0.0, math.pi)
QFT = UnitarySpec.qft()


def dense_unitary(spec: UnitarySpec, n: int) -> np.ndarray:
    """Materialize the 2^n x 2^n matrix by applying the spec to basis columns."""
    spec.validate_for(n)
    dim = 1 << n
    cols = np.eye(dim, dtype=np.complex128)
    out = np.empty((dim, dim), dtype=np.complex128)
    for k in range(dim):
        out[:, k] = spec.apply_amps(cols[:, k], n)
    return out


def apply(spec: UnitarySpec, state: StateVector, adjoint: bool = False) -> np.ndarray:
    """``spec`` applied to ``state``'s amplitudes, after the engine's check
    that the spec fits its qubit count."""
    spec.validate_for(state.n)
    return spec.apply_amps(state.amps, state.n, adjoint)


def assert_equal_up_to_phase(a, b, atol=1e-12):
    k = np.argmax(np.abs(b))
    phase = a.flat[k] / b.flat[k]
    assert abs(abs(phase) - 1.0) < atol
    np.testing.assert_allclose(a, phase * b, atol=atol)


class TestQft:
    def test_zero_maps_to_uniform(self):
        for n in (1, 2, 4):
            out = apply(QFT, basis_state(n, 0))
            np.testing.assert_allclose(out, np.full(1 << n, 2**(-n / 2)), atol=1e-13)

    def test_n1_is_hadamard(self):
        out = apply(QFT, basis_state(1, 0))
        np.testing.assert_allclose(out, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_n2_basis_one(self):
        out = apply(QFT, basis_state(2, 1))
        np.testing.assert_allclose(out, np.array([1, 1j, -1, -1j]) / 2, atol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(41)
        for n in range(1, 6):
            state = StateVector(n, haar_state(n, rng))
            np.testing.assert_allclose(
                apply(QFT, state), dense_qft(n) @ state.amps, atol=1e-12
            )
            np.testing.assert_allclose(
                apply(QFT, state, adjoint=True),
                dense_qft(n).conj().T @ state.amps,
                atol=1e-12,
            )


class TestAqft:
    def test_degree_n_equals_qft(self):
        rng = np.random.default_rng(42)
        for n in range(1, 6):
            state = StateVector(n, haar_state(n, rng))
            np.testing.assert_allclose(
                apply(UnitarySpec.aqft(n), state), apply(QFT, state), atol=1e-12
            )

    def test_dense_degree_n_equals_dense_qft_exactly(self):
        for n in range(1, 6):
            assert np.abs(aqft_matrix(n, n) - dense_qft(n)).max() < 1e-12

    def test_zero_maps_to_uniform(self):
        out = apply(UnitarySpec.aqft(1), basis_state(2, 0))
        np.testing.assert_allclose(out, [0.5] * 4, atol=1e-15)

    def test_degree_one_is_hadamard_with_bit_reversal(self):
        for n in (2, 3, 4):
            expected = dense_hadamard(n) @ bit_reversal_permutation(n)
            np.testing.assert_allclose(aqft_matrix(n, 1), expected, atol=1e-12)
            np.testing.assert_allclose(dense_unitary(UnitarySpec.aqft(1), n), expected, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(43)
        for n in range(1, 6):
            state = StateVector(n, haar_state(n, rng))
            for m in range(1, n + 1):
                np.testing.assert_allclose(
                    apply(UnitarySpec.aqft(m), state), dense_aqft(n, m) @ state.amps, atol=1e-12
                )

    def test_unitarity_all_degrees(self):
        for n in range(1, 6):
            for m in range(1, n + 1):
                for mat in (aqft_matrix(n, m), dense_unitary(UnitarySpec.aqft(m), n)):
                    np.testing.assert_allclose(
                        mat.conj().T @ mat, np.eye(1 << n), atol=1e-12
                    )

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            UnitarySpec.aqft(3).validate_for(2)
        with pytest.raises(ValueError):
            UnitarySpec.aqft(0).validate_for(2)


EXACT_AQFT_CASES = [(n, m) for n in range(1, 9) for m in range(1, n + 1)] + [(10, 2), (10, 10)]
EXTENDED_AQFT_CASES = ([(n, m) for n in range(1, 7) for m in range(1, n + 1)]
                       + [(n, m) for n in (7, 8) for m in (1, 2, 3)] + [(10, 2), (10, 10)])
BITWISE_AQFT_CASES = [(1, 1), (3, 2), (4, 4), (6, 2), (6, 5), (8, 1), (8, 3), (10, 2), (12, 2), (12, 10)]


@pytest.mark.one_blas_thread
class TestAqftKernel:
    @pytest.mark.parametrize("n, m", EXTENDED_AQFT_CASES)
    def test_within_1e_15_of_the_extended_precision_oracle(self, n, m):
        # Row k of each result is the transform of the unit vector e_k.
        exact = extended_aqft(n, m)
        units = np.eye(1 << n, dtype=np.complex128)
        spec = UnitarySpec.aqft(m)
        assert np.abs(spec.apply_amps(units, n) - exact.T).max() <= 1e-15
        assert np.abs(spec.apply_amps(units, n, adjoint=True) - exact.conj()).max() <= 1e-15

    @pytest.mark.parametrize("n, m", BITWISE_AQFT_CASES)
    def test_adjoint_is_conj_forward_conj_bit_for_bit(self, n, m):
        rng = np.random.default_rng(n * 16 + m)
        amps = rng.normal(size=(2, 1 << n)) + 1j * rng.normal(size=(2, 1 << n))
        spec = UnitarySpec.aqft(m)
        expected = np.conj(spec.apply_amps(np.conj(amps), n))
        assert np.array_equal(spec.apply_amps(amps, n, adjoint=True).view(np.float64),
                              expected.view(np.float64))

    @pytest.mark.parametrize("n, m", BITWISE_AQFT_CASES)
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_batched_call_equals_its_lone_rows_bit_for_bit(self, n, m, adjoint):
        rng = np.random.default_rng(n * 16 + m)
        amps = rng.normal(size=(3, 4, 1 << n)) + 1j * rng.normal(size=(3, 4, 1 << n))
        spec = UnitarySpec.aqft(m)
        batched = spec.apply_amps(amps, n, adjoint)
        assert batched.shape == amps.shape
        for s in range(3):
            for k in range(4):
                lone = spec.apply_amps(amps[s, k], n, adjoint)
                assert np.array_equal(batched[s, k].view(np.float64), lone.view(np.float64))

    def test_no_fused_block_spans_the_register_or_the_window_cap(self):
        # Only the cached blocks are read. Uncapped, n=16, m=13 would fuse
        # into a 2^15-square block, 16 GiB.
        for n in range(1, 17):
            for m in range(1, n + 1):
                for adjoint in (False, True):
                    for low, block in _aqft_blocks(n, m, adjoint) or ():
                        side = len(block)
                        assert block.shape == (side, side) and not block.flags.writeable
                        assert side < 1 << n and side <= 1 << _WINDOW_BITS, (n, m)
                        assert (side << low) <= 1 << n, (n, m)

    @pytest.mark.parametrize("n, m, message", [
        (10.0, 2, "qubit count must be an integer >= 1, got 10.0"),
        (True, 1, "qubit count must be an integer >= 1, got True"),
        (3, True, "aqft requires an integer degree m >= 1, got True"),
        (3, 2.0, "aqft requires an integer degree m >= 1, got 2.0"),
        (2, 0, "aqft requires an integer degree m >= 1, got 0"),
        (2, 3, "aqft degree m=3 exceeds qubit count n=2"),
    ])
    def test_spec_rejects_bad_arguments(self, n, m, message):
        with pytest.raises(ValueError) as exc:
            UnitarySpec.aqft(m).validate_for(n)
        assert str(exc.value) == message


class TestAqftMatrix:
    """The dense build the staged kernel replaced, kept as an oracle."""

    @pytest.mark.parametrize("n, m", EXACT_AQFT_CASES)
    def test_bit_identical_to_the_looped_build(self, n, m):
        mat = aqft_matrix(n, m)
        assert mat.dtype == np.complex128
        assert np.array_equal(mat.view(np.float64), looped_aqft(n, m).view(np.float64))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_its_transpose_exactly(self, n):
        # The adjoint may then be taken as conj(forward(conj(x))) at every degree.
        for m in range(1, n + 1):
            mat = aqft_matrix(n, m)
            assert np.array_equal(mat, mat.T), (n, m)


class TestU3:
    def test_identity_triple(self):
        np.testing.assert_allclose(u3_matrix(0, 0, 0), np.eye(2), atol=1e-15)

    def test_pi_theta(self):
        np.testing.assert_allclose(
            u3_matrix(math.pi, 0, 0), np.array([[0, -1], [1, 0]]), atol=1e-15
        )

    def test_equals_rotation_product(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            t, p, l = rng.uniform(0, 2 * math.pi, 3)
            expected = np.exp(0.5j * (p + l)) * rotation_z(p) @ rotation_y(t) @ rotation_z(l)
            np.testing.assert_allclose(u3_matrix(t, p, l), expected, atol=1e-12)

    def test_native_gate_decomposition(self):
        # Native-gate sequence Rz(phi+pi), sqrt(X), Rz(theta+pi), sqrt(X),
        # Rz(lam) applied in that order (matrix product reads right to left)
        # reproduces u3 up to a single global phase.
        rng = np.random.default_rng(45)
        for _ in range(100):
            t, p, l = rng.uniform(0, 2 * math.pi, 3)
            native = (
                rotation_z(p + math.pi)
                @ SQRT_X
                @ rotation_z(t + math.pi)
                @ SQRT_X
                @ rotation_z(l)
            )
            assert_equal_up_to_phase(u3_matrix(t, p, l), native, atol=1e-12)


class TestSeparable:
    def test_zero_triples_are_identity(self):
        rng = np.random.default_rng(46)
        state = StateVector(3, haar_state(3, rng))
        out = apply(UnitarySpec.separable([(0, 0, 0)] * 3), state)
        np.testing.assert_allclose(out, state.amps, atol=1e-15)

    def test_h_triple_on_zero(self):
        out = apply(UnitarySpec.separable([H_TRIPLE]), basis_state(1, 0))
        assert_equal_up_to_phase(out, np.array([1, 1]) / math.sqrt(2))

    def test_forward_then_adjoint_is_identity(self):
        rng = np.random.default_rng(47)
        state = StateVector(4, haar_state(4, rng))
        spec = UnitarySpec.random_separable(4, rng)
        round_trip = spec.apply_amps(apply(spec, state), 4, adjoint=True)
        np.testing.assert_allclose(round_trip, state.amps, atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            UnitarySpec.separable([(0, 0, 0)]).validate_for(2)

    def test_acts_on_correct_qubit(self):
        # X-like triple (theta=pi) on qubit 1 only: |00> -> index 2 up to phase
        out = apply(UnitarySpec.separable([(0, 0, 0), (math.pi, 0, 0)]), basis_state(2, 0))
        assert abs(out[2]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", [UnitarySpec.hadamard(), UnitarySpec.random_separable(3, 48)])
    def test_qubit_gates_are_the_kronecker_factors(self, spec):
        for adjoint in (False, True):
            gates = spec.qubit_gates(3, adjoint)
            expected = dense_product_unitary(spec, 3)
            if adjoint:
                expected = expected.conj().T
            np.testing.assert_allclose(
                reduce(np.kron, reversed(gates)), expected, rtol=0, atol=1e-12
            )
            assert not any(g.flags.writeable for g in gates)

    def test_fourier_kinds_have_no_qubit_gates(self):
        assert UnitarySpec.qft().qubit_gates(3) is None
        assert UnitarySpec.aqft(2).qubit_gates(3) is None


class TestUnitarySpec:
    @pytest.mark.parametrize(
        "spec",
        [
            UnitarySpec.qft(),
            UnitarySpec.aqft(1),
            UnitarySpec.aqft(3),
            UnitarySpec.hadamard(),
            UnitarySpec.random_separable(4, 7),
        ],
    )
    def test_norm_preserved_and_adjoint_inverts(self, spec):
        rng = np.random.default_rng(48)
        state = StateVector(4, haar_state(4, rng))
        forward = apply(spec, state)
        assert abs(np.linalg.norm(forward) - 1.0) < 1e-12
        back = spec.apply_amps(forward, 4, adjoint=True)
        np.testing.assert_allclose(back, state.amps, atol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            UnitarySpec.qft(),
            UnitarySpec.aqft(2),
            UnitarySpec.aqft(4),
            UnitarySpec.hadamard(),
            UnitarySpec.random_separable(4, 8),
        ],
    )
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_rows_transform_exactly_as_lone_states(self, spec, adjoint):
        # The engine transforms an (R, 2^n) batch in one call; every row must
        # round exactly as the same state transformed alone.
        rng = np.random.default_rng(50)
        rows = np.stack([haar_state(4, rng) for _ in range(5)])
        batched = spec.apply_amps(rows, 4, adjoint=adjoint)
        lone = np.stack([spec.apply_amps(row, 4, adjoint=adjoint) for row in rows])
        np.testing.assert_array_equal(batched, lone)

    def test_hadamard_equals_separable_h_triples(self):
        n = 3
        rng = np.random.default_rng(49)
        state = StateVector(n, haar_state(n, rng))
        viaspec = apply(UnitarySpec.hadamard(), state)
        viasep = apply(UnitarySpec.separable([H_TRIPLE] * n), state)
        assert_equal_up_to_phase(viaspec, viasep)

    def test_validation(self):
        with pytest.raises(ValueError):
            UnitarySpec("qft", m=2)
        with pytest.raises(ValueError):
            UnitarySpec("aqft")
        with pytest.raises(ValueError):
            UnitarySpec("separable")
        with pytest.raises(ValueError):
            UnitarySpec("dft")
        with pytest.raises(ValueError):
            UnitarySpec.aqft(4).validate_for(2)

    SEPARABLE_ENTRY_POINTS = {
        "classmethod": UnitarySpec.separable,
        "constructor": lambda angles: UnitarySpec("separable", angles=angles),
    }

    @pytest.mark.parametrize("build", SEPARABLE_ENTRY_POINTS.values(), ids=SEPARABLE_ENTRY_POINTS)
    @pytest.mark.parametrize("angles, message", [
        ([1, 2, 3], "separable angles must be (theta, phi, lam) triples of finite numbers, got [1, 2, 3]"),
        (None, "separable angles must be (theta, phi, lam) triples of finite numbers, got None"),
        (5, "separable angles must be (theta, phi, lam) triples of finite numbers, got 5"),
        ([], "separable requires one angle triple per qubit"),
        (np.zeros((0, 3)), "separable requires one angle triple per qubit"),
        (np.zeros((3, 2)), "each separable angle entry must be a (theta, phi, lam) triple"),
    ], ids=["ints", "none", "scalar", "empty", "empty-array", "pairs"])
    def test_separable_rejects_bad_angles(self, build, angles, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(angles)

    @pytest.mark.parametrize("build", SEPARABLE_ENTRY_POINTS.values(), ids=SEPARABLE_ENTRY_POINTS)
    def test_separable_takes_an_n_by_3_array(self, build):
        angles = np.random.default_rng(50).uniform(0, 2 * math.pi, (3, 3))
        spec = build(angles)
        assert spec == UnitarySpec.separable(tuple(map(tuple, angles.tolist())))
        assert all(type(a) is float for triple in spec.angles for a in triple)

    @pytest.mark.parametrize("text, spec", [
        ("qft", UnitarySpec.qft()), ("AQFT:2", UnitarySpec.aqft(2)), ("aqft:3", UnitarySpec.aqft(3)),
        ("Hadamard", UnitarySpec.hadamard()), ("separable", UnitarySpec.random_separable(3, 9)),
    ])
    def test_parse_reads_every_spelling(self, text, spec):
        # The separable angles are drawn from the seed given, as random_separable draws them.
        assert UnitarySpec.parse(text, 3, 9) == spec

    @pytest.mark.parametrize("text, message", [
        ("aqft:4", "aqft degree m=4 exceeds qubit count n=3"),
        ("aqft:x", "bad aqft degree in 'aqft:x'; use aqft:<m> with an integer degree m >= 1"),
        ("aqft:1_0", "bad aqft degree in 'aqft:1_0'; use aqft:<m> with an integer degree m >= 1"),
        ("aqft: 3", "bad aqft degree in 'aqft: 3'; use aqft:<m> with an integer degree m >= 1"),
        ("aqft:+3", "bad aqft degree in 'aqft:+3'; use aqft:<m> with an integer degree m >= 1"),
        ("aqft:٣", "bad aqft degree in 'aqft:٣'; use aqft:<m> with an integer degree m >= 1"),
        ("aqft:", "bad aqft degree in 'aqft:'; use aqft:<m> with an integer degree m >= 1"),
        ("aqft:-1", "aqft requires an integer degree m >= 1, got -1"),
        ("qft:2", "unknown unitary 'qft:2'; use qft, aqft:<m>, hadamard, or separable"),
        ("dft", "unknown unitary 'dft'"),
        (None, "unknown unitary None"),
    ])
    def test_parse_rejects(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            UnitarySpec.parse(text, 3, 9)

    def test_random_separable_angles_pinned(self):
        # Literals captured before the angle draw was shared with
        # stateprep.random_separable.
        expected = (
            (2.2268642971960175, 5.076441699143409, 3.237885993554064),
            (1.1280780655228884, 0.3388565968102988, 2.4087777189814505),
            (1.3867046955726339, 0.28447243310755027, 0.30635373165265484),
        )
        assert np.array_equal(UnitarySpec.random_separable(3, 5).angles, expected)

    def test_per_qubit_kinds_pinned(self):
        # Literals captured before the Hadamard and separable kernels became
        # one per-qubit gate loop; Hadamard uses the exact H, not H triples.
        x = random_arbitrary(3, 5).amps
        hadamard = [
            (-0.17966891168415886 + 0.04702490490601215j),
            (0.09766386371906936 - 0.0002816243893262113j),
            (0.025011656539372873 + 0.48433454747658444j),
            (0.17436108111289492 - 0.6046776487224015j),
            (-0.16356719601638656 + 0.20290479247422727j),
            (-0.1233738640874396 + 0.10918874616884985j),
            (-0.42869716027746013 + 0.10301986504194086j),
            (0.034866861532829335 + 0.1845240571921287j),
        ]
        separable_adjoint = [
            (-0.32855621435273963 - 0.14116171761143625j),
            (0.10219946727996859 + 0.09439108934054452j),
            (-0.5107030809866954 - 0.12395224243460326j),
            (0.4042626340970803 - 0.06025456571324929j),
            (0.08429498501139748 - 0.05567325699877259j),
            (0.06349510159238177 - 0.3508308756411078j),
            (0.09734164282829616 + 0.33268374768858744j),
            (0.21332618983375706 - 0.32641701447049243j),
        ]
        out = UnitarySpec.hadamard().apply_amps(x, 3)
        assert np.array_equal(out, np.array(hadamard))
        out = UnitarySpec.random_separable(3, 5).apply_amps(x, 3, adjoint=True)
        assert np.array_equal(out, np.array(separable_adjoint))

    def test_serialization_round_trip(self):
        specs = [
            UnitarySpec.qft(),
            UnitarySpec.aqft(2),
            UnitarySpec.hadamard(),
            UnitarySpec.random_separable(3, 5),
        ]
        for spec in specs:
            assert UnitarySpec.from_dict(spec.to_dict()) == spec

    def test_dense_unitary_matches_oracles(self):
        np.testing.assert_allclose(dense_unitary(UnitarySpec.qft(), 3), dense_qft(3), atol=1e-12)
        np.testing.assert_allclose(
            dense_unitary(UnitarySpec.aqft(2), 3), dense_aqft(3, 2), atol=1e-12
        )
        np.testing.assert_allclose(
            dense_unitary(UnitarySpec.hadamard(), 3), dense_hadamard(3), atol=1e-12
        )
