import json
import math

import numpy as np
import pytest

from qptycho import (
    StateVector,
    fidelity,
    load_state,
    projector_ids,
    save_state,
    trace_distance,
)
from qptycho.pie import _normalized
from qptycho.states import _project_amps, state_from_dict, state_to_dict
from qptycho.transforms import _apply_gates_amps

from oracles import basis_state, dense_gate_on_qubit, dense_pauli_projector, haar_state

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def apply_single_qubit(state: StateVector, q: int, gate) -> StateVector:
    """``gate`` on qubit q through the per-qubit kernel, identity elsewhere."""
    gates = [np.eye(2, dtype=complex)] * state.n
    gates[q] = np.asarray(gate, dtype=complex)
    return StateVector(state.n, _apply_gates_amps(state.amps, gates))


AXES_SIGNS = [(axis, sign) for axis in "xyz" for sign in (1, -1)]


class TestStateVector:
    def test_length_must_match_qubit_count(self):
        with pytest.raises(ValueError):
            StateVector(2, np.ones(3, dtype=complex))

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(ValueError):
            StateVector(0, np.ones(1, dtype=complex))

    def test_amplitudes_are_frozen(self):
        state = basis_state(2, 0)
        with pytest.raises(ValueError):
            state.amps[0] = 0.0

    def test_normalized_flag_tolerance(self):
        assert basis_state(3, 5).is_normalized
        assert not StateVector(1, np.array([1.0, 1.0])).is_normalized

    @pytest.mark.parametrize("amps", [[1e308, 0.0], [1e308, 1e308j]])
    def test_huge_amplitudes_are_not_normalized_without_a_warning(self, amps):
        # Their squared norm overflows; warnings are errors under this suite's settings.
        state = StateVector(1, amps)
        assert not state.is_normalized
        assert state_to_dict(state)["normalized"] is False

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite_amplitudes(self, bad):
        amps = np.array([0.6, 0.8, 0.0, 0.0], dtype=complex)
        amps[2] = bad
        with pytest.raises(ValueError, match=r"amplitudes \(amps\) must be finite"):
            StateVector(2, amps)

    def test_normalized_copy(self):
        state = StateVector(1, np.array([3.0, 4.0]))
        assert np.linalg.norm(_normalized(state.amps)) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            _normalized(StateVector(1, np.zeros(2)).amps)


class TestApplySingleQubit:
    def test_hadamard_on_zero(self):
        out = apply_single_qubit(basis_state(1, 0), 0, H)
        np.testing.assert_allclose(out.amps, np.array([1, 1]) / math.sqrt(2), atol=1e-15)

    def test_bit_flip_index_convention(self):
        # X on qubit 1 of |00> lands on basis index 2
        out = apply_single_qubit(basis_state(2, 0), 1, X)
        np.testing.assert_allclose(out.amps, basis_state(2, 2).amps, atol=1e-15)

    def test_phase_on_odd_indices(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        out = apply_single_qubit(bell, 0, Z)
        np.testing.assert_allclose(
            out.amps, np.array([1, 0, 0, -1]) / math.sqrt(2), atol=1e-15
        )

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            state = StateVector(n, haar_state(n, rng))
            # random unitary via QR
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u, _ = np.linalg.qr(a)
            out = apply_single_qubit(state, int(rng.integers(0, n)), u)
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for n in range(1, 5):
            state = StateVector(n, haar_state(n, rng))
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for q in range(n):
                expected = dense_gate_on_qubit(g, q, n) @ state.amps
                np.testing.assert_allclose(
                    apply_single_qubit(state, q, g).amps, expected, atol=1e-12
                )


class TestProjectorEnumeration:
    def test_enumeration_size(self):
        for n in (1, 3, 5):
            ids = projector_ids(n)
            assert len(ids) == 6 * n
            assert len(set(ids)) == 6 * n


class TestApplyPauliProjector:
    def test_z_plus_keeps_eigenstate(self):
        out = _project_amps(basis_state(1, 0).amps, "z", 0, 1)
        np.testing.assert_allclose(out, [1, 0], atol=1e-15)

    def test_x_plus_on_one(self):
        # <x+|1>|x+> = (1/2)(1, 1)
        out = _project_amps(basis_state(1, 1).amps, "x", 0, 1)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_y_minus_on_zero(self):
        # <y-|0>|y-> = (1/2)(1, -i)
        out = _project_amps(basis_state(1, 0).amps, "y", 0, -1)
        np.testing.assert_allclose(out, [0.5, -0.5j], atol=1e-15)

    @pytest.mark.parametrize("axis,sign", AXES_SIGNS)
    def test_idempotent(self, axis, sign):
        rng = np.random.default_rng(21)
        for n in (1, 2, 4):
            state = StateVector(n, haar_state(n, rng))
            for q in range(n):
                once = _project_amps(state.amps, axis, q, sign)
                twice = _project_amps(once, axis, q, sign)
                np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_completeness(self):
        rng = np.random.default_rng(22)
        for n in (1, 3):
            state = StateVector(n, haar_state(n, rng))
            for axis in "xyz":
                for q in range(n):
                    plus = _project_amps(state.amps, axis, q, 1)
                    minus = _project_amps(state.amps, axis, q, -1)
                    np.testing.assert_allclose(plus + minus, state.amps, atol=1e-12)

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 4):
            state = StateVector(n, haar_state(n, rng))
            for axis in "xyz":
                for q in range(n):
                    p = sum(
                        np.linalg.norm(_project_amps(state.amps, axis, q, s)) ** 2
                        for s in (1, -1)
                    )
                    assert abs(p - 1.0) < 1e-12

    @pytest.mark.parametrize("axis,sign", AXES_SIGNS)
    def test_matches_dense_oracle(self, axis, sign):
        rng = np.random.default_rng(24)
        for n in range(1, 5):
            state = StateVector(n, haar_state(n, rng))
            for q in range(n):
                expected = dense_pauli_projector(axis, sign, q, n) @ state.amps
                out = _project_amps(state.amps, axis, q, sign)
                np.testing.assert_allclose(out, expected, atol=1e-12)


    @pytest.mark.parametrize("axis,sign", AXES_SIGNS)
    def test_rows_project_exactly_as_lone_states(self, axis, sign):
        rng = np.random.default_rng(25)
        rows = np.stack([haar_state(3, rng) for _ in range(4)])
        for q in range(3):
            batched = _project_amps(rows, axis, q, sign)
            lone = np.stack([_project_amps(row, axis, q, sign) for row in rows])
            np.testing.assert_array_equal(batched, lone)


class TestInnerProductAndBorn:
    """The overlap <a|b> as the metrics take it."""

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="qubit counts differ"):
            fidelity(basis_state(1, 0), basis_state(2, 0))
        with pytest.raises(ValueError, match="qubit counts differ"):
            trace_distance(basis_state(1, 0), basis_state(2, 0))


class TestStateFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        state = StateVector(3, haar_state(3, rng))
        path = tmp_path / "state.json"
        save_state(state, path, provenance={"kind": "arbitrary", "seed": 31})
        loaded = load_state(path)
        assert loaded.n == 3
        np.testing.assert_allclose(loaded.amps, state.amps, atol=0)

    def test_dict_fields(self):
        doc = state_to_dict(basis_state(1, 0))
        assert doc == {"n": 1, "amps": [[1.0, 0.0], [0.0, 0.0]], "normalized": True}

    def test_reader_rejects_non_finite_file(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(basis_state(1, 0), path)
        doc = json.loads(path.read_text())
        doc["amps"][1] = [float("nan"), 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="must be finite"):
            load_state(path)

    def test_reader_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            state_from_dict({"n": 2, "amps": [[1, 0], [0, 0]], "normalized": True})
