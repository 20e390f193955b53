import json

import numpy as np
import pytest

from qptycho import (
    CalibrationMatrix,
    ReadoutNoiseModel,
    build_calibration,
    corrupt_counts,
    load_calibration,
    mitigate,
    save_calibration,
)


class TestReadoutNoiseModel:
    def test_symmetric_builds_column_stochastic(self):
        model = ReadoutNoiseModel.symmetric(3, 0.1)
        assert model.num_bits == 3
        for c in model.bit_confusions:
            np.testing.assert_allclose(c.sum(axis=0), [1, 1])

    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            ReadoutNoiseModel((np.array([[0.9, 0.2], [0.2, 0.9]]),))
        with pytest.raises(ValueError):
            ReadoutNoiseModel.symmetric(1, 1.5)

    def test_asymmetric_constructor(self):
        model = ReadoutNoiseModel.from_flip_probabilities([0.1], [0.3])
        np.testing.assert_allclose(
            model.bit_confusions[0], [[0.9, 0.3], [0.1, 0.7]]
        )


class TestCorruptCounts:
    def test_identity_model(self):
        p = np.array([0.3, 0.2, 0.4, 0.1])
        np.testing.assert_array_equal(
            corrupt_counts(p, ReadoutNoiseModel.identity(2)), p
        )

    def test_single_bit_flip(self):
        model = ReadoutNoiseModel.symmetric(1, 0.1)
        np.testing.assert_allclose(corrupt_counts(np.array([1.0, 0.0]), model), [0.9, 0.1])

    def test_two_bit_tensor(self):
        # delta at 0 through flips 0.2 on bit 0 and 0.1 on bit 1: the joint
        # law factorizes, outcome index = 2*b1 + b0.
        model = ReadoutNoiseModel.from_flip_probabilities([0.2, 0.1], [0.2, 0.1])
        out = corrupt_counts(np.array([1.0, 0, 0, 0]), model)
        np.testing.assert_allclose(out, [0.72, 0.18, 0.08, 0.02])

    def test_bit_count_mismatch(self):
        with pytest.raises(ValueError):
            corrupt_counts(np.ones(4) / 4, ReadoutNoiseModel.identity(3))

    def test_preserves_total(self):
        rng = np.random.default_rng(61)
        model = ReadoutNoiseModel.symmetric(3, 0.07)
        p = rng.random(8)
        assert corrupt_counts(p, model).sum() == pytest.approx(p.sum(), rel=1e-12)


class TestBuildCalibration:
    def test_identity_exact(self):
        cal = build_calibration(2, ReadoutNoiseModel.identity(3), shots=0)
        np.testing.assert_array_equal(cal.register, np.eye(4))
        np.testing.assert_array_equal(cal.intermediate, np.eye(2))
        np.testing.assert_array_equal(cal.global_matrix, np.eye(8))

    def test_symmetric_exact_single_qubit(self):
        cal = build_calibration(1, ReadoutNoiseModel.symmetric(2, 0.1), shots=0)
        np.testing.assert_allclose(cal.register, [[0.9, 0.1], [0.1, 0.9]])
        np.testing.assert_allclose(cal.intermediate, [[0.9, 0.1], [0.1, 0.9]])

    def test_exact_columns_are_stochastic(self):
        cal = build_calibration(3, ReadoutNoiseModel.symmetric(4, 0.025), shots=0)
        np.testing.assert_allclose(cal.global_matrix.sum(axis=0), np.ones(16), atol=1e-12)

    def test_sampled_estimates_concentrate(self):
        shots = 100_000
        eps = 0.1
        cal = build_calibration(1, ReadoutNoiseModel.symmetric(2, eps), shots=shots, seed=62)
        for est in (cal.register, cal.intermediate):
            for j in range(2):
                for i in range(2):
                    p = eps if i != j else 1 - eps
                    sigma = np.sqrt(p * (1 - p) / shots)
                    assert abs(est[i, j] - p) < 5 * sigma

    def test_sampled_is_deterministic_per_seed(self):
        model = ReadoutNoiseModel.symmetric(3, 0.05)
        a = build_calibration(2, model, shots=1000, seed=63)
        b = build_calibration(2, model, shots=1000, seed=63)
        np.testing.assert_array_equal(a.register, b.register)
        np.testing.assert_array_equal(a.intermediate, b.intermediate)

    def test_model_size_mismatch(self):
        with pytest.raises(ValueError):
            build_calibration(2, ReadoutNoiseModel.identity(2), shots=0)


class TestMitigate:
    def test_identity_calibration_is_noop(self):
        cal = build_calibration(1, ReadoutNoiseModel.identity(2), shots=0)
        record = np.array([10.0, 20.0, 30.0, 40.0])
        np.testing.assert_allclose(mitigate(record, cal), record)

    def test_solve_inverts_multiply(self):
        rng = np.random.default_rng(64)
        cal = build_calibration(2, ReadoutNoiseModel.symmetric(3, 0.08), shots=0)
        x = rng.random(8) * 1000
        record = cal.global_matrix @ x
        np.testing.assert_allclose(mitigate(record, cal), x, rtol=1e-9)

    def test_two_level_toy(self):
        # M = [[0.9, 0.1], [0.1, 0.9]] applied to (85000, 15000): the solve
        # returns (93750, 6250).
        cal = CalibrationMatrix(np.eye(2), np.array([[0.9, 0.1], [0.1, 0.9]]))
        record = np.array([85_000.0, 15_000.0, 0.0, 0.0])
        out = mitigate(record, cal)
        np.testing.assert_allclose(out[:2], [93_750.0, 6_250.0], rtol=1e-12)

    def test_total_count_preserved(self):
        rng = np.random.default_rng(65)
        cal = build_calibration(2, ReadoutNoiseModel.symmetric(3, 0.025), shots=0)
        record = rng.integers(0, 1000, size=8).astype(float)
        out = mitigate(record, cal)
        assert out.sum() == pytest.approx(record.sum(), rel=1e-6)

    def test_round_trip_recovers_distribution(self):
        rng = np.random.default_rng(66)
        model = ReadoutNoiseModel.symmetric(4, 0.025)
        cal = build_calibration(3, model, shots=0)
        p = rng.random(16)
        p /= p.sum()
        recovered = mitigate(corrupt_counts(p, model), cal)
        np.testing.assert_allclose(recovered, p, rtol=1e-9, atol=1e-12)

    def test_singular_calibration_rejected(self):
        cal = CalibrationMatrix(np.eye(2), np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(np.linalg.LinAlgError, match="re-calibrate"):
            mitigate(np.ones(4), cal)


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        cal = build_calibration(
            2, ReadoutNoiseModel.symmetric(3, 0.05), shots=500, seed=67
        )
        path = tmp_path / "cal.json"
        save_calibration(cal, path)
        loaded = load_calibration(path)
        assert loaded.n == 2
        np.testing.assert_allclose(loaded.register, cal.register)
        np.testing.assert_allclose(loaded.intermediate, cal.intermediate)
        assert loaded.provenance["shots"] == 500

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"Mn": [1.0] * 15}, "Mn has 15 entries, expected 16"),
            ({"M1": [1.0, 0.0, 0.0]}, "M1 has 3 entries, expected 4"),
            ({"n": 3}, "Mn has 16 entries, expected 64"),
            ({"n": 0}, "n must be an integer"),
            ({"Mn": [float("nan")] + [0.0] * 15}, "Mn holds non-finite"),
            ({"M1": [1.0, float("inf"), 0.0, 1.0]}, "M1 holds non-finite"),
        ],
    )
    def test_bad_files_rejected(self, tmp_path, change, message):
        path = tmp_path / "cal.json"
        save_calibration(CalibrationMatrix(np.eye(2), np.eye(4)), path)
        doc = json.loads(path.read_text())
        doc.update(change)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_calibration(path)
