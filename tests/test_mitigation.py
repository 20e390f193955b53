import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qptycho import (
    CalibrationMatrix,
    ReadoutNoiseModel,
    UnitarySpec,
    build_calibration,
    corrupt_counts,
    generate_dataset,
    load_calibration,
    mitigate,
    mitigate_dataset,
    random_arbitrary,
    save_calibration,
)
from qptycho import mitigation
from qptycho.mitigation import MAX_CONDITION_NUMBER, _condition_bound, _neumann_terms

from oracles import dense_calibration, dense_readout_channel, full_size_neumann_bound


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

    @pytest.mark.parametrize("flip_prob", [1.5, -0.1, np.nan, "0.1", True])
    def test_symmetric_rejects_bad_flip_probability(self, flip_prob):
        with pytest.raises(ValueError, match="flip probability must be in"):
            ReadoutNoiseModel.symmetric(2, flip_prob)

    def test_asymmetric_constructor(self):
        model = ReadoutNoiseModel.from_flip_probabilities([0.1], [0.3])
        np.testing.assert_allclose(
            model.bit_confusions[0], [[0.9, 0.3], [0.1, 0.7]]
        )

    @pytest.mark.parametrize("p10, p01, message", [
        ([True], [False], r"p_read1_given0\[0\]: flip probability must be in \[0, 1\], got True"),
        (["0.1"], [0.1], r"p_read1_given0\[0\]: flip probability must be in \[0, 1\], got '0.1'"),
        ([0.1, 0.2], [0.1, np.nan], r"p_read0_given1\[1\]: flip probability must be in \[0, 1\], got nan"),
    ])
    def test_asymmetric_constructor_rejects_bad_entries(self, p10, p01, message):
        with pytest.raises(ValueError, match=message):
            ReadoutNoiseModel.from_flip_probabilities(p10, p01)


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
        np.testing.assert_array_equal(dense_calibration(cal), np.eye(8))

    def test_symmetric_exact_single_qubit(self):
        cal = build_calibration(1, ReadoutNoiseModel.symmetric(2, 0.1), shots=0)
        np.testing.assert_allclose(cal.register, [[0.9, 0.1], [0.1, 0.9]])
        np.testing.assert_allclose(cal.intermediate, [[0.9, 0.1], [0.1, 0.9]])

    def test_exact_columns_are_stochastic(self):
        cal = build_calibration(3, ReadoutNoiseModel.symmetric(4, 0.025), shots=0)
        np.testing.assert_allclose(dense_calibration(cal).sum(axis=0), np.ones(16), atol=1e-12)

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

    @pytest.mark.parametrize("shots", [2.5, True, "100", -1])
    def test_shots_must_be_an_integer(self, shots):
        with pytest.raises(ValueError, match="shots must be an integer >= 0"):
            build_calibration(2, ReadoutNoiseModel.identity(3), shots=shots)

    def test_shots_past_int64_are_refused(self):
        model = ReadoutNoiseModel.symmetric(2, 0.1)
        with pytest.raises(ValueError, match=r"^shots must be at most 2\^63 - 1, the most numpy draws"):
            build_calibration(1, model, shots=1 << 63, seed=1)
        cal = build_calibration(1, model, shots=(1 << 63) - 1, seed=1)
        np.testing.assert_allclose(cal.register, [[0.9, 0.1], [0.1, 0.9]], atol=1e-9)

    @pytest.mark.parametrize("n", [True, 2.0, "2", 0, -1])
    def test_qubit_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=rf"^qubit count must be an integer >= 1, got {n!r}$"):
            build_calibration(n, ReadoutNoiseModel.identity(2), 0)

    def test_sampled_matrices_pinned(self):
        # Literals captured before build_calibration formed its exact matrix
        # as a Kronecker product instead of one corrupt_counts call per column.
        model = ReadoutNoiseModel.from_flip_probabilities(
            [0.02, 0.05, 0.1], [0.06, 0.01, 0.15]
        )
        cal = build_calibration(2, model, 100, seed=7)
        assert np.array_equal(cal.intermediate, np.array([[0.87, 0.16], [0.13, 0.84]]))
        assert np.array_equal(
            cal.register,
            np.array(
                [
                    [0.91, 0.05, 0.01, 0.01],
                    [0.0, 0.93, 0.0, 0.0],
                    [0.09, 0.0, 0.99, 0.01],
                    [0.0, 0.02, 0.0, 0.98],
                ]
            ),
        )

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_exact_matrices_match_dense_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        model = ReadoutNoiseModel.from_flip_probabilities(
            rng.uniform(0, 0.3, n + 1), rng.uniform(0, 0.3, n + 1)
        )
        cal = build_calibration(n, model, shots=0)
        register = dense_readout_channel(model.bit_confusions[:n])
        np.testing.assert_allclose(cal.register, register, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            cal.intermediate, model.bit_confusions[n], rtol=0, atol=1e-15
        )
        # Bit for bit the channel corrupt_counts applies to each basis state.
        register_model = ReadoutNoiseModel(model.bit_confusions[:n])
        for j in range(1 << n):
            column = corrupt_counts(np.eye(1, 1 << n, j)[0], register_model)
            assert np.array_equal(cal.register[:, j], column)


class TestMitigate:
    def test_identity_calibration_is_noop(self):
        cal = build_calibration(1, ReadoutNoiseModel.identity(2), shots=0)
        record = np.array([10.0, 20.0, 30.0, 40.0])
        np.testing.assert_allclose(mitigate(record, cal), record)

    def test_solve_inverts_multiply(self):
        rng = np.random.default_rng(64)
        cal = build_calibration(2, ReadoutNoiseModel.symmetric(3, 0.08), shots=0)
        x = rng.random(8) * 1000
        record = dense_calibration(cal) @ x
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


def sampled_calibration(n, seed, max_flip=0.15, shots=2000):
    """Sampled calibration of a random asymmetric per-bit readout model."""
    rng = np.random.default_rng(seed)
    model = ReadoutNoiseModel.from_flip_probabilities(
        rng.uniform(0, max_flip, n + 1), rng.uniform(0, max_flip, n + 1)
    )
    return build_calibration(n, model, shots=shots, seed=seed)


class TestFactoredMitigation:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_stack_matches_per_record_and_dense_solve(self, n):
        cal = sampled_calibration(n, 70 + n)
        rng = np.random.default_rng(80 + n)
        stack = rng.integers(0, 5000, size=(3 * n, 2 << n)).astype(float)
        dense = np.linalg.solve(dense_calibration(cal), stack.T).T
        atol = 1e-12 * np.abs(dense).max()
        out = mitigate(stack, cal)
        assert out.shape == stack.shape
        np.testing.assert_allclose(out, dense, rtol=0, atol=atol)
        for record, row in zip(stack, out):
            np.testing.assert_allclose(mitigate(record, cal), row, rtol=0, atol=atol)
        nested = mitigate(stack.reshape(3, n, -1), cal)
        np.testing.assert_allclose(nested.reshape(stack.shape), out, rtol=0, atol=atol)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        max_flip=st.sampled_from([0.05, 0.2, 0.45]),
        shots=st.sampled_from([0, 100, 2000]),
    )
    def test_condition_number_is_the_dense_one(self, n, seed, max_flip, shots):
        cal = sampled_calibration(n, seed, max_flip, shots)
        dense = np.linalg.cond(dense_calibration(cal))
        if dense <= 1e4:
            assert cal.condition_number == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize(
        "intermediate, register",
        [([[0.5, 0.5], [0.5, 0.5]], np.eye(4)), (np.eye(2), np.full((4, 4), 0.25))],
        ids=["singular-M1", "singular-Mn"],
    )
    def test_singular_factor_rejected_before_any_solve(self, monkeypatch, intermediate, register):
        cal = CalibrationMatrix(intermediate, register)
        assert not cal.condition_number <= MAX_CONDITION_NUMBER

        def no_solve(*args, **kwargs):
            raise AssertionError("the guard let a solve run")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        with pytest.raises(np.linalg.LinAlgError, match="re-calibrate"):
            mitigate(np.ones((6, 8)), cal)

    @pytest.mark.parametrize("shape", [(), (4,), (16,), (6, 4), (8, 1)])
    def test_wrong_record_length_rejected(self, shape):
        cal = CalibrationMatrix(np.eye(2), np.eye(4))
        with pytest.raises(ValueError, match="does not match calibration n=2"):
            mitigate(np.ones(shape), cal)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_exact_calibration_inverts_corruption(self, n, seed):
        rng = np.random.default_rng(seed)
        model = ReadoutNoiseModel.from_flip_probabilities(
            rng.uniform(0, 0.2, n + 1), rng.uniform(0, 0.2, n + 1)
        )
        cal = build_calibration(n, model, shots=0)
        p = rng.random((3 * n, 2 << n))
        corrupted = np.stack([corrupt_counts(row, model) for row in p])
        np.testing.assert_allclose(mitigate(corrupted, cal), p, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("field", ["intermediate", "register"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_calibration_rejected(self, field, bad):
        mats = {"intermediate": np.eye(2), "register": np.eye(4)}
        mats[field][1, 0] = bad
        with pytest.raises(ValueError, match=f"{field} calibration matrix holds non-finite"):
            CalibrationMatrix(**mats)


class TestCalibrationMatrixInputs:
    def test_keeps_float64_inputs_without_copying(self):
        m1, mn = np.array([[0.9, 0.2], [0.1, 0.8]]), np.eye(4)
        cal = CalibrationMatrix(m1, mn)
        assert np.shares_memory(cal.intermediate, m1) and np.shares_memory(cal.register, mn)

    def test_a_checked_calibration_cannot_be_swapped_for_an_ill_conditioned_one(self):
        # Reassigning Mn after the condition number was cached would let the
        # stale value vouch for the new matrix and mitigate through it.
        model = ReadoutNoiseModel.symmetric(3, 0.1)
        cal = build_calibration(2, model, 0)
        assert cal.condition_number == pytest.approx(1.953125)
        ill = np.diag([1.0, 1.0, 1.0, 1e-13])
        with pytest.raises(dataclasses.FrozenInstanceError):
            cal.register = ill
        p = np.full(8, 1 / 8)
        np.testing.assert_allclose(mitigate(corrupt_counts(p, model), cal), p)
        with pytest.raises(np.linalg.LinAlgError, match="condition number 1.25e\\+13 exceeds 1e\\+12"):
            mitigate(corrupt_counts(p, model), CalibrationMatrix(cal.intermediate, ill))

    def test_converts_other_dtypes(self):
        m1, mn = np.eye(2, dtype=np.float32), np.eye(4, dtype=np.int64)
        for cal in (CalibrationMatrix(m1, mn), CalibrationMatrix(m1.tolist(), mn.tolist())):
            for mat, source in ((cal.intermediate, m1), (cal.register, mn)):
                assert mat.dtype == np.float64 and not np.shares_memory(mat, source)
                assert np.array_equal(mat, source)


class TestConditionBound:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        max_flip=st.sampled_from([0.05, 0.2, 0.45]),
        shots=st.sampled_from([0, 100, 2000]),
    )
    def test_bound_holds_against_the_dense_oracle(self, n, seed, max_flip, shots):
        cal = sampled_calibration(n, seed, max_flip, shots)
        bound = _condition_bound(cal)
        if np.isfinite(bound):
            # A proven inequality; the slack only covers the SVD's own rounding.
            assert np.linalg.cond(dense_calibration(cal)) <= bound * (1 + 1e-12)
        else:
            assert bound == np.inf

    def test_readme_settings_mitigate_without_an_svd(self, monkeypatch):
        # n=6, readout error 0.025, 20 000 calibration shots (the README chain).
        model = ReadoutNoiseModel.symmetric(7, 0.025)
        cal = build_calibration(6, model, shots=20_000, seed=1)
        dataset = generate_dataset(
            random_arbitrary(6, 2), UnitarySpec.qft(), 100_000, noise=model, seed=3
        )
        svd = np.linalg.svd

        def small_svd_only(a, *args, **kwargs):
            if np.shape(a)[-1] > 2:  # the 2x2 M1 may still be decomposed
                raise AssertionError("an SVD of the register matrix ran")
            return svd(a, *args, **kwargs)

        # np.linalg.cond looks svd up in its implementation module: patch both names.
        impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 2 or 1
        monkeypatch.setattr(np.linalg, "svd", small_svd_only)
        monkeypatch.setattr(impl, "svd", small_svd_only)
        with pytest.raises(AssertionError, match="an SVD of the register"):
            CalibrationMatrix(cal.intermediate, cal.register).condition_number
        mitigated = mitigate_dataset(dataset, cal)
        assert mitigated.mitigated and "condition_number" not in vars(cal)

    def test_flip_045_takes_the_exact_path(self):
        # Every diagonal entry of Mn is 0.55^2 < 1/2, so q = ||I - Mn||_1 >= 1.
        model = ReadoutNoiseModel.symmetric(3, 0.45)
        cal = build_calibration(2, model, shots=0)
        assert _condition_bound(cal) == np.inf
        p = np.random.default_rng(5).random(8)
        np.testing.assert_allclose(mitigate(corrupt_counts(p, model), cal), p, rtol=1e-9)
        assert "condition_number" in vars(cal)  # the guard read the exact value
        assert cal.condition_number == pytest.approx(1000.0, rel=1e-9)  # 10 x 10^2

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_bit_equal_to_the_full_size_expression(self, n):
        for cal in (build_calibration(n, ReadoutNoiseModel.symmetric(n + 1, 0.025), 20_000, seed=n),
                    sampled_calibration(n, seed=n, max_flip=0.05, shots=500)):
            q, bound = full_size_neumann_bound(cal)
            assert _neumann_terms(cal.register)[0] == q
            assert _condition_bound(cal) == bound

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 5, 64]))
    def test_row_blocks_add_in_the_full_size_order(self, n, seed, block):
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-300, 1e-3, 1.0, 1e300], size=(1 << n, 1 << n))
        cal = CalibrationMatrix(np.eye(2), rng.standard_normal((1 << n, 1 << n)) * scale)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mitigation, "_ROW_BLOCK", block)
            q = _neumann_terms(cal.register)[0]
        assert np.array_equal(q, full_size_neumann_bound(cal)[0])

    def test_identity_register_gives_n_times_cond_m1(self):
        # q = 0 for Mn = I, so the bound is N * cond(M1): no division by 1 - q ~ 0.
        cal = CalibrationMatrix(np.array([[0.9, 0.2], [0.1, 0.8]]), np.eye(8))
        assert _condition_bound(cal) == pytest.approx(8 * np.linalg.cond(cal.intermediate))


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

    def test_provenance_is_read_only(self, tmp_path):
        cal = build_calibration(1, ReadoutNoiseModel.symmetric(2, 0.125), shots=0)
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        save_calibration(cal, before)
        for change in (lambda p: p.__setitem__("seed", 99), lambda p: p.update(seed=99),
                       lambda p: p.pop("seed"), lambda p: p.clear()):
            with pytest.raises(TypeError, match="provenance is read-only"):
                change(cal.provenance)
        assert cal.provenance == {"model_id": "symmetric-0.125", "shots": 0, "seed": None}
        save_calibration(cal, after)
        assert after.read_bytes() == before.read_bytes()
        # The provenance block as the package wrote it before it became read-only.
        assert before.read_text().endswith(
            '  "provenance": {\n    "model_id": "symmetric-0.125",\n    "shots": 0,\n'
            '    "seed": null\n  }\n}\n'
        )

    def test_nested_provenance_is_read_only(self, tmp_path):
        source = {"lab": {"x": 0, "runs": [{"id": 1}]}, "l": [1, [2]]}
        path = tmp_path / "cal.json"
        save_calibration(CalibrationMatrix(np.eye(2), np.eye(2), source), path)
        cal = load_calibration(path)
        for change in (lambda p: p["lab"].__setitem__("x", 1), lambda p: p["l"].append(2),
                       lambda p: p["l"][1].extend([3]), lambda p: p["lab"]["runs"][0].pop("id"),
                       lambda p: p["l"].__setitem__(0, 9), lambda p: p["lab"]["runs"].clear()):
            with pytest.raises(TypeError, match="provenance is read-only"):
                change(cal.provenance)
        assert cal.provenance == source
        save_calibration(cal, path)
        assert load_calibration(path).provenance == source
        assert json.loads(path.read_text())["provenance"] == source

    def test_provenance_is_a_copy(self):
        source = {"model_id": "lab", "shots": 5}
        cal = CalibrationMatrix(np.eye(2), np.eye(2), source)
        source["shots"] = 6
        assert cal.provenance == {"model_id": "lab", "shots": 5}
        assert dataclasses.replace(cal).provenance == cal.provenance
        assert copy.deepcopy(cal).provenance == cal.provenance  # rebuilt whole, not key by key

    @pytest.mark.parametrize("provenance", [["seed", 1], "lab", 5])
    def test_provenance_must_be_an_object_or_null(self, tmp_path, provenance):
        with pytest.raises(ValueError, match="provenance must be an object or null"):
            CalibrationMatrix(np.eye(2), np.eye(2), provenance)
        path = tmp_path / "cal.json"
        save_calibration(CalibrationMatrix(np.eye(2), np.eye(2)), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(doc, provenance=provenance)))
        with pytest.raises(ValueError, match=rf"^calibration file .*cal\.json: provenance must be "
                                             rf"an object or null, got {type(provenance).__name__}$"):
            load_calibration(path)

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
