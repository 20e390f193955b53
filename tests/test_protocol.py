import math
import re
from dataclasses import replace

import numpy as np
import pytest

from qptycho import (
    ReadoutNoiseModel,
    StateVector,
    UnitarySpec,
    circuit_settings,
    dataset_to_csv,
    generate_dataset,
    load_dataset,
    named_state,
    normalize_dataset,
    projector_ids,
    sample_shots,
    save_dataset,
)
from qptycho.mitigation import build_calibration, corrupt_counts, mitigate
from qptycho.protocol import CircuitRecord, PtychoDataset
from qptycho.states import _project_amps

from conftest import with_counts
from oracles import basis_state, dense_joint_distribution, dense_qft, haar_state, looped_joint_laws

QFT = UnitarySpec.qft()


class TestExactJointDistribution:
    def test_zero_state_z_circuit(self):
        p = generate_dataset(basis_state(1, 0), QFT, 0).records[2].counts  # (z, 0)
        np.testing.assert_allclose(p, [0.5, 0.5, 0, 0], atol=1e-15)

    def test_projector_eigenstate_keeps_one_block(self):
        plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
        p = generate_dataset(plus, UnitarySpec.hadamard(), 0).records[0].counts  # (x, 0)
        assert p[:2].sum() == pytest.approx(1.0, abs=1e-12)
        assert p[2:].sum() == pytest.approx(0.0, abs=1e-12)

    def test_block_sums_are_outcome_probabilities(self):
        rng = np.random.default_rng(71)
        for n in (1, 2, 3):
            state = StateVector(n, haar_state(n, rng))
            for rec in generate_dataset(state, QFT, 0).records:
                axis, q, p = rec.axis, rec.qubit, rec.counts
                assert p.sum() == pytest.approx(1.0, abs=1e-10)
                for s_index, sign in enumerate((1, -1)):
                    branch = _project_amps(state.amps, axis, q, sign)
                    block = p[s_index << n : (s_index + 1) << n].sum()
                    assert block == pytest.approx(np.linalg.norm(branch) ** 2, abs=1e-10)

    def test_matches_dense_pipeline(self):
        rng = np.random.default_rng(72)
        for n in (1, 2, 3):
            mat = dense_qft(n)
            state = StateVector(n, haar_state(n, rng))
            for rec in generate_dataset(state, QFT, 0).records:
                axis, q, p = rec.axis, rec.qubit, rec.counts
                for s_index, sign in enumerate((1, -1)):
                    expected = dense_joint_distribution(
                        state.amps, axis, sign, q, mat, n
                    )
                    np.testing.assert_allclose(
                        p[s_index << n : (s_index + 1) << n], expected, atol=1e-12
                    )

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            generate_dataset(StateVector(1, np.array([1.0, 1.0])), QFT, 0)


class TestSampleShots:
    def test_degenerate_distribution(self):
        counts = sample_shots(np.array([1.0, 0.0]), 100, rng=0)
        np.testing.assert_array_equal(counts, [100, 0])

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(73)
        p = rng.random(16)
        p /= p.sum()
        assert sample_shots(p, 12345, rng).sum() == 12345

    def test_binomial_concentration(self):
        counts = sample_shots(np.array([0.5, 0.5]), 100_000, rng=74)
        sigma = math.sqrt(100_000 * 0.25)
        assert abs(counts[0] - 50_000) < 5 * sigma

    def test_seed_determinism(self):
        p = np.array([0.25, 0.25, 0.5])
        a = sample_shots(p, 1000, rng=75)
        b = sample_shots(p, 1000, rng=75)
        np.testing.assert_array_equal(a, b)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_shots(np.array([1.1, -0.1]), 10)
        with pytest.raises(ValueError):
            sample_shots(np.array([0.4, 0.4]), 10)
        with pytest.raises(ValueError):
            sample_shots(np.array([1.0, 0.0]), 0)

    @pytest.mark.parametrize("shots", [2.5, True, np.float64(3.0), "10"])
    def test_shots_must_be_an_integer(self, shots):
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            sample_shots(np.array([0.5, 0.5]), shots, 1)

    def test_numpy_integer_shots_accepted(self):
        assert sample_shots(np.array([0.5, 0.5]), np.int64(7), 1).sum() == 7


class TestPublicEntryPoints:
    @pytest.mark.parametrize("call, message", [
        (lambda: sample_shots([np.nan, 1.0], 10, 0), "probabilities p sum to nan"),
        (lambda: sample_shots([[0.6, 0.4]], 10, 0), r"p must be one distribution \(1-D\)"),
        (lambda: corrupt_counts([np.nan, 1.0, 0.0, 0.0], ReadoutNoiseModel.identity(2)),
         "distribution p must be finite"),
        (lambda: mitigate([1.0, np.inf, 0.0, 0.0], build_calibration(1, ReadoutNoiseModel.identity(2), 0)),
         "record counts must be finite"),
    ], ids=["sample_shots-nan", "sample_shots-2d", "corrupt_counts-nan", "mitigate-inf"])
    def test_bad_input_names_the_argument(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestGenerateDataset:
    def test_record_count_and_length(self):
        dataset = generate_dataset(named_state("ghz", 2), QFT, 100, seed=76)
        assert len(dataset.records) == 6
        assert all(rec.counts.shape == (8,) for rec in dataset.records)

    def test_exact_sentinel_stores_probabilities(self):
        state = named_state("w", 3)
        dataset = generate_dataset(state, QFT, 0)
        for rec, expected in zip(dataset.records, looped_joint_laws(state, QFT), strict=True):
            np.testing.assert_array_equal(rec.counts, expected)

    def test_counts_sum_to_shots(self):
        dataset = generate_dataset(named_state("ghz", 3), QFT, 4096, seed=77)
        for rec in dataset.records:
            assert rec.counts.sum() == 4096

    def test_identity_noise_equals_noiseless(self):
        state = named_state("psi5", 2)
        noiseless = generate_dataset(state, QFT, 1000, seed=78)
        with_identity = generate_dataset(
            state, QFT, 1000, noise=ReadoutNoiseModel.identity(3), seed=78
        )
        for a, b in zip(noiseless.records, with_identity.records):
            np.testing.assert_array_equal(a.counts, b.counts)

    def test_seed_reproducibility(self):
        state = named_state("w", 3)
        a = generate_dataset(state, QFT, 500, seed=79)
        b = generate_dataset(state, QFT, 500, seed=79)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.counts, rb.counts)

    @pytest.mark.parametrize("shots", [2.5, True, -1])
    def test_shots_must_be_an_integer(self, shots):
        with pytest.raises(ValueError, match="shots must be an integer >= 0"):
            generate_dataset(named_state("ghz", 2), QFT, shots, seed=1)

    def test_numpy_integer_shots_stored_as_int(self):
        dataset = generate_dataset(named_state("ghz", 2), QFT, np.int64(100), seed=76)
        assert type(dataset.shots_per_circuit) is int
        reference = generate_dataset(named_state("ghz", 2), QFT, 100, seed=76)
        for a, b in zip(dataset.records, reference.records):
            np.testing.assert_array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10])
    @pytest.mark.parametrize("kind", ["qft", "aqft", "hadamard", "separable"])
    def test_records_match_the_looped_laws_bit_for_bit(self, kind, n):
        rng = np.random.default_rng(90 + n)
        unitary = {
            "qft": QFT,
            "aqft": UnitarySpec.aqft(min(2, n)),
            "hadamard": UnitarySpec.hadamard(),
            "separable": UnitarySpec.random_separable(n, rng),
        }[kind]
        state = StateVector(n, haar_state(n, rng))
        laws = looped_joint_laws(state, unitary)
        for shots in (0, 8192):
            for noise in (None, ReadoutNoiseModel.symmetric(n + 1, 0.025)):
                dataset = generate_dataset(state, unitary, shots, noise=noise, seed=91)
                children = np.random.SeedSequence(91).spawn(3 * n)
                for rec, law, child in zip(dataset.records, laws, children, strict=True):
                    expected = law if noise is None else corrupt_counts(law, noise)
                    if shots:
                        expected = sample_shots(expected, shots, child).astype(np.float64)
                    np.testing.assert_array_equal(
                        rec.counts.view(np.uint64), expected.view(np.uint64)
                    )

    def test_exact_run_draws_no_entropy_without_a_seed(self):
        state = named_state("w", 3)
        assert generate_dataset(state, QFT, 0).seed is None
        assert generate_dataset(state, QFT, 0, seed=5).seed == 5
        assert type(generate_dataset(state, QFT, 10).seed) is int

    def test_noise_model_size_checked(self):
        with pytest.raises(ValueError):
            generate_dataset(
                named_state("ghz", 2), QFT, 10, noise=ReadoutNoiseModel.identity(2)
            )


class TestNormalizeDataset:
    def test_joint_normalization(self):
        counts = np.array([50_000.0, 50_000.0, 0.0, 0.0])
        dataset = PtychoDataset(
            n=1,
            unitary=QFT,
            shots_per_circuit=100_000,
            counts=np.tile(counts, (3, 1)),
        )
        targets = normalize_dataset(dataset)
        assert targets.shape == (6, 2)
        # Rows follow projector_ids(1): (x, 0, +) is row 0, (x, 0, -) row 1.
        np.testing.assert_allclose(targets[0], np.sqrt([0.5, 0.5]))
        np.testing.assert_allclose(targets[1], [0, 0])

    def test_rows_follow_projector_ids(self):
        state = StateVector(3, haar_state(3, np.random.default_rng(73)))
        targets = normalize_dataset(generate_dataset(state, QFT, 0))
        assert targets.shape == (18, 8)
        laws = dict(zip(circuit_settings(3), looped_joint_laws(state, QFT), strict=True))
        for row, pid in zip(targets, projector_ids(3), strict=True):
            p = laws[pid.axis, pid.qubit]
            np.testing.assert_array_equal(row, np.sqrt(p[:8] if pid.sign == 1 else p[8:]))

    def test_exact_path_sums_to_one(self):
        state = named_state("ghz", 2)
        targets = normalize_dataset(generate_dataset(state, QFT, 0))
        for record, _ in enumerate(circuit_settings(2)):
            # Circuit i holds the sign blocks of rows 2i and 2i + 1.
            total = sum((targets[2 * record + s] ** 2).sum() for s in (0, 1))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_negative_entries_clip_to_zero(self):
        counts = np.array([1000.0, -3.0, 2.0, 1.0])
        dataset = PtychoDataset(
            n=1,
            unitary=QFT,
            shots_per_circuit=1000,
            counts=np.tile(counts, (3, 1)),
            mitigated=True,
        )
        targets = normalize_dataset(dataset)
        assert targets[0][1] == 0.0  # row 0 is (x, 0, +)

    def test_missing_records_rejected(self):
        with pytest.raises(ValueError, match="must hold 6 records in canonical"):
            normalize_dataset(PtychoDataset(n=2, unitary=QFT, shots_per_circuit=10, counts=[]))


class TestDatasetValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_record_rejects_non_finite_counts(self, bad):
        counts = np.zeros((6, 8))
        counts[:, 0] = 10.0
        counts[3, 1] = bad  # row 3 is circuit (y, 1) at n=2
        with pytest.raises(ValueError, match=r"record \(y, 1\) counts must be finite"):
            PtychoDataset(n=2, unitary=QFT, shots_per_circuit=10, counts=counts)

    def test_noninteger_unmitigated_counts_rejected(self):
        counts = np.full(4, 2.5)
        with pytest.raises(ValueError, match=r"\(x, 0\) must hold integers summing to exactly 10"):
            PtychoDataset(
                n=1,
                unitary=QFT,
                shots_per_circuit=10,
                counts=np.tile(counts, (3, 1)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts_rejected(self, bad):
        # The record's own check refuses them, so no dataset of any kind holds one.
        for shots, mitigated in ((0, False), (1000, False), (1000, True)):
            dataset = generate_dataset(named_state("ghz", 2), QFT, shots, seed=3)
            counts = dataset.records[2].counts.copy()
            counts[1] = bad
            with pytest.raises(ValueError, match=r"record \(y, 0\) counts must be finite"):
                with_counts(replace(dataset, mitigated=mitigated), 2, counts)

    def test_negative_raw_and_exact_entries_rejected(self):
        # Same totals as a valid record, so only the sign check can fire.
        raw = np.array([600.0, 500.0, -100.0, 0.0])
        exact = np.array([0.6, 0.5, -0.1, 0.0])
        for shots, counts in ((1000, raw), (0, exact)):
            with pytest.raises(ValueError, match=r"\(x, 0\) holds negative counts"):
                PtychoDataset(
                    n=1,
                    unitary=QFT,
                    shots_per_circuit=shots,
                    counts=np.tile(counts, (3, 1)),
                )

    def test_mitigated_sum_tolerance(self):
        counts = np.array([600.0, 500.0, -50.0, -49.0])
        with pytest.raises(ValueError, match=r"sums to 1001.0, expected 1000 within rel. 1e-6"):
            PtychoDataset(
                n=1,
                unitary=QFT,
                shots_per_circuit=1000,
                counts=np.tile(counts, (3, 1)),
                mitigated=True,
            )


class TestDatasetCounts:
    """A dataset holds one (3n, 2^(n+1)) array; its records are views of its rows."""

    def test_counts_are_read_only_and_owned(self):
        counts = generate_dataset(named_state("ghz", 2), QFT, 64, seed=4).counts.copy()
        dataset = PtychoDataset(n=2, unitary=QFT, shots_per_circuit=64, counts=counts)
        assert dataset.counts.shape == (6, 8) and dataset.counts.dtype == np.float64
        assert not dataset.counts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dataset.counts[0, 0] = 1.0
        assert not np.shares_memory(dataset.counts, counts)
        counts[0] = 0.0  # the caller's later write does not reach the dataset
        assert dataset.counts[0].sum() == 64

    def test_records_are_labelled_views_of_the_rows(self):
        dataset = generate_dataset(named_state("w", 3), QFT, 0)
        assert len(dataset.records) == 9
        for c, (rec, setting) in enumerate(zip(dataset.records, circuit_settings(3), strict=True)):
            assert isinstance(rec, CircuitRecord)
            assert (rec.axis, rec.qubit) == setting
            assert rec.counts.base is dataset.counts
            assert np.shares_memory(rec.counts, dataset.counts[c])
            assert np.array_equal(rec.counts, dataset.counts[c])
            assert not rec.counts.flags.writeable

    @pytest.mark.parametrize("shape", [(6,), (5, 8), (6, 4), (6, 2, 4), (0,)])
    def test_wrong_shape_names_the_expected_shape(self, shape):
        message = rf"must hold 6 records in canonical \(axis, qubit\) order: counts has shape " \
                  rf"{re.escape(str(shape))}, expected \(6, 8\)"
        with pytest.raises(ValueError, match=message):
            PtychoDataset(n=2, unitary=QFT, shots_per_circuit=0, counts=np.zeros(shape))


class TestDatasetFiles:
    def test_json_round_trip(self, tmp_path):
        dataset = generate_dataset(
            named_state("psi3", 2),
            UnitarySpec.aqft(2),
            2048,
            noise=ReadoutNoiseModel.symmetric(3, 0.025),
            seed=80,
        )
        path = tmp_path / "data.json"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.n == dataset.n
        assert loaded.unitary == dataset.unitary
        assert loaded.shots_per_circuit == 2048
        assert loaded.noise_model_id == "symmetric-0.025"
        assert loaded.seed == 80
        for ra, rb in zip(loaded.records, dataset.records):
            np.testing.assert_array_equal(ra.counts, rb.counts)

    def test_csv_export(self, tmp_path):
        dataset = generate_dataset(named_state("ghz", 2), QFT, 64, seed=81)
        path = tmp_path / "data.csv"
        dataset_to_csv(dataset, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "xi,q,s,j,count"
        assert len(lines) == 1 + 6 * 8
        first = lines[1].split(",")
        assert first[0] == "x" and first[1] == "0" and first[2] == "0" and first[3] == "0"


# seeding.shot_streams is the one seed rule of both shot-drawing entry points.
SHOT_DRAWS = {
    "generate_dataset": lambda shots, seed: generate_dataset(named_state("ghz", 2), QFT, shots, seed=seed),
    "build_calibration": lambda shots, seed: build_calibration(
        2, ReadoutNoiseModel.symmetric(3, 0.1), shots, seed=seed
    ),
}


@pytest.mark.parametrize("shots", [0, 16])
@pytest.mark.parametrize("seed", [
    True, 1.5, "3", -1, np.random.default_rng(1), np.random.SeedSequence(1),
], ids=["True", "1.5", "str", "-1", "Generator", "SeedSequence"])
@pytest.mark.parametrize("draw", sorted(SHOT_DRAWS))
def test_shot_seed_must_be_none_or_a_non_negative_integer(draw, seed, shots):
    message = f"seed must be None or an integer >= 0, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SHOT_DRAWS[draw](shots, seed)
