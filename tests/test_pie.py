import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qptycho import (
    PieConfig,
    ProjectorId,
    StateVector,
    UnitarySpec,
    beta_schedule,
    fidelity,
    generate_dataset,
    named_state,
    normalize_dataset,
    pie_run,
    pie_run_batch,
    projector_ids,
    random_arbitrary,
    trace_distance,
)
from qptycho import pie
from qptycho.pie import _correction_amps, _normalized_rows
from qptycho.protocol import dataset_from_dict, dataset_to_dict
from qptycho.states import _project_amps

from conftest import with_counts
from oracles import basis_state, haar_state

QFT = UnitarySpec.qft()


class TestPieConfig:
    def test_default_iteration_counts(self):
        assert PieConfig(delta_beta=0.04).resolved_iterations() == 50
        assert PieConfig(delta_beta=0.1).resolved_iterations() == 20

    def test_constant_beta_needs_explicit_iterations(self):
        cfg = PieConfig(beta0=1.5, delta_beta=0.0, iterations=30)
        assert cfg.resolved_iterations() == 30
        with pytest.raises(ValueError):
            PieConfig(delta_beta=0.0)

    def test_schedule_must_stay_positive(self):
        with pytest.raises(ValueError):
            PieConfig(beta0=2.0, delta_beta=0.1, iterations=21)

    def test_rejects_nonpositive_beta0(self):
        with pytest.raises(ValueError):
            PieConfig(beta0=0.0)

    @pytest.mark.parametrize("beta0", [math.nan, math.inf, -math.inf, "2", True])
    def test_rejects_non_finite_beta0(self, beta0):
        with pytest.raises(ValueError, match="beta0 must be finite"):
            PieConfig(beta0=beta0, iterations=10)
        with pytest.raises(ValueError, match="beta0 must be finite"):
            PieConfig(beta0=beta0)

    @pytest.mark.parametrize("delta_beta", [math.nan, math.inf, -0.1, "0.1", True])
    def test_rejects_bad_delta_beta(self, delta_beta):
        with pytest.raises(ValueError, match="delta_beta must be finite"):
            PieConfig(delta_beta=delta_beta, iterations=10)

    @pytest.mark.parametrize("iterations", [0, -3, 2.5, 20.0, True, False, "20", math.nan])
    def test_rejects_non_integer_or_nonpositive_iterations(self, iterations):
        with pytest.raises(ValueError, match="iterations must be None or an integer >= 1"):
            PieConfig(iterations=iterations)

    @pytest.mark.parametrize("field, value", [
        ("init_seed", 2.5), ("init_seed", True), ("init_seed", "1"), ("init_seed", None),
        ("init_seed", -1), ("shuffle_seed", 1.5), ("shuffle_seed", "x"),
        ("shuffle_seed", False), ("shuffle_seed", -2),
    ])
    def test_rejects_non_integer_seeds(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            PieConfig(**{field: value})

    def test_numpy_integer_seeds_become_int(self):
        cfg = PieConfig(init_seed=np.uint32(7), shuffle_seed=np.int64(3))
        assert (cfg.init_seed, cfg.shuffle_seed) == (7, 3)
        assert type(cfg.init_seed) is int and type(cfg.shuffle_seed) is int

    def test_numpy_integer_iterations_become_int(self):
        cfg = PieConfig(iterations=np.int64(20))
        assert cfg.iterations == 20 and type(cfg.iterations) is int


class TestBetaSchedule:
    def test_twenty_iteration_schedule(self):
        cfg = PieConfig(delta_beta=0.1)
        assert beta_schedule(1, cfg) == pytest.approx(2.0)
        assert beta_schedule(20, cfg) == pytest.approx(0.1)

    def test_fifty_iteration_schedule(self):
        cfg = PieConfig(delta_beta=0.04)
        assert beta_schedule(50, cfg) == pytest.approx(0.04)

    def test_constant_schedule(self):
        cfg = PieConfig(beta0=1.5, delta_beta=0.0, iterations=10)
        assert beta_schedule(1, cfg) == beta_schedule(10, cfg) == 1.5

    def test_out_of_range(self):
        cfg = PieConfig(delta_beta=0.1)
        with pytest.raises(ValueError):
            beta_schedule(0, cfg)
        with pytest.raises(ValueError):
            beta_schedule(21, cfg)


class TestMetrics:
    def test_trace_distance_extremes(self):
        zero, one = basis_state(1, 0), basis_state(1, 1)
        assert trace_distance(zero, zero) == 0.0
        assert trace_distance(zero, one) == pytest.approx(1.0)

    def test_trace_distance_plus_state(self):
        plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
        assert trace_distance(basis_state(1, 0), plus) == pytest.approx(1 / math.sqrt(2))

    def test_fidelity_extremes(self):
        zero, one = basis_state(1, 0), basis_state(1, 1)
        assert fidelity(zero, zero) == pytest.approx(1.0)
        assert fidelity(zero, one) == pytest.approx(0.0)

    def test_fidelity_distance_identity(self):
        rng = np.random.default_rng(91)
        for _ in range(25):
            a = StateVector(3, haar_state(3, rng))
            b = StateVector(3, haar_state(3, rng))
            assert fidelity(a, b) == pytest.approx(1 - trace_distance(a, b) ** 2, abs=1e-12)

    def test_unnormalized_inputs_are_normalized(self):
        a = StateVector(1, np.array([2.0, 0.0]))
        b = StateVector(1, np.array([0.0, 3.0]))
        assert fidelity(a, b) == pytest.approx(0.0)
        assert trace_distance(a, a) == pytest.approx(0.0)

    def test_distance_has_no_rounding_floor(self):
        # 1 - |<a|b>|^2 would cancel to ~1e-16 here, leaving a distance near 1e-8.
        rng = np.random.default_rng(94)
        rows_a, rows_b = [], []
        for _ in range(20):
            a = haar_state(4, rng)
            b = a + 1e-16 * haar_state(4, rng)
            b /= np.linalg.norm(b)
            assert trace_distance(StateVector(4, a), StateVector(4, b)) < 1e-12
            rows_a.append(a)
            rows_b.append(b)
        assert np.all(pie._distance(np.array(rows_a), np.array(rows_b)) < 1e-12)

    def test_zero_vector_rejected(self):
        zero = StateVector(1, np.zeros(2))
        with pytest.raises(ValueError):
            fidelity(zero, basis_state(1, 0))
        with pytest.raises(ValueError):
            trace_distance(zero, basis_state(1, 0))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_state_rejected(self):
        # StateVector refuses NaN amplitudes itself; finite amplitudes whose
        # norm overflows to inf still reach the metrics' own check.
        nan = StateVector(1, np.array([1e308, 1e308]))
        with pytest.raises(ValueError, match="finite"):
            fidelity(nan, basis_state(1, 0))
        with pytest.raises(ValueError, match="finite"):
            trace_distance(basis_state(1, 0), nan)


class TestCorrectionStep:
    def test_fixed_point(self):
        # targets consistent with the estimate leave it untouched
        rng = np.random.default_rng(92)
        estimate = StateVector(2, haar_state(2, rng))
        for pid in projector_ids(2):
            tilde = QFT.apply_amps(
                _project_amps(estimate.amps, pid.axis, pid.qubit, pid.sign), 2
            )
            target = np.abs(tilde)
            out = _correction_amps(estimate.amps, 2, pid, target, QFT, 1.7)
            np.testing.assert_allclose(out, estimate.amps, atol=1e-12)

    def test_zero_beta_is_identity(self):
        rng = np.random.default_rng(93)
        estimate = StateVector(2, haar_state(2, rng))
        pid = ProjectorId("y", 1, -1)
        target = np.abs(haar_state(2, rng))
        out = _correction_amps(estimate.amps, 2, pid, target, QFT, 0.0)
        np.testing.assert_allclose(out, estimate.amps, atol=1e-15)

    def test_orthogonal_estimate_hand_computed(self):
        # estimate |1>, projector (z, 0, +), target (1,1)/sqrt(2): the
        # projected estimate vanishes, the zero-phase convention makes the
        # corrected transform equal the target, and U^dag maps it to |0>,
        # so the update is |1> + beta |0>.
        beta = 1.3
        target = np.array([1, 1]) / math.sqrt(2)
        out = _correction_amps(
            basis_state(1, 1).amps, 1, ProjectorId("z", 0, 1), target, QFT, beta
        )
        np.testing.assert_allclose(out, [beta, 1.0], atol=1e-12)

    def test_subnormal_magnitudes_get_phase_one(self):
        # numpy divides by a real magnitude through 1/mag, which overflows
        # below the smallest normal double: such entries take phase 1, as an
        # exact zero does, not inf or nan with a RuntimeWarning.
        identity = UnitarySpec.separable([(0.0, 0.0, 0.0)] * 3)
        amps = np.full(8, 0.5, dtype=complex)
        amps[:4] = [1e-310, 1e-310 + 1e-310j, 3e-320j, 0.0]
        target = np.full(8, 0.25)
        out = _correction_amps(amps, 3, ProjectorId("z", 2, 1), target, identity, 1.5)
        expected = amps.copy()
        expected[:4] += 1.5 * (target[:4] - amps[:4])
        np.testing.assert_array_equal(out, expected)

    def test_input_validation(self):
        # Targets reach the step only from a dataset, which is checked when
        # built: a record of the wrong length (refused by the reader; a
        # built dataset takes only a whole counts array), or negative counts
        # that would give negative targets, never reaches the engine.
        dataset = generate_dataset(named_state("psi5", 2), QFT, 64, seed=1)
        counts = dataset.records[0].counts
        doc = dataset_to_dict(dataset)
        doc["records"][0]["counts"] = counts[:6].tolist()
        with pytest.raises(ValueError, match=r"record \(x, 0\) has length 6"):
            pie_run(dataset_from_dict(doc))
        with pytest.raises(ValueError, match=r"record \(x, 0\) holds negative counts"):
            pie_run(with_counts(dataset, 0, np.r_[-1.0, counts[1:]]))


class TestPieRun:
    def test_exact_data_reconstructs_bell_state(self):
        state = named_state("psi5", 2)
        dataset = generate_dataset(state, QFT, 0)
        estimate, trace = pie_run(dataset, PieConfig(init_seed=1), reference=state)
        assert trace.final_fidelity() > 1 - 1e-6
        assert abs(np.linalg.norm(estimate.amps) - 1.0) < 1e-12

    def test_exact_data_high_fidelity_across_states(self):
        for tag, n in (("w", 3), ("psi1_n", 4), ("ghz", 3)):
            state = named_state(tag, n)
            dataset = generate_dataset(state, QFT, 0)
            _, trace = pie_run(dataset, PieConfig(init_seed=2), reference=state)
            assert trace.final_fidelity() > 1 - 1e-6, tag

    def test_hadamard_basis_fails_on_ghz_but_not_products(self):
        # with a plain per-qubit Hadamard as the final basis, exact data
        # still cannot pin down GHZ_4 while product states converge
        hadamard = UnitarySpec.hadamard()
        for tag in ("psi1_n", "psi2_n", "psi3_n"):
            state = named_state(tag, 4)
            dataset = generate_dataset(state, hadamard, 0)
            _, trace = pie_run(dataset, PieConfig(init_seed=3), reference=state)
            assert trace.final_fidelity() > 1 - 1e-3, tag
        ghz = named_state("ghz", 4)
        dataset = generate_dataset(ghz, hadamard, 0)
        fids = [
            pie_run(dataset, PieConfig(init_seed=s), reference=ghz)[1].final_fidelity()
            for s in range(5)
        ]
        assert max(fids) <= 0.9

    def test_fidelity_invariant_under_reference_phase(self):
        state = named_state("w", 3)
        rotated = StateVector(3, np.exp(0.7j) * state.amps)
        dataset = generate_dataset(state, QFT, 0)
        _, trace_a = pie_run(dataset, PieConfig(init_seed=2), reference=state)
        _, trace_b = pie_run(dataset, PieConfig(init_seed=2), reference=rotated)
        assert trace_a.final_fidelity() == pytest.approx(trace_b.final_fidelity(), abs=1e-12)

    def test_deterministic_given_config(self):
        dataset = generate_dataset(named_state("ghz", 3), QFT, 2048, seed=94)
        cfg = PieConfig(init_seed=5, shuffle_seed=11)
        est_a, trace_a = pie_run(dataset, cfg)
        est_b, trace_b = pie_run(dataset, cfg)
        np.testing.assert_array_equal(est_a.amps, est_b.amps)
        assert [r.distance for r in trace_a.rows] == [r.distance for r in trace_b.rows]

    def test_interior_loop_never_renormalizes(self):
        # one iteration of pie_run must equal the raw correction sequence
        state = named_state("psi1", 2)
        dataset = generate_dataset(state, QFT, 0)
        targets = normalize_dataset(dataset)
        cfg = PieConfig(iterations=1, init_seed=3)
        estimate, _ = pie_run(dataset, cfg)
        amps = random_arbitrary(2, 3).amps
        for pid, target in zip(projector_ids(2), targets):
            amps = _correction_amps(amps, 2, pid, target, QFT, 2.0)
        np.testing.assert_allclose(
            estimate.amps, amps / np.linalg.norm(amps), atol=1e-13
        )

    def test_trace_rows_are_bounded_and_monotone_beta(self):
        dataset = generate_dataset(named_state("w", 3), QFT, 4096, seed=95)
        _, trace = pie_run(dataset, PieConfig(init_seed=4), reference=named_state("w", 3))
        betas = [row.beta for row in trace.rows]
        assert betas == sorted(betas, reverse=True)
        for row in trace.rows:
            assert 0.0 <= row.distance <= 1.0
            assert 0.0 <= row.fidelity <= 1.0

    def test_shuffled_order_still_converges(self):
        state = named_state("ghz", 2)
        dataset = generate_dataset(state, QFT, 0)
        _, trace = pie_run(dataset, PieConfig(init_seed=7, shuffle_seed=1), reference=state)
        assert trace.final_fidelity() > 0.999

    def test_missing_records_rejected(self):
        from qptycho.protocol import PtychoDataset

        with pytest.raises(ValueError):
            pie_run(PtychoDataset(n=2, unitary=QFT, shots_per_circuit=0, counts=[]))

    def test_reference_dimension_checked(self):
        dataset = generate_dataset(named_state("psi5", 2), QFT, 0)
        with pytest.raises(ValueError):
            pie_run(dataset, PieConfig(), reference=named_state("ghz", 3))


class TestPieTrace:
    def test_csv_output(self, tmp_path):
        state = named_state("psi5", 2)
        dataset = generate_dataset(state, QFT, 0)
        _, trace = pie_run(dataset, PieConfig(init_seed=8), reference=state)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,beta,distance,fidelity"
        assert len(lines) == 1 + len(trace.rows)
        assert lines[1].startswith("1,2.0,")

    def test_csv_without_reference_leaves_fidelity_blank(self, tmp_path):
        dataset = generate_dataset(named_state("psi5", 2), QFT, 0)
        _, trace = pie_run(dataset, PieConfig(init_seed=9))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_text().strip().splitlines()[1].endswith(",")


KINDS = ("qft", "aqft", "hadamard", "separable")


def spec_for(kind, n, seed=12):
    return {
        "qft": UnitarySpec.qft,
        "aqft": lambda: UnitarySpec.aqft(min(2, n)),
        "hadamard": UnitarySpec.hadamard,
        "separable": lambda: UnitarySpec.random_separable(n, seed),
    }[kind]()


def assert_rows_match_lone_runs(dataset, config, seeds, reference=None):
    """Each batched row equals pie_run with its seed, to 1e-12; returns the
    trace lengths."""
    batch = pie_run_batch(dataset, config, seeds, reference=reference)
    assert len(batch) == len(seeds)
    for seed, (estimate, trace) in zip(seeds, batch):
        lone_estimate, lone_trace = pie_run(
            dataset, replace(config, init_seed=seed), reference=reference
        )
        np.testing.assert_allclose(estimate.amps, lone_estimate.amps, rtol=0, atol=1e-12)
        assert len(trace.rows) == len(lone_trace.rows)
        for row, lone in zip(trace.rows, lone_trace.rows):
            assert (row.iteration, row.beta) == (lone.iteration, lone.beta)
            assert row.distance == pytest.approx(lone.distance, rel=0, abs=1e-12)
            if reference is None:
                assert row.fidelity is None
            else:
                assert row.fidelity == pytest.approx(lone.fidelity, rel=0, abs=1e-12)
    return [len(trace.rows) for _, trace in batch]


class TestPieRunBatch:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_match_lone_runs_for_every_kind(self, n, kind):
        spec = spec_for(kind, n)
        state = StateVector(n, haar_state(n, np.random.default_rng(100 + n)))
        dataset = generate_dataset(state, spec, 1024, seed=101)
        assert_rows_match_lone_runs(dataset, PieConfig(delta_beta=0.1), [3, 1, 4, 1, 5], state)

    @pytest.mark.parametrize("kind", KINDS)
    def test_shared_shuffled_order(self, kind):
        state = StateVector(3, haar_state(3, np.random.default_rng(102)))
        dataset = generate_dataset(state, spec_for(kind, 3), 512, seed=103)
        cfg = PieConfig(delta_beta=0.1, shuffle_seed=17)
        assert_rows_match_lone_runs(dataset, cfg, [0, 1, 2, 3], state)

    def test_rows_stop_early_at_their_own_iteration(self):
        state = named_state("w", 3)
        dataset = generate_dataset(state, QFT, 0)
        cfg = PieConfig(delta_beta=0.04, shuffle_seed=5)
        lengths = assert_rows_match_lone_runs(dataset, cfg, list(range(8)), state)
        # Exact data converges long before the schedule ends; no row stops.
        assert lengths == [cfg.resolved_iterations()] * 8

    def test_chunk_boundaries(self, monkeypatch):
        # 16 amplitudes per chunk at n=3 is 2 rows: 5 rows make 3 chunks, the
        # last one partial, and each chunk restarts the shuffled order.
        monkeypatch.setattr(pie, "_CHUNK_AMPS", 16)
        state = named_state("ghz", 3)
        dataset = generate_dataset(state, UnitarySpec.aqft(2), 2048, seed=104)
        cfg = PieConfig(delta_beta=0.04, shuffle_seed=6)
        assert_rows_match_lone_runs(dataset, cfg, [9, 8, 7, 6, 5], state)

    def test_chunks_do_not_change_rows(self, monkeypatch):
        dataset = generate_dataset(named_state("psi1_n", 3), QFT, 1024, seed=105)
        cfg = PieConfig(delta_beta=0.1, shuffle_seed=2)
        whole = pie_run_batch(dataset, cfg, range(6))
        monkeypatch.setattr(pie, "_CHUNK_AMPS", 24)  # 3 rows per chunk at n=3
        split = pie_run_batch(dataset, cfg, range(6))
        for (a, _), (b, _) in zip(whole, split):
            np.testing.assert_array_equal(a.amps, b.amps)

    def test_needs_a_seed(self):
        dataset = generate_dataset(named_state("psi5", 2), QFT, 0)
        with pytest.raises(ValueError):
            pie_run_batch(dataset, PieConfig(), [])

    @pytest.mark.parametrize("seeds", [[1.5], [-1], [True], ["3"], [0, np.float64(2.0)]])
    def test_seeds_must_be_non_negative_integers(self, seeds):
        dataset = generate_dataset(named_state("psi5", 2), QFT, 0)
        with pytest.raises(ValueError, match="init_seeds must hold integers >= 0"):
            pie_run_batch(dataset, PieConfig(), seeds)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 3),
        kind=st.sampled_from(KINDS),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        data_seed=st.integers(0, 2**32 - 1),
        shuffle_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_property_rows_match_lone_runs(self, n, kind, seeds, data_seed, shuffle_seed):
        spec = spec_for(kind, n, data_seed)
        rng = np.random.default_rng(data_seed)
        state = StateVector(n, haar_state(n, rng))
        dataset = generate_dataset(state, spec, 256, seed=data_seed)
        cfg = PieConfig(delta_beta=0.2, shuffle_seed=shuffle_seed)
        assert_rows_match_lone_runs(dataset, cfg, seeds, state)


class TestNonFiniteEstimates:
    def test_diverging_run_raises_naming_the_iteration(self):
        dataset = generate_dataset(named_state("w", 3), QFT, 0)
        cfg = PieConfig(beta0=1e200, delta_beta=0.0, iterations=3)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="iteration 1"):
            pie_run(dataset, cfg)

    def test_zero_row_rejected(self):
        amps = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="iteration 7"):
            _normalized_rows(amps, 7)

    def test_nan_dataset_never_reports_a_fidelity(self):
        state = named_state("psi5", 2)
        dataset = generate_dataset(state, QFT, 0)
        counts = np.r_[np.nan, dataset.records[0].counts[1:]]
        with pytest.raises(ValueError, match=r"record \(x, 0\) counts must be finite"):
            pie_run(with_counts(dataset, 0, counts), PieConfig(), reference=state)


def grouped_and_lone(datasets, config, seeds, states):
    """Rows of one grouped engine call and of pie_run_batch per dataset:
    estimates equal bit for bit, traces row for row. Returns the trace
    lengths, one list per dataset."""
    grouped = list(pie._run_datasets(zip(datasets, seeds, states), config))
    assert len(grouped) == len(datasets)
    lengths = []
    for dataset, starts, state, runs in zip(datasets, seeds, states, grouped):
        lone = pie_run_batch(dataset, config, starts, reference=state)
        assert len(runs) == len(lone) == len(starts)
        for (estimate, trace), (lone_estimate, lone_trace) in zip(runs, lone):
            assert np.array_equal(estimate.amps, lone_estimate.amps)
            assert trace.rows == lone_trace.rows
        lengths.append([len(trace.rows) for _, trace in runs])
    return lengths


def cell(kind, n, count, shots=512, starts=3, seed=200):
    """``count`` datasets of one (n, unitary) cell with their starts and states."""
    spec = spec_for(kind, n)
    states = [StateVector(n, haar_state(n, np.random.default_rng(seed + i))) for i in range(count)]
    datasets = [generate_dataset(s, spec, shots, seed=seed + i) for i, s in enumerate(states)]
    seeds = [[seed + 10 * i + k for k in range(starts)] for i in range(count)]
    return datasets, seeds, states


GROUPED_KINDS = ("qft", "aqft", "hadamard")


class TestGroupedPasses:
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("kind", GROUPED_KINDS)
    def test_rows_equal_per_dataset_batches(self, n, kind, engine_passes):
        datasets, seeds, states = cell(kind, n, 4)
        grouped_and_lone(datasets, PieConfig(delta_beta=0.1), seeds, states)
        assert engine_passes[0] == (n, 4, 3)  # the grouped call was one pass

    @pytest.mark.parametrize("kind", GROUPED_KINDS)
    def test_shuffled_order(self, kind):
        datasets, seeds, states = cell(kind, 4, 3)
        grouped_and_lone(datasets, PieConfig(delta_beta=0.1, shuffle_seed=8), seeds, states)

    @pytest.mark.parametrize("kind", GROUPED_KINDS)
    def test_datasets_stop_at_different_iterations(self, kind):
        datasets, seeds, states = cell(kind, 3, 4, shots=0, starts=4, seed=210)
        cfg = PieConfig(delta_beta=0.04, shuffle_seed=5)
        lengths = grouped_and_lone(datasets, cfg, seeds, states)
        # Exact data converges long before the schedule ends; no dataset leaves the pass.
        assert lengths == [[cfg.resolved_iterations()] * 4] * 4

    @pytest.mark.parametrize("budget, shapes_seen", [
        (56, [(3, 2, 3), (3, 2, 3), (3, 1, 3)]),  # 7 rows at n=3: two datasets a pass
        (16, [(3, 1, 2), (3, 1, 1)] * 5),  # 2 rows: each dataset split into start chunks
    ])
    @pytest.mark.parametrize("kind", GROUPED_KINDS)
    def test_pass_boundaries(self, kind, budget, shapes_seen, monkeypatch, engine_passes):
        monkeypatch.setattr(pie, "_CHUNK_AMPS", budget)
        datasets, seeds, states = cell(kind, 3, 5, seed=220)
        cfg = PieConfig(delta_beta=0.04, shuffle_seed=6)
        grouped_and_lone(datasets, cfg, seeds, states)
        assert engine_passes[: len(shapes_seen)] == shapes_seen

    def test_without_references(self):
        datasets, seeds, _ = cell("qft", 3, 2)
        jobs = zip(datasets, seeds, [None] * len(datasets))
        grouped = pie._run_datasets(jobs, PieConfig(delta_beta=0.1))
        for dataset, starts, runs in zip(datasets, seeds, grouped):
            lone = pie_run_batch(dataset, PieConfig(delta_beta=0.1), starts)
            assert [t.rows for _, t in runs] == [t.rows for _, t in lone]
            assert all(row.fidelity is None for _, t in runs for row in t.rows)

    def test_stream_splits_into_passes_on_n_unitary_and_start_count(self, engine_passes):
        datasets, seeds, states = cell("qft", 3, 3)
        other, other_seeds, other_states = cell("hadamard", 3, 1)
        small, small_seeds, small_states = cell("qft", 2, 1)
        jobs = [
            (datasets[0], seeds[0], states[0]),
            (datasets[1], seeds[1], states[1]),  # shares the first pass
            (other[0], other_seeds[0], other_states[0]),  # another unitary
            (datasets[2], seeds[2], states[2]),  # back to qft: a new pass
            (small[0], small_seeds[0], small_states[0]),  # another n
            (datasets[0], seeds[0][:2], states[0]),  # another start count
            (datasets[1], seeds[1], None),  # no reference
        ]
        cfg = PieConfig(delta_beta=0.1)
        grouped = list(pie._run_datasets(jobs, cfg))
        assert engine_passes == [(3, 2, 3), (3, 1, 3), (3, 1, 3), (2, 1, 3), (3, 1, 2), (3, 1, 3)]
        assert len(grouped) == len(jobs)
        for (dataset, starts, state), runs in zip(jobs, grouped):
            lone = pie_run_batch(dataset, cfg, starts, reference=state)
            for (estimate, trace), (lone_estimate, lone_trace) in zip(runs, lone, strict=True):
                assert np.array_equal(estimate.amps, lone_estimate.amps)
                assert trace.rows == lone_trace.rows
        with pytest.raises(ValueError, match="reference has n=2"):
            list(pie._run_datasets([jobs[0], (datasets[1], seeds[1], named_state("ghz", 2))], cfg))

    def test_lazy_stream_is_drawn_one_pass_ahead(self, monkeypatch, engine_passes):
        monkeypatch.setattr(pie, "_CHUNK_AMPS", 48)  # 6 rows at n=3: 2 datasets x 3 starts
        datasets, seeds, states = cell("qft", 3, 5)
        drawn, drawn_at_pass = [], []

        def jobs():
            for job in zip(datasets, seeds, states):
                drawn.append(job)
                yield job

        spy = pie._run_rows

        def counting(*args):
            drawn_at_pass.append(len(drawn))
            return spy(*args)

        monkeypatch.setattr(pie, "_run_rows", counting)
        results = pie._run_datasets(jobs(), PieConfig(delta_beta=0.1, iterations=2))
        assert drawn == []  # nothing is drawn before a result is asked for
        next(results)
        assert len(list(results)) == 4
        # Each pass runs with at most one pass plus one job drawn: a full pass
        # runs before the next job is drawn.
        assert drawn_at_pass == [2, 4, 5]
        assert engine_passes == [(3, 2, 3), (3, 2, 3), (3, 1, 3)]
