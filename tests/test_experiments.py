import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qptycho

from qptycho import (
    PieConfig,
    SweepConfig,
    UnitarySpec,
    generate_dataset,
    pie_run,
    random_arbitrary,
    run_aqft_study,
    run_fidelity_sweep,
)
from qptycho import pie
from qptycho.experiments import AQFT_HEADER, SWEEP_HEADER, write_csv


def small_sweep(**overrides):
    base = dict(
        n_values=(2, 3),
        ensemble="arbitrary",
        states_per_n=3,
        runs_per_state=2,
        shots=(0,),
        pie=PieConfig(delta_beta=0.1),
        master_seed=7,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_sweep(ensemble="weird")
        with pytest.raises(ValueError):
            small_sweep(states_per_n=0)
        with pytest.raises(ValueError):
            small_sweep(n_values=(20,))
        with pytest.raises(ValueError):
            small_sweep(unitary_family="aqft")
        with pytest.raises(ValueError):
            small_sweep(shots=(-1,))

    @pytest.mark.parametrize("field, value", [
        ("shots", (2.7,)), ("shots", (True,)), ("shots", ("8192",)),
        ("states_per_n", 2.5), ("states_per_n", "3"), ("runs_per_state", True),
        ("runs_per_state", 0), ("master_seed", 1.5), ("master_seed", -1),
        ("n_values", (2.5,)), ("n_values", ("3",)),
    ])
    def test_rejects_non_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must"):
            small_sweep(**{field: value})

    def test_numpy_integers_become_int(self):
        cfg = small_sweep(n_values=(np.int64(2),), shots=(np.int64(0),), states_per_n=np.int32(2))
        assert (cfg.n_values, cfg.shots, cfg.states_per_n) == ((2,), (0,), 2)
        assert all(type(v) is int for v in (cfg.n_values[0], cfg.shots[0], cfg.states_per_n))

    @pytest.mark.parametrize("family", ["aqft:2.5", "aqft:x", "aqft:0", "aqft"])
    def test_rejects_non_integer_aqft_degree(self, family):
        with pytest.raises(ValueError, match="integer degree m >= 1"):
            small_sweep(unitary_family=family)

    def test_rejects_aqft_degree_above_the_smallest_qubit_count(self):
        # n_values=(2, 3): degree 3 fits n=3 but not n=2, so no cell may run.
        with pytest.raises(ValueError, match="m=3 exceeds qubit count n=2"):
            small_sweep(unitary_family="aqft:3", n_values=(2, 3))
        assert small_sweep(unitary_family="aqft:2", n_values=(2, 3)).unitary_family == "aqft:2"


class TestFidelitySweep:
    def test_exact_data_gives_near_perfect_fidelity(self):
        rows = run_fidelity_sweep(small_sweep())
        assert len(rows) == 2
        for n, shots, mean, std in rows:
            assert shots == 0
            assert mean > 0.9999
            assert std < 1e-4

    def test_row_count_matches_grid(self):
        rows = run_fidelity_sweep(small_sweep(shots=(0, 1024), n_values=(2,)))
        assert [(r[0], r[1]) for r in rows] == [(2, 0), (2, 1024)]

    def test_bit_identical_rerun(self, tmp_path):
        cfg = small_sweep(shots=(512,))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, SWEEP_HEADER, run_fidelity_sweep(cfg))
        write_csv(b, SWEEP_HEADER, run_fidelity_sweep(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_table_ensemble_uses_benchmark_states(self):
        rows = run_fidelity_sweep(small_sweep(ensemble="table", n_values=(2,)))
        assert len(rows) == 1
        assert rows[0][2] > 0.9999

    def test_separable_family_draws_per_state_unitaries(self):
        rows = run_fidelity_sweep(
            small_sweep(ensemble="separable", unitary_family="separable", n_values=(2,))
        )
        assert rows[0][2] > 0.999


class TestAqftStudy:
    def test_rows_and_degrees(self):
        rows = run_aqft_study(
            (3,), (2, 3, 4), shots=0, runs_per_state=2, master_seed=1
        )
        # degree 4 is skipped at n=3; 5 benchmark states x 2 degrees
        assert len(rows) == 10
        assert {(r[1], r[2]) for r in rows} == {(3, 2), (3, 3)}
        for tag, n, m, mean, std in rows:
            assert mean > 0.999

    def test_reproducible(self):
        a = run_aqft_study((3,), (2,), shots=1024, runs_per_state=2, master_seed=2)
        b = run_aqft_study((3,), (2,), shots=1024, runs_per_state=2, master_seed=2)
        assert a == b


# Rows of the serial engine (one pie_run per start) before starts were
# batched; the batched sweep and study must reproduce them to 1e-12. The
# AQFT rows were captured the same way again when the staged AQFT kernel
# replaced the dense matrix, since its last-bit rounding re-draws datasets.
# The separable shuffled and the 5-iteration AQFT rows were captured again
# when the engine came to correct both signs of a circuit in one step.
SERIAL_SWEEP_ROWS = [(2, 0, 1.0, 0.0), (3, 0, 1.0, 0.0)]
SERIAL_SWEEP_ROWS_512 = [
    (2, 512, 0.9992961308062419, 0.0002953343264858195),
    (3, 512, 0.9977028454249489, 0.0009094603340665046),
]
SERIAL_SWEEP_ROWS_SEPARABLE_SHUFFLED = [
    (2, 256, 0.9975478639668959, 0.002646133353147927),
    (3, 256, 0.9931812354192276, 0.0024367465577568026),
]
SERIAL_AQFT_ROWS = [
    ("psi1_n", 3, 2, 0.9980608812793097, 0.0),
    ("psi2_n", 3, 2, 0.9976207712385453, 1.5700924586837752e-16),
    ("psi3_n", 3, 2, 0.9985431341660876, 3.1401849173675503e-16),
    ("psi4_n", 3, 2, 0.9996436748870414, 0.0),
    ("psi5_n", 3, 2, 0.99931136565248, 0.0),
]
SERIAL_AQFT_ROWS_5_ITERATIONS = [
    ("psi1_n", 3, 2, 0.8970420567759212, 0.005367498226502324),
    ("psi2_n", 3, 2, 0.9829351103746586, 0.00343075957463201),
    ("psi3_n", 3, 2, 0.9848302238597548, 0.008712748331763331),
    ("psi4_n", 3, 2, 0.9957769103244031, 0.0001363942786297202),
    ("psi5_n", 3, 2, 0.9972479585243873, 3.6739591852556813e-05),
]


def assert_rows_close(rows, expected):
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        labels = [v for v in row if not isinstance(v, float)]
        assert labels == [v for v in want if not isinstance(v, float)]
        floats = [v for v in row if isinstance(v, float)]
        np.testing.assert_allclose(
            floats, [v for v in want if isinstance(v, float)], rtol=0, atol=1e-12
        )


class TestSerialRowsReproduced:
    def test_sweep(self):
        assert_rows_close(run_fidelity_sweep(small_sweep()), SERIAL_SWEEP_ROWS)

    def test_sweep_with_shots(self):
        assert_rows_close(run_fidelity_sweep(small_sweep(shots=(512,))), SERIAL_SWEEP_ROWS_512)

    def test_sweep_separable_shuffled(self):
        # Captured with a 1e-3 early-stop distance that never fired: all 12
        # traces ran the whole schedule, as every engine row now does.
        cfg = small_sweep(
            shots=(256,),
            ensemble="separable",
            unitary_family="separable",
            pie=PieConfig(delta_beta=0.1, shuffle_seed=3),
        )
        assert_rows_close(run_fidelity_sweep(cfg), SERIAL_SWEEP_ROWS_SEPARABLE_SHUFFLED)

    def test_aqft_study(self):
        rows = run_aqft_study((3,), (2,), shots=1024, runs_per_state=2, master_seed=2)
        assert_rows_close(rows, SERIAL_AQFT_ROWS)

    def test_aqft_study_short_runs(self):
        rows = run_aqft_study(
            (3,), (2,), shots=1024, runs_per_state=3, master_seed=2,
            pie=PieConfig(delta_beta=0.1, iterations=5),
        )
        assert_rows_close(rows, SERIAL_AQFT_ROWS_5_ITERATIONS)


class TestHarnessArguments:
    @pytest.mark.parametrize("run, field", [
        (lambda: small_sweep(shots=()), "shots"),
        (lambda: run_aqft_study((2,), ()), "m_values"),
    ], ids=["sweep", "aqft-study"])
    def test_empty_grids_rejected(self, run, field):
        with pytest.raises(ValueError, match=f"^{field} must be non-empty$"):
            run()

    @pytest.mark.parametrize("run", [
        lambda: small_sweep(n_values=(3, 1), ensemble="table"),
        lambda: run_aqft_study((3, 1), (1,), shots=64, runs_per_state=2),
    ], ids=["sweep", "aqft-study"])
    def test_benchmark_table_needs_two_qubits_before_any_cell_runs(self, run, engine_passes):
        with pytest.raises(ValueError, match=r"^n_values must hold integers >= 2, got 1$"):
            run()
        assert engine_passes == []

    @pytest.mark.parametrize("run", [
        lambda: small_sweep(shots=(0, 1 << 63)),
        lambda: run_aqft_study((3,), (1,), shots=1 << 63, runs_per_state=2),
    ], ids=["sweep", "aqft-study"])
    def test_shots_past_int64_are_refused_before_any_cell_runs(self, run, engine_passes):
        with pytest.raises(ValueError, match=r"^shots must be at most 2\^63 - 1, the most numpy draws"):
            run()
        assert engine_passes == []

    @pytest.mark.parametrize("kwargs, field", [
        (dict(runs_per_state=0), "runs_per_state"),
        (dict(runs_per_state=2.5), "runs_per_state"),
        (dict(shots=2.5), "shots"),
        (dict(master_seed=True), "master_seed"),
        (dict(m_values=(2.5,)), "m_values"),
        (dict(n_values=(17,)), "qubit counts"),
    ])
    def test_aqft_study(self, kwargs, field):
        args = dict(n_values=(3,), m_values=(2,), shots=64, runs_per_state=2)
        with pytest.raises(ValueError, match=field):
            run_aqft_study(**{**args, **kwargs})


class TestShotBudget:
    def test_n14_reconstructs_from_eight_times_2n_shots(self):
        # Infidelity tracks 2^n / shots: 2^17 = 8 * 2^14 shots per circuit
        # gave F = 0.993 on four seeds, where the default 2^13 collapses to 0.28.
        state = random_arbitrary(14, 1)
        dataset = generate_dataset(state, UnitarySpec.qft(), 2**17, seed=1)
        _, trace = pie_run(dataset, PieConfig(delta_beta=0.1), reference=state)
        assert trace.final_fidelity() >= 0.98


# One n=16 dataset and a 2-iteration reconstruction, then the child's peak
# resident set in MiB (Linux reports ru_maxrss in KiB).
N16_CHILD = """
import resource, sys
from qptycho import PieConfig, UnitarySpec, generate_dataset, pie_run, random_arbitrary
state = random_arbitrary(16, 1)
dataset = generate_dataset(state, UnitarySpec.parse(sys.argv[1], 16, 2), 2**13, seed=3)
_, trace = pie_run(dataset, PieConfig(iterations=2), reference=state)
assert len(trace.rows) == 2 and 0.0 <= trace.final_fidelity() <= 1.0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


class TestRange:
    @pytest.mark.parametrize("kind", ["qft", "aqft:2", "hadamard", "separable"])
    def test_n16_runs_in_under_600_mb(self, kind):
        # The advertised range is n <= 16 for every kind. Each kind peaks
        # near 230 MB, mostly the dataset's counts (50 MB) and targets.
        pythonpath = [str(Path(qptycho.__file__).resolve().parent.parent)]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        proc = subprocess.run(
            [sys.executable, "-c", N16_CHILD, kind],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 600


class TestCsvWriter:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, AQFT_HEADER, [("ghz", 3, 2, 0.99, 0.001)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "state,n,m,mean_fidelity,std_fidelity"
        assert lines[1] == "ghz,3,2,0.99,0.001"


# Rows of the per-dataset engine (one pie_run_batch per state) before the
# states of a cell shared engine passes; the grouped rows must equal them
# exactly. The AQFT rows were captured the same way again for the staged
# AQFT kernel, and both tables again for the one-step-per-circuit engine.
PER_DATASET_SWEEP_ROWS = [
    (4, 1024, 0.9978111562424123, 0.0010320864900243288),
    (6, 1024, 0.9927514711299245, 0.00098375969981061),
]
PER_DATASET_AQFT_ROWS = [
    ("psi1_n", 3, 2, 0.9982830321370294, 1.7187652521432404e-11),
    ("psi1_n", 3, 3, 0.9981251085896, 3.904770026756354e-12),
    ("psi2_n", 3, 2, 0.9979564366659107, 3.919941949228666e-11),
    ("psi2_n", 3, 3, 0.9989867183551594, 1.0774637618100491e-11),
    ("psi3_n", 3, 2, 0.9993031861820753, 2.911283371556456e-14),
    ("psi3_n", 3, 3, 0.9991570379567797, 2.2673861160805349e-13),
    ("psi4_n", 3, 2, 0.9987299722101461, 1.207800685768095e-11),
    ("psi4_n", 3, 3, 0.9990657727950092, 9.59290836874911e-14),
    ("psi5_n", 3, 2, 0.9984902172192052, 1.4222626137828986e-09),
    ("psi5_n", 3, 3, 0.9984006620074674, 1.1976648212319244e-11),
    ("psi1_n", 4, 2, 0.9983516207928522, 5.945513670459577e-11),
    ("psi1_n", 4, 3, 0.9991602515218148, 1.4277065741998914e-11),
    ("psi2_n", 4, 2, 0.9960064652540742, 6.428505965303941e-08),
    ("psi2_n", 4, 3, 0.9986332985681378, 1.704985022973205e-11),
    ("psi3_n", 4, 2, 0.9981916583586248, 6.213361644681508e-13),
    ("psi3_n", 4, 3, 0.9971955301874726, 9.396973852159908e-15),
    ("psi4_n", 4, 2, 0.9983138013802448, 1.087429515920345e-09),
    ("psi4_n", 4, 3, 0.9990240641403446, 5.7203806635492337e-11),
    ("psi5_n", 4, 2, 0.9991323004860425, 5.661048867003676e-16),
    ("psi5_n", 4, 3, 0.9981444217598042, 9.491708887661172e-14),
]


class TestGroupedRows:
    def test_sweep(self, engine_passes):
        shapes = engine_passes
        cfg = SweepConfig(
            n_values=(4, 6), states_per_n=3, runs_per_state=4, shots=(1024,),
            pie=PieConfig(delta_beta=0.1), master_seed=5,
        )
        assert run_fidelity_sweep(cfg) == PER_DATASET_SWEEP_ROWS
        assert shapes == [(4, 3, 4), (6, 3, 4)]  # one pass per cell

    def test_aqft_study(self, engine_passes):
        shapes = engine_passes
        rows = run_aqft_study(
            (3, 4), (2, 3), shots=1024, runs_per_state=3, pie=PieConfig(delta_beta=0.1),
            master_seed=4,
        )
        assert rows == PER_DATASET_AQFT_ROWS
        assert shapes == [(n, 5, 3) for n in (3, 4) for _ in (2, 3)]

    def test_separable_family_keeps_one_state_per_pass(self, engine_passes):
        shapes = engine_passes
        run_fidelity_sweep(small_sweep(ensemble="separable", unitary_family="separable"))
        assert shapes == [(n, 1, 2) for n in (2, 3) for _ in range(3)]

    def test_n12_sweep_makes_one_state_per_pass(self, engine_passes):
        shapes = engine_passes
        cfg = small_sweep(
            n_values=(12,), states_per_n=2, runs_per_state=20, shots=(1024,),
            pie=PieConfig(delta_beta=0.1, iterations=1),
        )
        run_fidelity_sweep(cfg)
        rows_per_pass = pie._CHUNK_AMPS >> 12
        assert rows_per_pass < 20
        chunks = [min(rows_per_pass, 20 - first) for first in range(0, 20, rows_per_pass)]
        assert shapes == [(12, 1, k) for _ in range(2) for k in chunks]
