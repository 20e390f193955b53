import numpy as np
import pytest

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
# batched; the batched sweep and study must reproduce them to 1e-12.
SERIAL_SWEEP_ROWS = [(2, 0, 1.0, 0.0), (3, 0, 1.0, 0.0)]
SERIAL_SWEEP_ROWS_512 = [
    (2, 512, 0.9992961308062419, 0.0002953343264858195),
    (3, 512, 0.9977028454249489, 0.0009094603340665046),
]
SERIAL_SWEEP_ROWS_SEPARABLE_SHUFFLED = [
    (2, 256, 0.9974965462511537, 0.0028757401533122356),
    (3, 256, 0.9931872311560875, 0.002810978460181802),
]
SERIAL_AQFT_ROWS = [
    ("psi1_n", 3, 2, 0.9981266847703103, 0.0),
    ("psi2_n", 3, 2, 0.99740057166856, 1.5700924586837752e-16),
    ("psi3_n", 3, 2, 0.9986217001495729, 0.0),
    ("psi4_n", 3, 2, 0.999640565656621, 0.0),
    ("psi5_n", 3, 2, 0.998751323482195, 1.5700924586837752e-16),
]
SERIAL_AQFT_ROWS_5_ITERATIONS = [
    ("psi1_n", 3, 2, 0.9611853407819798, 0.020716483299220344),
    ("psi2_n", 3, 2, 0.9747353953143164, 0.012816967331108773),
    ("psi3_n", 3, 2, 0.9889531817975262, 0.002521573675385041),
    ("psi4_n", 3, 2, 0.9955861622040869, 9.001880537520159e-06),
    ("psi5_n", 3, 2, 0.9950412335223463, 7.033959687075556e-06),
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

    def test_sweep_separable_shuffled_early_stop(self):
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


class TestCsvWriter:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, AQFT_HEADER, [("ghz", 3, 2, 0.99, 0.001)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "state,n,m,mean_fidelity,std_fidelity"
        assert lines[1] == "ghz,3,2,0.99,0.001"


# Rows of the per-dataset engine (one pie_run_batch per state) before the
# states of a cell shared engine passes; the grouped rows must equal them
# exactly.
PER_DATASET_SWEEP_ROWS = [
    (4, 1024, 0.9978111562424123, 0.0010320864900241508),
    (6, 1024, 0.9927515150251697, 0.00098387774148269),
]
PER_DATASET_AQFT_ROWS = [
    ("psi1_n", 3, 2, 0.9981440803903641, 4.849735384191193e-11),
    ("psi1_n", 3, 3, 0.9982047281249998, 3.338028360244911e-11),
    ("psi2_n", 3, 2, 0.9979961848614266, 4.175332609913867e-11),
    ("psi2_n", 3, 3, 0.9989357200314597, 1.1633625298007656e-11),
    ("psi3_n", 3, 2, 0.9990800086265156, 5.1915066190526014e-14),
    ("psi3_n", 3, 3, 0.999179744382151, 2.1037976390103547e-13),
    ("psi4_n", 3, 2, 0.9988150730904358, 9.405618628159414e-08),
    ("psi4_n", 3, 3, 0.9990807269410725, 4.770416919518565e-13),
    ("psi5_n", 3, 2, 0.9980672432483074, 1.7362093304560588e-11),
    ("psi5_n", 3, 3, 0.9995244041571585, 1.6184983543521627e-11),
    ("psi1_n", 4, 2, 0.9982389653377632, 1.222602616886852e-08),
    ("psi1_n", 4, 3, 0.9992063380956644, 7.094192718123908e-12),
    ("psi2_n", 4, 2, 0.9961618056878656, 2.0818986842505177e-08),
    ("psi2_n", 4, 3, 0.9987749813509841, 3.947062184981998e-12),
    ("psi3_n", 4, 2, 0.9984738773743107, 1.8405294580400032e-13),
    ("psi3_n", 4, 3, 0.997249532266514, 1.382562698389227e-13),
    ("psi4_n", 4, 2, 0.9984473116951768, 1.5050968589622026e-09),
    ("psi4_n", 4, 3, 0.9989814453519107, 6.129574528756116e-11),
    ("psi5_n", 4, 2, 0.9990320275415852, 1.1749496091904413e-15),
    ("psi5_n", 4, 3, 0.9984224799552407, 1.5628856805902468e-13),
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
