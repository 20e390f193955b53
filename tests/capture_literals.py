"""Print every rounding-pinned literal of the test suite, computed the way it
was first captured.

* The ``SERIAL_*`` tables of ``test_experiments.py``: the sweep and the AQFT
  study with one lone ``pie_run`` per start.
* The ``PER_DATASET_*`` tables of ``test_experiments.py``: the same
  harnesses with one ``pie_run_batch`` per dataset.
* ``README_CHAIN_N4_ESTIMATE`` of ``test_files.py``: the estimate of the five
  CLI commands of the n=4 README chain.

Each harness runs its own seeding and grid; only the engine call is swapped.
Floats print as their full ``repr``, so two outputs that ``diff`` clean are
the same values bit for bit. pytest does not collect this file. Run it from
the repository root:

    python tests/capture_literals.py > literals.txt

Re-capture procedure, for a change that moves a rounding-pinned value:

1. Test the changed kernel or step against an extended-precision oracle
   within a fixed bound, as ``oracles.extended_aqft`` (``mpmath``, 1e-15 on
   unit vectors) or ``oracles.dense_correction`` (1e-12) are used today.
2. Run Tier-1 and the acceptance tests: every acceptance statistic must
   stay inside its existing tolerance. No tolerance, bound or ``==`` of a
   pinned test is loosened.
3. Run this script at the parent commit and at the change, ``diff`` the two
   outputs, and replace each constant whose test no longer passes with its
   new table. List each moved literal, old -> new, in CHANGES.md.
4. Run the paper-scale test once (``QPTYCHO_FULL_SCALE=1``, about 16 min)
   and report its two means against the paper's 0.992 / 0.989 +- 0.01.
"""
from __future__ import annotations

import contextlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qptycho import PieConfig, SweepConfig, experiments, pie_run, pie_run_batch  # noqa: E402
from qptycho.cli import main  # noqa: E402
from qptycho.states import load_state  # noqa: E402


def lone_runs(jobs, config):
    """``experiments._run_datasets`` as one lone ``pie_run`` per start."""
    for dataset, seeds, reference in jobs:
        yield [pie_run(dataset, replace(config, init_seed=seed), reference) for seed in seeds]


def per_dataset_runs(jobs, config):
    """``experiments._run_datasets`` as one ``pie_run_batch`` per dataset."""
    for dataset, seeds, reference in jobs:
        yield pie_run_batch(dataset, config, seeds, reference)


def small_sweep(**overrides):
    """``test_experiments.small_sweep``."""
    base = dict(
        n_values=(2, 3), ensemble="arbitrary", states_per_n=3, runs_per_state=2,
        shots=(0,), pie=PieConfig(delta_beta=0.1), master_seed=7,
    )
    return SweepConfig(**{**base, **overrides})


SERIAL = {
    "SERIAL_SWEEP_ROWS": lambda: experiments.run_fidelity_sweep(small_sweep()),
    "SERIAL_SWEEP_ROWS_512": lambda: experiments.run_fidelity_sweep(small_sweep(shots=(512,))),
    "SERIAL_SWEEP_ROWS_SEPARABLE_SHUFFLED": lambda: experiments.run_fidelity_sweep(small_sweep(
        shots=(256,), ensemble="separable", unitary_family="separable",
        pie=PieConfig(delta_beta=0.1, shuffle_seed=3),
    )),
    "SERIAL_AQFT_ROWS": lambda: experiments.run_aqft_study(
        (3,), (2,), shots=1024, runs_per_state=2, master_seed=2,
    ),
    "SERIAL_AQFT_ROWS_5_ITERATIONS": lambda: experiments.run_aqft_study(
        (3,), (2,), shots=1024, runs_per_state=3, master_seed=2,
        pie=PieConfig(delta_beta=0.1, iterations=5),
    ),
}

PER_DATASET = {
    "PER_DATASET_SWEEP_ROWS": lambda: experiments.run_fidelity_sweep(SweepConfig(
        n_values=(4, 6), states_per_n=3, runs_per_state=4, shots=(1024,),
        pie=PieConfig(delta_beta=0.1), master_seed=5,
    )),
    "PER_DATASET_AQFT_ROWS": lambda: experiments.run_aqft_study(
        (3, 4), (2, 3), shots=1024, runs_per_state=3, pie=PieConfig(delta_beta=0.1),
        master_seed=4,
    ),
}


def print_table(name, rows):
    print(f"{name} = [")
    for row in rows:
        print(f"    {row!r},")
    print("]")


def readme_chain_estimate():
    """The n=4 README chain of ``test_files.test_readme_chain_estimate_is_pinned``.
    The commands' "wrote <path>" lines go to stderr."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        f = {name: str(Path(tmp) / f"{name}.json")
             for name in ("state", "data", "cal", "mitigated", "estimate")}
        for argv in (
            ["prepare-state", "--kind", "arbitrary", "-n", "4", "--seed", "11",
             "--out", f["state"]],
            ["run-protocol", "--state", f["state"], "--unitary", "qft", "--shots", "100000",
             "--readout-error", "0.025", "--seed", "12", "--out", f["data"]],
            ["calibrate", "-n", "4", "--readout-error", "0.025", "--shots", "20000",
             "--seed", "13", "--out", f["cal"]],
            ["mitigate", "--data", f["data"], "--calibration", f["cal"],
             "--out", f["mitigated"]],
            ["estimate", "--data", f["mitigated"], "--reference", f["state"], "--seed", "14",
             "--out", f["estimate"], "--trace-out", str(Path(tmp) / "trace.csv")],
        ):
            if main(argv) != 0:
                raise SystemExit(f"README chain failed at {argv[0]}")
        return [complex(a) for a in load_state(f["estimate"]).amps]


def capture():
    for tables, engine in ((SERIAL, lone_runs), (PER_DATASET, per_dataset_runs)):
        with mock.patch.object(experiments, "_run_datasets", engine):
            for name, run in tables.items():
                print_table(name, run())
    print_table("README_CHAIN_N4_ESTIMATE", readme_chain_estimate())


if __name__ == "__main__":
    capture()
