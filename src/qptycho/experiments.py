"""Scripted simulation studies with CSV output.

Two harnesses: a fidelity sweep over qubit counts and shot budgets for a
random state ensemble, and a study of the approximate-transform degree on
the fixed benchmark states. Every cell derives its RNG seeds from the
master seed and a structured key, so re-runs (including partial ones) are
bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# pie_run is unused here; perfbench's multistart-sweep workload patches experiments.pie_run.
from .pie import PieConfig, _run_datasets, pie_run
from .protocol import generate_dataset
from .seeding import derive_seed, shot_count
from .stateprep import random_arbitrary, random_separable, table_states
from .states import _integer
from .states import _write_csv as write_csv  # the CLI's table writer
from .transforms import UnitarySpec

MAX_QUBITS = 16

ENSEMBLES = ("separable", "arbitrary", "table")


def _qubit_counts(n_values, minimum: int = 1) -> tuple:
    """``n_values`` as a non-empty tuple of ints within minimum..MAX_QUBITS."""
    counts = tuple(_integer(n, "n_values must hold integers", minimum) for n in n_values)
    if not counts:
        raise ValueError("n_values must be non-empty")
    if max(counts) > MAX_QUBITS:
        raise ValueError(f"qubit counts must be within {minimum}..{MAX_QUBITS}, got {max(counts)}")
    return counts


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for :func:`run_fidelity_sweep`. ``unitary_family`` is
    spelled as :meth:`UnitarySpec.parse` reads it, e.g. ``"aqft:2"``."""

    n_values: tuple
    ensemble: str = "arbitrary"
    states_per_n: int = 20
    runs_per_state: int = 20
    shots: tuple = (2**13,)
    unitary_family: str = "qft"
    pie: PieConfig = field(default_factory=lambda: PieConfig(delta_beta=0.1))
    master_seed: int = 0

    def __post_init__(self):
        minimum = 2 if self.ensemble == "table" else 1  # the benchmark table starts at n=2
        object.__setattr__(self, "n_values", _qubit_counts(self.n_values, minimum))
        shots = tuple(shot_count(s, what="shots must hold integers") for s in self.shots)
        if not shots:
            raise ValueError("shots must be non-empty")
        object.__setattr__(self, "shots", shots)  # 0 means exact
        for name, minimum in (("states_per_n", 1), ("runs_per_state", 1), ("master_seed", 0)):
            value = _integer(getattr(self, name), f"{name} must be an integer", minimum)
            object.__setattr__(self, name, value)
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"ensemble must be one of {ENSEMBLES}, got {self.ensemble!r}")
        # Checked against the smallest n: a degree that fits it fits every n.
        UnitarySpec.parse(self.unitary_family, min(self.n_values), 0)


def _draw_states(cfg: SweepConfig, n: int):
    if cfg.ensemble == "table":
        return table_states(n)
    draw = random_separable if cfg.ensemble == "separable" else random_arbitrary
    return [
        (f"{cfg.ensemble}-{idx}", draw(n, derive_seed(cfg.master_seed, "state", n, idx)))
        for idx in range(cfg.states_per_n)
    ]


def _cell_fidelities(jobs, shots: int, runs: int, master_seed: int, pie: PieConfig, prefix=""):
    """Final fidelities of ``runs`` starts on one dataset per job, one list
    per job, from shared engine passes. A job is ``(state, unitary, key)``:
    its dataset is seeded by ``(prefix + "data", *key)`` and start r by
    ``(prefix + "init", *key, r)``. Datasets are drawn as the passes need them."""

    def job(state, unitary, key):
        dataset = generate_dataset(
            state, unitary, shots, seed=derive_seed(master_seed, prefix + "data", *key)
        )
        seeds = [derive_seed(master_seed, prefix + "init", *key, run) for run in range(runs)]
        return dataset, seeds, state

    return [
        [trace.final_fidelity() for _, trace in runs_of_job]
        for runs_of_job in _run_datasets((job(*spec) for spec in jobs), pie)
    ]


def _mean_std(values) -> tuple:
    """Mean and sample standard deviation of ``values``; the deviation of a
    single value is 0."""
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return float(np.mean(values)), std


def run_fidelity_sweep(cfg: SweepConfig):
    """Mean/std of reconstruction fidelity per (n, shots) grid cell.

    The engine reconstructs ``runs_per_state`` distinct starting guesses of
    each state, the states of a cell grouped into shared engine passes, and
    each state's fidelities are averaged; the returned mean and sample
    standard deviation are then taken across states. Rows are
    ``(n, shots, mean_fidelity, std_fidelity)``.
    """
    rows = []
    for n in cfg.n_values:
        states = [state for _, state in _draw_states(cfg, n)]
        # A separable family draws a fresh basis per state, as in the measurement studies.
        unitaries = [
            UnitarySpec.parse(cfg.unitary_family, n, derive_seed(cfg.master_seed, "unitary", n, idx))
            for idx in range(len(states))
        ]
        for shots in cfg.shots:
            jobs = (
                (state, unitary, (n, idx, shots))
                for idx, (state, unitary) in enumerate(zip(states, unitaries))
            )
            fids = _cell_fidelities(jobs, shots, cfg.runs_per_state, cfg.master_seed, cfg.pie)
            rows.append((n, shots, *_mean_std([float(np.mean(f)) for f in fids])))
    return rows


def run_aqft_study(
    n_values,
    m_values,
    shots: int = 20_000,
    runs_per_state: int = 10,
    pie: PieConfig | None = None,
    master_seed: int = 0,
):
    """Benchmark-state fidelities under the degree-m approximate transform.

    Rows are ``(state_tag, n, m, mean_fidelity, std_fidelity)`` with mean and
    sample std across ``runs_per_state`` engine runs on one dataset of
    ``shots`` shots per circuit. Degrees larger than n are skipped. The
    states of one (n, m) cell share engine passes.
    """
    pie = pie if pie is not None else PieConfig(delta_beta=0.04)
    n_values = _qubit_counts(n_values, 2)
    m_values = [_integer(m, "m_values must hold integers", 1) for m in m_values]
    if not m_values:
        raise ValueError("m_values must be non-empty")
    shots = shot_count(shots)
    runs_per_state = _integer(runs_per_state, "runs_per_state must be an integer", 1)
    master_seed = _integer(master_seed, "master_seed must be an integer", 0)
    rows = []
    for n in n_values:
        states = table_states(n)
        degrees = [m for m in m_values if m <= n]
        cells = {
            m: _cell_fidelities(
                ((state, UnitarySpec.aqft(m), (n, tag, m)) for tag, state in states),
                shots, runs_per_state, master_seed, pie, "aqft-",
            )
            for m in dict.fromkeys(degrees)
        }
        for idx, (tag, _) in enumerate(states):
            rows += [(tag, n, m, *_mean_std(cells[m][idx])) for m in degrees]
    return rows


SWEEP_HEADER = ("n", "shots", "mean_fidelity", "std_fidelity")
AQFT_HEADER = ("state", "n", "m", "mean_fidelity", "std_fidelity")
