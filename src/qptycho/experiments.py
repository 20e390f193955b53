"""Scripted simulation studies with CSV output.

Three harnesses: a fidelity sweep over qubit counts and shot budgets for a
random state ensemble, a study of the approximate-transform degree on the
fixed benchmark states, and a wall-clock benchmark of the reconstruction
engine. Every cell derives its RNG seeds from the master seed and a
structured key, so re-runs (including partial ones) are bit-identical.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .pie import PieConfig, _datasets_per_pass, _run_datasets, pie_run
from .protocol import generate_dataset
from .seeding import derive_seed
from .stateprep import random_arbitrary, random_separable, table_states
from .transforms import KINDS, UnitarySpec

MAX_QUBITS = 16

ENSEMBLES = ("separable", "arbitrary", "table")


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for :func:`run_fidelity_sweep`."""

    n_values: tuple
    ensemble: str = "arbitrary"
    states_per_n: int = 20
    runs_per_state: int = 20
    shots: tuple = (2**13,)
    unitary_family: str = "qft"
    aqft_m: int | None = None
    pie: PieConfig = field(default_factory=lambda: PieConfig(delta_beta=0.1))
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "shots", tuple(int(s) for s in self.shots))
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"ensemble must be one of {ENSEMBLES}, got {self.ensemble!r}")
        if self.states_per_n < 1 or self.runs_per_state < 1:
            raise ValueError("states_per_n and runs_per_state must be >= 1")
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if any(not 1 <= n <= MAX_QUBITS for n in self.n_values):
            raise ValueError(f"qubit counts must be within 1..{MAX_QUBITS}")
        if any(s < 0 for s in self.shots):
            raise ValueError("shot counts must be >= 0 (0 means exact)")
        if self.unitary_family not in KINDS:
            raise ValueError(f"unknown unitary family {self.unitary_family!r}")
        if self.unitary_family == "aqft":
            # The degree's own checks, against every qubit count of the grid.
            UnitarySpec.aqft(self.aqft_m).validate_for(min(self.n_values))


def _draw_states(cfg: SweepConfig, n: int):
    if cfg.ensemble == "table":
        return table_states(n)
    draw = random_separable if cfg.ensemble == "separable" else random_arbitrary
    return [
        (f"{cfg.ensemble}-{idx}", draw(n, derive_seed(cfg.master_seed, "state", n, idx)))
        for idx in range(cfg.states_per_n)
    ]


def _resolve_unitary(cfg: SweepConfig, n: int, state_idx: int) -> UnitarySpec:
    if cfg.unitary_family == "qft":
        return UnitarySpec.qft()
    if cfg.unitary_family == "aqft":
        return UnitarySpec.aqft(cfg.aqft_m)
    if cfg.unitary_family == "hadamard":
        return UnitarySpec.hadamard()
    # A fresh random separable basis per state, as in the measurement studies.
    return UnitarySpec.random_separable(
        n, derive_seed(cfg.master_seed, "unitary", n, state_idx)
    )


def _final_fidelities(n: int, count: int, job, pie: PieConfig, starts: int, group: bool = True):
    """Final fidelity of every start of ``count`` datasets of one cell.

    ``job(i)`` returns the i-th ``(dataset, seeds, state)``; all share n,
    the unitary (when ``group``) and ``starts`` seeds. Datasets are made
    and reconstructed one engine pass at a time, so memory stays bounded by
    one pass. Returns one list of fidelities per dataset.
    """
    per_pass = _datasets_per_pass(n, starts) if group else 1
    fids = []
    for first in range(0, count, per_pass):
        datasets, seeds, states = zip(*(job(i) for i in range(first, min(count, first + per_pass))))
        for runs in _run_datasets(datasets, pie, seeds, states):
            fids.append([trace.final_fidelity() for _, trace in runs])
    return fids


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
        states = _draw_states(cfg, n)
        for shots in cfg.shots:

            def job(idx):
                state = states[idx][1]
                dataset = generate_dataset(
                    state,
                    _resolve_unitary(cfg, n, idx),
                    shots,
                    seed=derive_seed(cfg.master_seed, "data", n, idx, shots),
                )
                seeds = [
                    derive_seed(cfg.master_seed, "init", n, idx, shots, run)
                    for run in range(cfg.runs_per_state)
                ]
                return dataset, seeds, state

            # The separable family draws a unitary per state: one per pass.
            fids = _final_fidelities(n, len(states), job, cfg.pie, cfg.runs_per_state,
                                     group=cfg.unitary_family != "separable")
            state_means = [float(np.mean(f)) for f in fids]
            mean = float(np.mean(state_means))
            std = float(np.std(state_means, ddof=1)) if len(state_means) > 1 else 0.0
            rows.append((n, shots, mean, std))
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
    rows = []
    for n in n_values:
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit counts must be within 1..{MAX_QUBITS}")
        states = table_states(n)
        degrees = [m for m in m_values if m <= n]
        cells = {}
        for m in dict.fromkeys(degrees):

            def job(idx):
                tag, state = states[idx]
                dataset = generate_dataset(
                    state,
                    UnitarySpec.aqft(m),
                    shots,
                    seed=derive_seed(master_seed, "aqft-data", n, tag, m),
                )
                seeds = [
                    derive_seed(master_seed, "aqft-init", n, tag, m, run)
                    for run in range(runs_per_state)
                ]
                return dataset, seeds, state

            cells[m] = _final_fidelities(n, len(states), job, pie, runs_per_state)
        for idx, (tag, _) in enumerate(states):
            for m in degrees:
                fids = cells[m][idx]
                mean = float(np.mean(fids))
                std = float(np.std(fids, ddof=1)) if len(fids) > 1 else 0.0
                rows.append((tag, n, m, mean, std))
    return rows


def run_timing_bench(
    n_values,
    iterations: int = 20,
    repeats: int = 10,
    shots: int = 2**13,
    master_seed: int = 0,
):
    """Wall-clock cost of the reconstruction engine itself.

    Times ``pie_run`` on a pre-generated dataset (generation excluded) for a
    random state per qubit count. Rows are ``(n, mean_seconds, std_seconds)``
    over ``repeats`` runs. Each repeat is its own single-start ``pie_run``,
    not one row of a batch: the rows report the time of one reconstruction
    and its spread, which a batch would share out and hide.
    """
    if repeats < 2:
        raise ValueError("repeats must be >= 2 to report a spread")
    rows = []
    for n in n_values:
        state = random_arbitrary(n, derive_seed(master_seed, "bench-state", n))
        dataset = generate_dataset(
            state,
            UnitarySpec.qft(),
            shots,
            seed=derive_seed(master_seed, "bench-data", n),
        )
        pie_cfg = PieConfig(delta_beta=0.1, iterations=iterations)
        times = []
        for rep in range(repeats):
            cfg = replace(pie_cfg, init_seed=derive_seed(master_seed, "bench-init", n, rep))
            _, trace = pie_run(dataset, cfg)
            times.append(trace.total_seconds)
        rows.append((n, float(np.mean(times)), float(np.std(times, ddof=1))))
    return rows


def write_csv(path, header, rows):
    """Write rows with a mandatory header; floats keep full repr precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(list(row))


SWEEP_HEADER = ("n", "shots", "mean_fidelity", "std_fidelity")
AQFT_HEADER = ("state", "n", "m", "mean_fidelity", "std_fidelity")
BENCH_HEADER = ("n", "mean_seconds", "std_seconds")
