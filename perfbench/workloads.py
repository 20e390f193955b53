"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``__init__`` (the
set-up that ``setup_s`` times, including a warm-up that fills the program's
lazy caches), then runs any number of identical passes. ``run_pass`` runs
one pass as a fixed sequence of timed steps and returns ``(output,
step_seconds)``; ``check_pass`` inspects the output outside the timer and
returns ``(attempted, failed, mean_fidelity)``, where the operations are
``pie_run`` calls, CLI commands and kernel round trips.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import qptycho as qp

HERE = Path(__file__).resolve().parent

#: Amplitude norm and round-trip tolerance of the output checks.
NORM_ATOL = 1e-9
ROUND_TRIP_ATOL = 1e-12
MITIGATED_SUM_RTOL = 1e-6
#: A CLI command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 150


def _estimate_ok(amps: np.ndarray) -> bool:
    """Finite amplitudes with unit norm. The engine's own trace reports
    F = 1.0 for a NaN estimate, so the benchmark checks the vector itself."""
    return bool(np.all(np.isfinite(amps))) and abs(float(np.linalg.norm(amps)) - 1.0) < NORM_ATOL


def _fidelity(estimate: np.ndarray, reference: np.ndarray) -> float:
    return float(abs(np.vdot(reference / np.linalg.norm(reference), estimate)) ** 2)


def _child_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _random_amps(rng, n: int) -> np.ndarray:
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return z / np.linalg.norm(z)


def _unitary_kinds(rng, n: int) -> list:
    """One spec per final-unitary kind; the separable angles come from ``rng``."""
    return [qp.UnitarySpec.qft(), qp.UnitarySpec.aqft(2), qp.UnitarySpec.hadamard(),
            qp.UnitarySpec.random_separable(n, rng)]


class Workload:
    name = ""
    #: peak_rss_mb is taken over child processes instead of this one.
    rss_of_children = False
    #: (attempted, failed) operations checked during set-up.
    setup_ops = (0, 0)

    def close(self):
        pass


class MultistartSweep(Workload):
    """``run_fidelity_sweep``: n in {4, 6}, 4 arbitrary states x 16 starts."""

    name = "multistart-sweep"

    def __init__(self, seed: int, workroot: Path):
        from qptycho import experiments

        self.config = qp.SweepConfig(
            n_values=(4, 6),
            ensemble="arbitrary",
            states_per_n=4,
            runs_per_state=16,
            shots=(8192,),
            unitary_family="qft",
            pie=qp.PieConfig(delta_beta=0.1),
            master_seed=seed,
        )
        # The sweep returns only mean fidelities. Keep each estimate it gets
        # from a per-start pie_run call, so the benchmark can check it; a
        # sweep that reconstructs its starts in one batched call bypasses
        # this and is checked on its rows instead (see check_pass).
        self.runs = []
        run = experiments.pie_run

        def keep(dataset, config, reference=None):
            estimate, trace = run(dataset, config, reference=reference)
            self.runs.append((estimate.amps, reference.amps))
            return estimate, trace

        experiments.pie_run = keep
        # Warm-up: one reconstruction through the same path.
        qp.run_fidelity_sweep(qp.SweepConfig(n_values=(4,), states_per_n=1, runs_per_state=1,
                                             master_seed=seed))
        self.runs.clear()

    def run_pass(self, tracer=None):
        self.runs.clear()
        t0 = time.perf_counter()
        rows = qp.run_fidelity_sweep(self.config)
        return rows, [time.perf_counter() - t0]

    def check_pass(self, rows):
        """Every estimate when each start was captured, else every row.

        Per start: finite unit-norm amplitudes, and each row equal to the
        mean of its cell's checked fidelities. Per row (no per-start calls
        seen): a finite mean fidelity within [0, 1], every start of a bad row
        counted as failed. Either way mean_fidelity is then checked against
        the value stored for the seed, which catches a wrong batched result.
        """
        cfg = self.config
        per_row = cfg.states_per_n * cfg.runs_per_state
        attempted = len(cfg.n_values) * per_row
        if len(rows) != len(cfg.n_values):
            return attempted, attempted, float("nan")
        means = np.array([row[2] for row in rows], dtype=float)
        if len(self.runs) != attempted:
            failed = per_row * int(np.sum(~((means >= 0.0) & (means <= 1.0))))
            return attempted, failed, float(means.mean())
        failed = sum(not _estimate_ok(est) for est, _ in self.runs)
        fids = np.array([_fidelity(est, ref) for est, ref in self.runs])
        # Each sweep row holds the mean over states of the mean over starts.
        cells = fids.reshape(len(cfg.n_values), cfg.states_per_n, -1).mean(axis=2).mean(axis=1)
        if not np.allclose(means, cells, rtol=0.0, atol=1e-12):
            failed = attempted
        return attempted, failed, float(fids.mean())


class KindsN10(Workload):
    """One arbitrary n=10 state through each final unitary: dataset then pie_run."""

    name = "kinds-n10"
    n = 10
    shots = 8192

    def __init__(self, seed: int, workroot: Path):
        rng = np.random.default_rng(seed)
        self.state = qp.StateVector(self.n, _random_amps(rng, self.n))
        self.specs = _unitary_kinds(rng, self.n)
        seeds = _child_seeds(seed, 2 * len(self.specs))
        self.data_seeds, self.init_seeds = seeds[::2], seeds[1::2]
        # Warm-up: a forward + adjoint round trip per kind, which also fills
        # the aqft_matrix cache. Each round trip is a checked operation.
        failed = 0
        for spec in self.specs:
            back = spec.apply_amps(spec.apply_amps(self.state.amps, self.n), self.n, adjoint=True)
            failed += not float(np.max(np.abs(back - self.state.amps))) <= ROUND_TRIP_ATOL
        self.setup_ops = (len(self.specs), failed)

    def run_pass(self, tracer=None):
        estimates, steps = [], []
        for spec, data_seed, init_seed in zip(self.specs, self.data_seeds, self.init_seeds):
            t0 = time.perf_counter()
            dataset = qp.generate_dataset(self.state, spec, self.shots, seed=data_seed)
            t1 = time.perf_counter()
            estimate, _ = qp.pie_run(dataset, qp.PieConfig(delta_beta=0.1, init_seed=init_seed),
                                     reference=self.state)
            steps += [t1 - t0, time.perf_counter() - t1]
            estimates.append(estimate.amps)
        return estimates, steps

    def check_pass(self, estimates):
        failed = sum(not _estimate_ok(est) for est in estimates)
        fids = [_fidelity(est, self.state.amps) for est in estimates]
        return len(estimates), failed, float(np.mean(fids))


class NoisyPipeline(Workload):
    """The README's CLI chain at n=10, one subprocess per command."""

    name = "noisy-pipeline"
    rss_of_children = True
    n = 10
    shots = 100_000

    def __init__(self, seed: int, workroot: Path):
        workroot.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="noisy-", dir=workroot))
        s_state, s_data, s_cal, s_init = _child_seeds(seed, 4)
        f = {key: str(self.dir / name) for key, name in (
            ("state", "state.json"), ("data", "data.json"), ("cal", "cal.json"),
            ("mitigated", "mitigated.json"), ("estimate", "estimate.json"), ("trace", "trace.csv"))}
        self.files = f
        n = str(self.n)
        self.commands = [
            ["prepare-state", "--kind", "arbitrary", "-n", n, "--seed", str(s_state), "--out", f["state"]],
            ["run-protocol", "--state", f["state"], "--unitary", "qft", "--shots", str(self.shots),
             "--readout-error", "0.025", "--seed", str(s_data), "--out", f["data"]],
            ["calibrate", "-n", n, "--readout-error", "0.025", "--shots", "20000",
             "--seed", str(s_cal), "--out", f["cal"]],
            ["mitigate", "--data", f["data"], "--calibration", f["cal"], "--out", f["mitigated"]],
            ["estimate", "--data", f["mitigated"], "--reference", f["state"], "--seed", str(s_init),
             "--out", f["estimate"], "--trace-out", f["trace"]],
        ]
        self.env = dict(os.environ, PYTHONPATH=str(Path(qp.__file__).resolve().parent.parent))

    def run_pass(self, tracer=None):
        failed, steps = 0, []
        for argv in self.commands:
            if tracer is None:
                cmd = [sys.executable, "-m", "qptycho.cli", *argv]
            else:
                spans = self.dir / "spans.npz"
                cmd = [sys.executable, str(HERE / "tracecli.py"), str(spans), *argv]
            with tracer.span(f"cli.cmd.{argv[0]}") if tracer else contextlib.nullcontext(-1) as idx:
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                      timeout=COMMAND_TIMEOUT_S)
                steps.append(time.perf_counter() - t0)
            if tracer is not None and spans.exists():
                tracer.merge(spans, idx)
                spans.unlink()
            if proc.returncode != 0:
                failed += 1
                sys.stderr.write(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()}\n")
        if tracer is not None:
            tracer.count("cli.bytes_written", self.bytes_written())
        return failed, steps

    def bytes_written(self) -> int:
        return sum(os.path.getsize(path) for path in self.files.values() if os.path.exists(path))

    def check_pass(self, failed):
        attempted = len(self.commands)
        try:
            mitigated = qp.load_dataset(self.files["mitigated"])
            estimate = qp.load_state(self.files["estimate"]).amps
            reference = qp.load_state(self.files["state"]).amps
        except (OSError, ValueError, KeyError) as exc:
            sys.stderr.write(f"noisy-pipeline outputs unreadable: {exc}\n")
            return attempted, attempted, float("nan")
        finally:  # so that a later pass cannot pass on stale outputs
            for path in self.files.values():
                Path(path).unlink(missing_ok=True)
        shots = mitigated.shots_per_circuit
        # A bad mitigated sum counts against `mitigate`, a bad estimate against `estimate`.
        failed += not all(abs(rec.counts.sum() - shots) <= MITIGATED_SUM_RTOL * shots
                          for rec in mitigated.records)
        failed += not _estimate_ok(estimate)
        return attempted, min(failed, attempted), _fidelity(estimate, reference)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (MultistartSweep, KindsN10, NoisyPipeline)}


def kernel_probe(tracer, seed: int, probe_pass: int, seconds: float = 0.2, min_calls: int = 20):
    """Call each final unitary forward and adjoint at n=10 under the tracer,
    for ``seconds`` and at least ``min_calls`` times each."""
    n = 10
    rng = np.random.default_rng(seed)
    amps = _random_amps(rng, n)
    specs = _unitary_kinds(rng, n)
    for spec in specs:  # warm caches outside the probe pass
        spec.apply_amps(spec.apply_amps(amps, n), n, adjoint=True)
    tracer.current_pass = probe_pass
    for spec in specs:
        for adjoint in (False, True):
            calls, until = 0, time.perf_counter() + seconds
            while calls < min_calls or time.perf_counter() < until:
                spec.apply_amps(amps, n, adjoint=adjoint)
                calls += 1
    tracer.current_pass = -1


def import_startup_s(env: dict, repeats: int = 3) -> float:
    """Median wall time of a cold ``python -c "import qptycho"``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qptycho"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))
