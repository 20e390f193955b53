"""Iterative phase-retrieval engine that reconstructs a state from count data.

One engine iteration sweeps all 6n projectors. For each projector P with
amplitude targets t (square roots of the jointly normalized counts) and the
final unitary U, the estimate phi is corrected as

    phi_p     = P phi
    phi_tilde = U phi_p
    corrected = t * phase(phi_tilde)        (phase 0 where phi_tilde is 0)
    phi_back  = U^dagger corrected
    phi      <- phi + beta * P (phi_back - phi_p)

The feedback parameter beta acts as a learning rate and by default shrinks
linearly from 2.0 by delta_beta per iteration, which empirically converges
much better than any constant beta. The working estimate is intentionally
left unnormalized inside the loop; metrics and the returned estimate use
normalized copies.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .protocol import PtychoDataset, normalize_dataset
from .states import ProjectorId, StateVector, _project_amps, projector_ids
from .transforms import UnitarySpec

#: Most amplitudes one batched engine pass holds; pie_run_batch splits larger
#: batches into chunks of whole rows, so memory stays O(2^n) at large n.
_CHUNK_AMPS = 1 << 16


@dataclass(frozen=True)
class PieConfig:
    """Engine settings.

    ``iterations`` defaults to round(beta0 / delta_beta), i.e. the number of
    steps after which the linear schedule would hit zero (50 for the default
    delta_beta = 0.04, 20 for 0.1). ``shuffle_seed = None`` keeps the
    canonical projector order; an integer shuffles the order each iteration.
    """

    beta0: float = 2.0
    delta_beta: float = 0.04
    iterations: int | None = None
    shuffle_seed: int | None = None
    early_stop_distance: float | None = None
    init_seed: int = 0

    def __post_init__(self):
        if self.beta0 <= 0:
            raise ValueError(f"beta0 must be positive, got {self.beta0}")
        if self.delta_beta < 0:
            raise ValueError(f"delta_beta must be >= 0, got {self.delta_beta}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        last = self.beta0 - (self.resolved_iterations() - 1) * self.delta_beta
        if last <= 0:
            raise ValueError(
                f"schedule reaches beta = {last:g} <= 0 at iteration "
                f"{self.resolved_iterations()}; shorten the run or shrink delta_beta"
            )

    def resolved_iterations(self) -> int:
        if self.iterations is not None:
            return self.iterations
        if self.delta_beta == 0:
            raise ValueError("iterations must be given explicitly when delta_beta is 0")
        return round(self.beta0 / self.delta_beta)


def beta_schedule(iteration: int, config: PieConfig) -> float:
    """Feedback value used at a 1-based iteration index."""
    if not 1 <= iteration <= config.resolved_iterations():
        raise ValueError(
            f"iteration {iteration} outside 1..{config.resolved_iterations()}"
        )
    return config.beta0 - (iteration - 1) * config.delta_beta


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    beta: float
    distance: float
    fidelity: float | None


@dataclass
class PieTrace:
    """Per-iteration convergence record plus total wall-clock time."""

    rows: list = field(default_factory=list)
    total_seconds: float = 0.0

    def final_distance(self) -> float:
        return self.rows[-1].distance

    def final_fidelity(self) -> float | None:
        return self.rows[-1].fidelity

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "beta", "distance", "fidelity"])
            for row in self.rows:
                writer.writerow(
                    [
                        row.iteration,
                        row.beta,
                        row.distance,
                        "" if row.fidelity is None else row.fidelity,
                    ]
                )


def _normalized(amps: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if not math.isfinite(nrm):
        raise ValueError(f"cannot normalize a vector of norm {nrm}; amplitudes must be finite")
    return amps / nrm


def _unit_pair(a: StateVector, b: StateVector):
    """The normalized amplitudes of a and b, which are finite."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return _normalized(a.amps), _normalized(b.amps)


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sqrt(1 - |<a|b>|^2) of unit vectors (or rows), to full precision.

    Computed as d * sqrt(1 - d^2/4) with d = ||a - e^{i phi} b|| and
    phi = arg <b|a>, the phase that minimises d. The direct form has a
    rounding floor near 1.5e-8, because 1 - |<a|b>|^2 cancels.
    """
    inner = np.einsum("...j,...j->...", b.conj(), a)
    d = np.linalg.norm(a - np.exp(1j * np.angle(inner))[..., None] * b, axis=-1)
    return d * np.sqrt(np.maximum(0.0, 1.0 - d * d / 4))


def trace_distance(a: StateVector, b: StateVector) -> float:
    """sqrt(1 - |<a|b>|^2) between the normalized versions of a and b."""
    return float(_distance(*_unit_pair(a, b)))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 between the normalized versions of a and b."""
    overlap = abs(np.vdot(*_unit_pair(a, b)))
    return min(1.0, overlap * overlap)


def random_estimate(n: int, seed=None) -> StateVector:
    """Haar-uniform starting guess: normalized i.i.d. complex Gaussians."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n, z / np.linalg.norm(z))


def _correction_amps(
    amps: np.ndarray,
    n: int,
    proj: ProjectorId,
    target: np.ndarray,
    unitary: UnitarySpec,
    beta: float,
) -> np.ndarray:
    projected = _project_amps(amps, proj.axis, proj.qubit, proj.sign)
    tilde = unitary.apply_amps(projected, n)
    mag = np.abs(tilde)
    phase = np.divide(tilde, mag, out=np.ones_like(tilde), where=mag > 0)
    back = unitary.apply_amps(target * phase, n, adjoint=True)
    back_projected = _project_amps(back, proj.axis, proj.qubit, proj.sign)
    return amps + beta * (back_projected - projected)


def pie_correction_step(
    estimate: StateVector,
    proj: ProjectorId,
    target: np.ndarray,
    unitary: UnitarySpec,
    beta: float,
) -> StateVector:
    """Single projector correction applied to a (possibly unnormalized) estimate."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (estimate.dim,):
        raise ValueError(f"target must have length {estimate.dim}, got {target.shape}")
    if np.any(target < 0):
        raise ValueError("amplitude targets must be non-negative")
    if proj.qubit >= estimate.n:
        raise IndexError(f"qubit {proj.qubit} out of range for n={estimate.n}")
    unitary.validate_for(estimate.n)
    return StateVector(
        estimate.n,
        _correction_amps(estimate.amps, estimate.n, proj, target, unitary, beta),
    )


def pie_run(
    dataset: PtychoDataset,
    config: PieConfig = PieConfig(),
    reference: StateVector | None = None,
):
    """Reconstruct a state from a dataset.

    Starts from a random estimate drawn from ``config.init_seed``, sweeps all
    projectors once per iteration with the scheduled beta, and records the
    trace distance between consecutive normalized iterates (plus the fidelity
    against ``reference`` when given). Returns the normalized final estimate
    and the convergence trace. Deterministic given (dataset, config). This is
    :func:`pie_run_batch` with the single seed ``config.init_seed``.
    """
    return pie_run_batch(dataset, config, (config.init_seed,), reference)[0]


def pie_run_batch(
    dataset: PtychoDataset,
    config: PieConfig,
    init_seeds,
    reference: StateVector | None = None,
):
    """Reconstruct one dataset from several starting guesses at once.

    Row r of an ``(R, 2^n)`` estimate array starts from
    ``random_estimate(n, init_seeds[r])`` (``config.init_seed`` is not used)
    and all rows are corrected together, sharing the beta schedule and, when
    ``config.shuffle_seed`` is set, the projector order of each iteration.
    A row that meets ``config.early_stop_distance`` is frozen and its trace
    ends there; the others go on. Returns one ``(estimate, trace)`` pair per
    seed, each equal to ``pie_run`` with that ``init_seed`` up to rounding.
    Rows are processed in chunks of at most ``_CHUNK_AMPS`` amplitudes, and
    each chunk restarts the shuffled order exactly as a lone run would.
    """
    dataset.validate()
    n = dataset.n
    unitary = dataset.unitary
    unitary.validate_for(n)
    targets = normalize_dataset(dataset)
    ids = projector_ids(n)
    target_list = [targets[pid] for pid in ids]
    if reference is not None and reference.n != n:
        raise ValueError(f"reference has n={reference.n}, dataset has n={n}")
    ref = _normalized(reference.amps) if reference is not None else None
    seeds = list(init_seeds)
    if not seeds:
        raise ValueError("init_seeds must hold at least one seed")
    per_chunk = max(1, _CHUNK_AMPS >> n)
    results = []
    for first in range(0, len(seeds), per_chunk):
        results += _run_rows(
            n, unitary, ids, target_list, config, seeds[first : first + per_chunk], ref
        )
    return results


def _normalized_rows(amps: np.ndarray, iteration: int) -> np.ndarray:
    """Unit-norm copy of each row; raises on a non-finite or zero row, so no
    metric is ever reported for such an estimate."""
    norms = np.linalg.norm(amps, axis=-1)
    bad = ~np.isfinite(norms) | (norms == 0.0)
    if np.any(bad):
        raise ValueError(
            f"estimate norm became {norms[np.argmax(bad)]} at iteration {iteration}"
        )
    return amps / norms[:, None]


def _run_rows(n, unitary, ids, target_list, config, seeds, ref):
    """The engine loop on one chunk of rows; see :func:`pie_run_batch`."""
    amps = np.stack([random_estimate(n, seed).amps for seed in seeds])
    live = list(range(len(seeds)))  # original row of each row of ``amps``
    current = _normalized_rows(amps, 0)
    order_rng = (
        np.random.default_rng(config.shuffle_seed)
        if config.shuffle_seed is not None
        else None
    )
    stop = config.early_stop_distance
    last_iteration = config.resolved_iterations()
    rows = [[] for _ in seeds]
    results = [None] * len(seeds)
    started = time.perf_counter()
    for iteration in range(1, last_iteration + 1):
        beta = beta_schedule(iteration, config)
        order = (
            range(len(ids))
            if order_rng is None
            else order_rng.permutation(len(ids))
        )
        for idx in order:
            amps = _correction_amps(amps, n, ids[idx], target_list[idx], unitary, beta)
        previous, current = current, _normalized_rows(amps, iteration)
        distance = _distance(current, previous)
        fid = None if ref is None else np.minimum(1.0, np.abs(current @ ref.conj()) ** 2)
        for k, row in enumerate(live):
            rows[row].append(TraceRow(
                iteration, beta, float(distance[k]), None if fid is None else float(fid[k])
            ))
        done = np.full(len(live), iteration == last_iteration)
        if stop is not None:
            done |= distance < stop
        if np.any(done):
            elapsed = time.perf_counter() - started
            for k in np.flatnonzero(done):
                results[live[k]] = (
                    StateVector(n, current[k]), PieTrace(rows[live[k]], elapsed)
                )
            keep = ~done
            live = [row for row, kept in zip(live, keep) if kept]
            if not live:
                break
            amps, current = amps[keep], current[keep]
    return results
