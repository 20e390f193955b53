"""Iterative phase-retrieval engine that reconstructs a state from count data.

One engine iteration sweeps the 3n circuits of ``circuit_settings(n)``.
Circuit (axis, q) measures qubit q in a Pauli eigenbasis and records both
signs s = +, -, whose rank-1 projectors P_s = |k_s><b_s| are orthogonal and
sum to I; t_s are their amplitude targets (square roots of the jointly
normalized counts) and U is the final unitary. The ePIE update with a
rank-1 probe (Maiden & Rodenburg, Ultramicroscopy 109, 1256 (2009)) by P_s
changes only the range of P_s and reads only P_s phi, so the corrections of
the two signs commute exactly and run as one step on a sign-major stack:

    c_s         = <b_s| phi                 (on qubit q)
    phi_tilde_s = U (k_s (x) c_s)           (= U P_s phi)
    corrected_s = t_s * phase(phi_tilde_s)  (phase 1 where phi_tilde_s is 0)
    d_s         = beta * (<b_s| U^dagger corrected_s - c_s)
    phi        <- phi + sum_s k_s (x) d_s

The feedback parameter beta acts as a learning rate and by default shrinks
linearly from 2.0 by delta_beta per iteration, which empirically converges
much better than any constant beta. The working estimate is intentionally
left unnormalized inside the loop; metrics and the returned estimate use
normalized copies. Every step of a pass writes its elementwise work into
one workspace of buffers allocated when the pass starts.

The Fourier kinds take k_s = e_s and b_s = e_s^dagger / <e_s|e_s> for the
eigenvectors e_s of ``states._PAULI_EIGENVECTORS``, which are unnormalized
so that both round exactly. The product kinds (hadamard, separable), whose
U is one gate u_q per qubit, run the same step on psi = U phi, the
measurement frame. There P_s becomes U P_s U^dagger = |f_s><f_s| on qubit q
with f_s = u_q e_s / ||e_s||, so the step takes k_s = f_s, b_s = f_s^dagger
and no U, and no transform runs inside the loop: the starts and the
reference are rotated into the frame once, distances and fidelities are
taken there (they do not depend on the frame), and the final estimate is
rotated back by U^dagger and renormalized.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import groupby, islice

import numpy as np

from .protocol import PtychoDataset, normalize_dataset
from .stateprep import random_arbitrary
from .states import (
    _PAULI_EIGENVECTORS, SIGNS, StateVector, _integer, _pauli_bras_kets, _real, _write_csv,
    circuit_settings,
)
from .transforms import UnitarySpec

#: Most amplitudes one engine pass holds. Passes group whole datasets and
#: split larger batches into chunks of whole rows, so memory stays O(2^n) at
#: large n. Per-row cost falls with the pass size up to about this many
#: amplitudes and rises beyond it (at n=10, 64 rows cost 10% more each than 32).
_CHUNK_AMPS = 1 << 15

#: Smallest normal float64. numpy divides a complex value by a real one
#: through 1/mag, which overflows below it, so the phase step gives smaller
#: magnitudes, like exact zeros, phase 1.
_TINY = np.finfo(np.float64).tiny


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
    init_seed: int = 0

    def __post_init__(self):
        if not (_real(self.beta0) and math.isfinite(self.beta0) and self.beta0 > 0):
            raise ValueError(f"beta0 must be finite and positive, got {self.beta0!r}")
        if not (_real(self.delta_beta) and math.isfinite(self.delta_beta) and self.delta_beta >= 0):
            raise ValueError(f"delta_beta must be finite and >= 0, got {self.delta_beta!r}")
        for name, minimum in (("iterations", 1), ("shuffle_seed", 0)):
            value = getattr(self, name)
            if value is not None:
                value = _integer(value, f"{name} must be None or an integer", minimum)
                object.__setattr__(self, name, value)
        init_seed = _integer(self.init_seed, "init_seed must be an integer", 0)
        object.__setattr__(self, "init_seed", init_seed)
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
        steps = self.beta0 / self.delta_beta
        if not math.isfinite(steps):
            raise ValueError(f"beta0 / delta_beta = {self.beta0!r} / {self.delta_beta!r} "
                             "overflows; give iterations explicitly or a larger delta_beta")
        if round(steps) == 0:
            raise ValueError(f"beta0 / delta_beta = {self.beta0!r} / {self.delta_beta!r} "
                             "rounds to 0 iterations; give iterations explicitly or a smaller delta_beta")
        return round(steps)


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
        _write_csv(path, ("iteration", "beta", "distance", "fidelity"), (
            (row.iteration, row.beta, row.distance, row.fidelity) for row in self.rows
        ))


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


def _workspace(shape):
    """The buffers that every circuit step on an estimate array of ``shape``
    writes into, allocated once per pass: two complex sign-major
    ``(2, *shape)`` stacks, the magnitudes of one and their mask, and a
    complex array of ``shape`` for the step's c."""
    stack = (2, *shape)
    return (np.empty(stack, np.complex128), np.empty(stack, np.complex128), np.empty(stack),
            np.empty(stack, bool), np.empty(shape, np.complex128))


def _bras_on_qubit(bras, x, out, scratch):
    """out[s] = <bras[s]| applied to bit q of ``x``, a ``(..., 2, 2^q)``
    view, for both signs; ``scratch`` is a buffer of ``out``'s shape."""
    np.multiply(bras[:, 0, None, None], x[..., 0, :], out=out)
    np.multiply(bras[:, 1, None, None], x[..., 1, :], out=scratch)
    np.add(out, scratch, out=out)


def _kets_on_qubit(kets, c, out):
    """out[s] = |kets[s]> on bit q tensored with c[s], the output of
    :func:`_bras_on_qubit`, in the sign-major stack ``out``: one multiply
    per value of bit q, so the loops run over c even at q = 0."""
    halves = out.reshape(c.shape[:2] + (2, -1))
    np.multiply(kets[:, 0, None, None], c, out=halves[..., 0, :])
    np.multiply(kets[:, 1, None, None], c, out=halves[..., 1, :])


def _correction_amps(amps, n, q, bras, kets, targets, beta, unitary, work):
    """One engine correction by the two sign projectors |kets[s]><bras[s]|
    of a circuit on qubit q, the module docstring's step. ``bras`` and
    ``kets`` are 2x2 (row s for sign s), ``targets`` the circuit's sign-major
    targets, ``unitary`` None stands for the identity and ``work`` is a
    :func:`_workspace` of ``amps.shape``. Returns the corrected estimate."""
    stack, spare, mag, mask, c = work
    low = 1 << q
    c = c.reshape(2, -1, low)
    # Each stack also serves as two half-size scratch arrays while it holds
    # nothing the step still reads: spare before the phase, stack after it.
    _bras_on_qubit(bras, amps.reshape(-1, 2, low), c, spare.reshape(2, 2, -1, low)[0])
    _kets_on_qubit(kets, c, stack)
    tilde = stack if unitary is None else unitary.apply_amps(stack, n)
    np.abs(tilde, out=mag)
    np.greater_equal(mag, _TINY, out=mask)
    spare.fill(1.0)
    np.divide(tilde, mag, out=spare, where=mask)
    np.multiply(targets, spare, out=spare)
    back = spare if unitary is None else unitary.apply_amps(spare, n, adjoint=True)
    d, scratch = stack.reshape(2, 2, -1, low)
    _bras_on_qubit(bras, back.reshape(2, -1, 2, low), d, scratch)
    np.subtract(d, c, out=d)
    np.multiply(d, beta, out=d)
    _kets_on_qubit(kets, d, spare)
    np.add(spare[0], spare[1], out=spare[0])
    return amps + spare[0]


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
    ``random_arbitrary(n, init_seeds[r])`` (``config.init_seed`` is not used)
    and all rows are corrected together, sharing the beta schedule and, when
    ``config.shuffle_seed`` is set, the projector order of each iteration.
    Every row runs the whole schedule. Returns one ``(estimate, trace)`` pair per
    seed, each equal to ``pie_run`` with that ``init_seed`` up to rounding.
    Rows are processed in chunks of at most ``_CHUNK_AMPS`` amplitudes, and
    each chunk restarts the shuffled order exactly as a lone run would.
    """
    return next(_run_datasets([(dataset, init_seeds, reference)], config))


def _run_datasets(jobs, config: PieConfig):
    """Reconstruct a stream of ``(dataset, init_seeds, reference)`` jobs in
    engine passes of whole datasets x starts. Yields one list of
    ``(estimate, trace)`` pairs per job, in order; ``reference`` may be None.

    Consecutive jobs share a pass while they have the same n, unitary,
    number of starts and reference-or-None, and as many as fit in
    ``_CHUNK_AMPS`` amplitudes. A pass runs as soon as it is full or the next
    job differs, so at most one pass and one job are drawn from ``jobs`` at a
    time. A job whose starts alone do not fit runs in chunks of starts, each
    of at most ``_CHUNK_AMPS`` amplitudes. Rows never mix in any kernel, so
    every row equals the row :func:`pie_run_batch` gives for its dataset
    alone, bit for bit. Each trace's ``total_seconds`` is its pass's time.
    """
    for (n, unitary, starts, _), run in groupby(_checked(jobs), key=lambda job: job[0]):
        rows = max(1, _CHUNK_AMPS >> n)
        while group := list(islice(run, max(1, rows // starts))):
            _, targets, seeds, references = zip(*group)
            # One (2, S, 1, 2^n) block per circuit, + then -, broadcast over the starts.
            targets = np.stack(targets, axis=1).reshape(3 * n, 2, len(group), 1, 1 << n)
            refs = None
            if references[0] is not None:
                refs = np.stack([_normalized(reference.amps) for reference in references])
            results = [[] for _ in group]
            for first in range(0, starts, rows):
                chunk = [job_seeds[first : first + rows] for job_seeds in seeds]
                for acc, out in zip(results, _run_rows(n, unitary, targets, config, chunk, refs)):
                    acc += out
            yield from results


def _checked(jobs):
    """Validate each job and normalize its dataset as it is drawn. Yields
    ``(key, targets, seeds, reference)``; jobs of one key may share a pass."""
    for dataset, init_seeds, reference in jobs:
        targets = normalize_dataset(dataset)
        n = dataset.n
        seeds = [_integer(seed, "init_seeds must hold integers", 0) for seed in init_seeds]
        if not seeds:
            raise ValueError("init_seeds must hold at least one seed")
        if reference is not None and reference.n != n:
            raise ValueError(f"reference has n={reference.n}, dataset has n={n}")
        yield (n, dataset.unitary, len(seeds), reference is None), targets, seeds, reference


def _normalized_rows(amps: np.ndarray, iteration: int) -> np.ndarray:
    """Unit-norm copy of each row (last axis); raises on a non-finite or zero
    row, so no metric is ever reported for such an estimate."""
    norms = np.linalg.norm(amps, axis=-1)
    bad = ~np.isfinite(norms) | (norms == 0.0)
    if np.any(bad):
        raise ValueError(
            f"estimate norm became {norms[bad][0]} at iteration {iteration}"
        )
    return amps / norms[..., None]


def _run_rows(n, unitary, targets, config, seeds, refs):
    """The engine loop on one pass of S datasets x K starts, laid out as an
    ``(S, K, 2^n)`` array. ``targets`` is the ``(3n, 2, S, 1, 2^n)`` array of
    target blocks, one per circuit of ``circuit_settings(n)`` and sign,
    ``seeds`` the S lists of K starts and ``refs`` the S unit references (or
    None). Every row runs the whole schedule. Returns S lists of K
    ``(estimate, trace)``, each trace with the pass's wall time.

    Each circuit's step is a ``(qubit, bras, kets, unitary)`` entry. A
    product unitary (hadamard, separable) runs in the measurement frame of
    the module docstring: each step is the pair |f_s><f_s| with no unitary.
    All steps share one workspace.
    """
    amps = np.stack([[random_arbitrary(n, seed).amps for seed in starts] for starts in seeds])
    gates = unitary.qubit_gates(n)
    steps = []
    for axis, q in circuit_settings(n):
        if gates is None:
            steps.append((q, *_pauli_bras_kets(axis), unitary))
        else:
            kets = np.array([gates[q] @ _normalized(_PAULI_EIGENVECTORS[axis, sign])
                             for sign in SIGNS])
            steps.append((q, kets.conj(), kets, None))
    if gates is not None:
        amps = unitary.apply_amps(amps, n)
        if refs is not None:
            refs = unitary.apply_amps(refs, n)
    current = _normalized_rows(amps, 0)
    work = _workspace(amps.shape)
    ref_conj = None if refs is None else refs.conj()
    order_rng = (
        np.random.default_rng(config.shuffle_seed)
        if config.shuffle_seed is not None
        else None
    )
    rows = [[[] for _ in starts] for starts in seeds]
    started = time.perf_counter()
    for iteration in range(1, config.resolved_iterations() + 1):
        beta = beta_schedule(iteration, config)
        order = (
            range(len(steps))
            if order_rng is None
            else order_rng.permutation(len(steps))
        )
        for idx in order:
            q, bras, kets, step_unitary = steps[idx]
            amps = _correction_amps(amps, n, q, bras, kets, targets[idx], beta, step_unitary, work)
        previous, current = current, _normalized_rows(amps, iteration)
        distance = _distance(current, previous)
        for s, dataset_rows in enumerate(rows):
            fids = [None] * len(dataset_rows)
            if ref_conj is not None:
                # The same matrix-vector product a lone pie_run_batch makes.
                fids = np.minimum(1.0, np.abs(current[s] @ ref_conj[s]) ** 2).tolist()
            for trace_rows, dist, fid in zip(dataset_rows, distance[s].tolist(), fids):
                trace_rows.append(TraceRow(iteration, beta, dist, fid))
    if gates is not None:
        current = _normalized_rows(unitary.apply_amps(current, n, adjoint=True), iteration)
    elapsed = time.perf_counter() - started
    return [
        [(StateVector(n, current[s, k]), PieTrace(trace_rows, elapsed))
         for k, trace_rows in enumerate(dataset_rows)]
        for s, dataset_rows in enumerate(rows)
    ]
