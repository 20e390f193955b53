"""The 3n-circuit measurement protocol: exact outcome laws and shot sampling.

Each circuit measures one Pauli axis on one qubit (both signs recorded via
one intermediate bit), applies the final unitary, and measures the register.
Outcomes are indexed o = s * 2^n + j with s the intermediate bit (0 for +,
1 for -) and j the final register index, so the intermediate bit is most
significant, matching the calibration tensor order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .mitigation import CalibrationMatrix, ReadoutNoiseModel, corrupt_counts, mitigate
from .seeding import shot_count, shot_streams
from .states import (
    StateVector,
    _PAYLOAD_DTYPE,
    _check_payload,
    _encode_array,
    _fill_payload,
    _integer,
    _load,
    _project_amps,
    _qubit_count,
    _write_csv,
    _write_json,
    circuit_settings,
)
from .transforms import UnitarySpec

_SUM_ATOL = 1e-9
_MITIGATED_SUM_RTOL = 1e-6


class CircuitRecord(NamedTuple):
    """One circuit's row of a dataset: length 2^(n+1), index s*2^n + j."""

    axis: str
    qubit: int
    counts: np.ndarray


class _Owned(NamedTuple):
    """Counts that a builder here has just filled: kept, not copied."""

    array: np.ndarray


@dataclass(frozen=True)
class PtychoDataset:
    """Counts from all 3n circuits plus the metadata to re-run them, checked when built.

    ``counts`` is a read-only ``(3n, 2^(n+1))`` float64 array, copied when
    built; row c belongs to circuit ``circuit_settings(n)[c]``.
    ``shots_per_circuit = 0`` is the infinite-shot sentinel: rows then hold
    exact outcome probabilities instead of integer counts.
    """

    n: int
    unitary: UnitarySpec
    shots_per_circuit: int
    counts: np.ndarray
    mitigated: bool = False
    seed: int | None = None
    noise_model_id: str | None = None

    def __post_init__(self):
        n = _integer(self.n, "n must be an integer", 1)
        shots = shot_count(self.shots_per_circuit)
        if not isinstance(self.mitigated, bool):
            raise ValueError(f"mitigated must be true or false, got {self.mitigated!r}")
        seed = self.seed
        if seed is not None:
            if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
                raise ValueError(f"seed must be an integer or null, got {seed!r}")
            seed = _integer(seed, "seed must be an integer", 0)
        noise_model_id = self.noise_model_id
        if noise_model_id is not None and not isinstance(noise_model_id, str):
            raise ValueError(f"noise_model_id must be a string or null, got {noise_model_id!r}")
        if not isinstance(self.unitary, UnitarySpec):
            raise ValueError(f"unitary must be a UnitarySpec, got {type(self.unitary).__name__}")
        self.unitary.validate_for(n)
        owned = isinstance(self.counts, _Owned)
        counts = self.counts.array if owned else np.array(self.counts, dtype=np.float64)
        if counts.shape != (3 * n, 2 << n):
            raise ValueError(
                f"dataset must hold {3 * n} records in canonical (axis, qubit) order: "
                f"counts has shape {counts.shape}, expected {(3 * n, 2 << n)}"
            )
        for (axis, q), row in zip(circuit_settings(n), counts):
            if not np.all(np.isfinite(row)):
                raise ValueError(f"record ({axis}, {q}) counts must be finite")
            # Only mitigation may leave negative entries (normalize_dataset clips them).
            if not self.mitigated and np.any(row < 0):
                raise ValueError(f"record ({axis}, {q}) holds negative counts")
            total = row.sum()
            if shots == 0:
                if abs(total - 1.0) > _SUM_ATOL:
                    raise ValueError(f"exact record ({axis}, {q}) sums to {total}, expected 1")
            elif self.mitigated:
                if abs(total - shots) > _MITIGATED_SUM_RTOL * shots:
                    raise ValueError(
                        f"mitigated record ({axis}, {q}) sums to {total}, "
                        f"expected {shots} within rel. 1e-6"
                    )
            elif total != shots or np.any(row != np.round(row)):
                raise ValueError(
                    f"count record ({axis}, {q}) must hold integers summing to exactly {shots}"
                )
        counts.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "shots_per_circuit", shots)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "counts", counts)

    @property
    def records(self) -> tuple:
        """The rows of ``counts`` in circuit order, each a read-only view."""
        settings = circuit_settings(self.n)
        return tuple(CircuitRecord(axis, q, row) for (axis, q), row in zip(settings, self.counts))


def sample_shots(p: np.ndarray, shots: int, rng=None) -> np.ndarray:
    """One multinomial draw of ``shots`` trials over the outcome alphabet."""
    p = np.asarray(p, dtype=np.float64)
    shots = shot_count(shots, 1)
    if p.ndim != 1:
        raise ValueError(f"p must be one distribution (1-D), got shape {p.shape}")
    if np.any(p < -1e-12):
        raise ValueError(f"negative probability {p.min()} in distribution")
    total = p.sum()
    if not abs(total - 1.0) <= _SUM_ATOL:  # NaN fails too
        raise ValueError(f"probabilities p sum to {total}, expected 1 within 1e-9")
    p = np.clip(p, 0.0, None)
    return np.random.default_rng(rng).multinomial(shots, p / p.sum())


def generate_dataset(
    state: StateVector,
    unitary: UnitarySpec,
    shots: int,
    noise: ReadoutNoiseModel | None = None,
    seed=None,
) -> PtychoDataset:
    """Run the full 3n-circuit protocol on a state.

    For each circuit: compute the exact joint law, entry s * 2^n + j =
    |<j| U P_s |psi>|^2, optionally corrupt it with the readout channel over
    the n+1 outcome bits, then draw ``shots`` samples (``shots = 0`` stores
    the probabilities themselves). Per-circuit RNG streams are derived from
    ``seed``, so records are independent and the whole dataset is
    reproducible; an exact run without a seed draws no entropy and records
    ``seed = None``.
    """
    n = state.n
    shots = shot_count(shots)
    unitary.validate_for(n)
    if noise is not None and noise.num_bits != n + 1:
        raise ValueError(f"noise model covers {noise.num_bits} bits, expected {n + 1}")
    if not state.is_normalized:
        raise ValueError("exact distributions require a normalized input state")
    children, entropy = shot_streams(seed, shots, 3 * n)
    counts = np.empty((3 * n, 2 << n))
    for c, (axis, q) in enumerate(circuit_settings(n)):
        # Both sign branches go through one call, rows + then -, so the
        # flattened law is indexed s * 2^n + j. No name holds the branches or
        # the amplitudes: alive while the samples are allocated, they left a
        # heap hole per circuit, +0.3 MB of peak RSS at n=10.
        p = unitary.apply_amps(_project_amps(state.amps, axis, q), n)
        p = (p.real**2 + p.imag**2).reshape(-1)
        if noise is not None:
            p = corrupt_counts(p, noise)
        counts[c] = sample_shots(p, shots, children[c]) if shots else p
    return PtychoDataset(
        n=n,
        unitary=unitary,
        shots_per_circuit=shots,
        counts=_Owned(counts),
        mitigated=False,
        seed=entropy,
        noise_model_id=noise.label if noise is not None else None,
    )


def mitigate_dataset(dataset: PtychoDataset, cal: CalibrationMatrix) -> PtychoDataset:
    """Apply calibration-matrix mitigation to all rows of a dataset in one call."""
    if cal.n != dataset.n:
        raise ValueError(f"calibration is for n={cal.n}, dataset has n={dataset.n}")
    if dataset.mitigated:
        raise ValueError("dataset is already mitigated")
    return replace(dataset, counts=_Owned(mitigate(dataset.counts, cal)), mitigated=True)


def normalize_dataset(dataset: PtychoDataset) -> np.ndarray:
    """Amplitude targets: sqrt of the jointly normalized counts, as a
    ``(6n, 2^n)`` array whose rows follow the circuits of
    ``circuit_settings(n)``, each for both ``SIGNS``.

    Row c of ``dataset.counts`` holds the + block then the - block, so
    target row 2c + s is its sign-s block. Both sign blocks of a circuit
    share one normalization (the projected states are sub-normalized, so
    targets must be joint probabilities). Negative mitigated entries are
    clipped to zero before the square root.
    """
    denom = dataset.shots_per_circuit if dataset.shots_per_circuit >= 1 else 1.0
    omega = dataset.counts / denom
    return np.sqrt(np.clip(omega, 0.0, None)).reshape(6 * dataset.n, 1 << dataset.n)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def dataset_to_dict(dataset: PtychoDataset) -> dict:
    return {
        "n": dataset.n,
        "unitary": dataset.unitary.to_dict(),
        "shots": dataset.shots_per_circuit,
        "seed": dataset.seed,
        "noise_model_id": dataset.noise_model_id,
        "mitigated": dataset.mitigated,
        "records": [
            {"xi": rec.axis, "q": rec.qubit, "counts": _encode_array(rec.counts)}
            for rec in dataset.records
        ],
    }


def dataset_from_dict(doc: dict) -> PtychoDataset:
    """Inverse of :func:`dataset_to_dict`. Checks the document's shape here
    and leaves every field's own check to the types it builds."""
    n, entries = _qubit_count(doc), doc.get("records")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("records must be a list of objects")
    for i, entry in enumerate(entries):
        if type(entry.get("q")) is not int:  # True == 1 would pass the order check
            raise ValueError(f"records[{i}].q must be an integer")
    order = [(entry.get("xi"), entry["q"]) for entry in entries]
    if len(order) != 3 * n or order != circuit_settings(n):
        raise ValueError(f"dataset must hold {3 * n} records in canonical (axis, qubit) order")
    # Every record must be a payload able to fill its row before the table is
    # allocated; the checked bytes then fill it, each base64-decoded once.
    shape, fields = [2 << n], [f"records[{c}].counts" for c in range(3 * n)]
    raws = [_check_payload(entry.get("counts"), field, shape) for entry, field in zip(entries, fields)]
    counts = np.empty((3 * n, *shape), dtype=_PAYLOAD_DTYPE)
    for row, raw, field in zip(counts, raws, fields):
        _fill_payload(raw, row, field)
    return PtychoDataset(
        n=n,
        unitary=UnitarySpec.from_dict(doc.get("unitary")),
        shots_per_circuit=doc.get("shots"),
        counts=_Owned(counts.astype(np.float64, copy=False)),  # a copy only where float64 is big-endian
        mitigated=doc.get("mitigated", False),
        seed=doc.get("seed"),
        noise_model_id=doc.get("noise_model_id"),
    )


def save_dataset(dataset: PtychoDataset, path):
    _write_json(dataset_to_dict(dataset), path)


def load_dataset(path) -> PtychoDataset:
    return _load(path, "dataset", dataset_from_dict)


def dataset_to_csv(dataset: PtychoDataset, path):
    """Flat export with one row per (circuit, sign, register index)."""
    n = dataset.n
    _write_csv(path, ("xi", "q", "s", "j", "count"), (
        (rec.axis, rec.qubit, o >> n, o & ((1 << n) - 1), count)
        for rec in dataset.records
        for o, count in enumerate(rec.counts.tolist())
    ))
