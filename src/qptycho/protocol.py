"""The 3n-circuit measurement protocol: exact outcome laws and shot sampling.

Each circuit measures one Pauli axis on one qubit (both signs recorded via
one intermediate bit), applies the final unitary, and measures the register.
Outcomes are indexed o = s * 2^n + j with s the intermediate bit (0 for +,
1 for -) and j the final register index, so the intermediate bit is most
significant, matching the calibration tensor order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mitigation import CalibrationMatrix, ReadoutNoiseModel, corrupt_counts, mitigate
from .seeding import shot_streams
from .states import (
    PAULI_AXES,
    SIGNS,
    StateVector,
    _decode_array,
    _encode_array,
    _integer,
    _load,
    _project_amps,
    _qubit_count,
    _write_csv,
    _write_json,
)
from .transforms import UnitarySpec

_SUM_ATOL = 1e-9
_MITIGATED_SUM_RTOL = 1e-6


def circuit_settings(n: int):
    """The 3n (axis, qubit) pairs in canonical order."""
    return [(axis, q) for axis in PAULI_AXES for q in range(n)]


@dataclass(frozen=True)
class CircuitRecord:
    """Joint count vector of one circuit: length 2^(n+1), index s*2^n + j."""

    axis: str
    qubit: int
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "qubit", _integer(self.qubit, "qubit index must be an integer", 0))
        counts = np.array(self.counts, dtype=np.float64)
        if not np.all(np.isfinite(counts)):
            raise ValueError(f"record ({self.axis}, {self.qubit}) counts must be finite")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class PtychoDataset:
    """Counts from all 3n circuits plus the metadata to re-run them, checked when built.

    ``shots_per_circuit = 0`` is the infinite-shot sentinel: records then
    hold exact outcome probabilities instead of integer counts.
    """

    n: int
    unitary: UnitarySpec
    shots_per_circuit: int
    records: tuple
    mitigated: bool = False
    seed: int | None = None
    noise_model_id: str | None = None

    def __post_init__(self):
        n = _integer(self.n, "n must be an integer", 1)
        shots = _integer(self.shots_per_circuit, "shots must be an integer", 0)
        if not isinstance(self.mitigated, bool):
            raise ValueError(f"mitigated must be true or false, got {self.mitigated!r}")
        seed = self.seed
        if seed is not None:
            if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
                raise ValueError(f"seed must be an integer or null, got {seed!r}")
            seed = int(seed)
        noise_model_id = self.noise_model_id
        if noise_model_id is not None and not isinstance(noise_model_id, str):
            raise ValueError(f"noise_model_id must be a string or null, got {noise_model_id!r}")
        if not isinstance(self.unitary, UnitarySpec):
            raise ValueError(f"unitary must be a UnitarySpec, got {type(self.unitary).__name__}")
        self.unitary.validate_for(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "shots_per_circuit", shots)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "records", tuple(self.records))
        if [(r.axis, r.qubit) for r in self.records] != circuit_settings(n):
            raise ValueError(f"dataset must hold {3 * n} records in canonical (axis, qubit) order")
        for rec in self.records:
            if rec.counts.shape != (2 << n,):
                raise ValueError(
                    f"record ({rec.axis}, {rec.qubit}) has length {rec.counts.size}, "
                    f"expected {2 << n}"
                )
            # Only mitigation may leave negative entries (normalize_dataset clips them).
            if not self.mitigated and np.any(rec.counts < 0):
                raise ValueError(f"record ({rec.axis}, {rec.qubit}) holds negative counts")
            total = rec.counts.sum()
            if shots == 0:
                if abs(total - 1.0) > _SUM_ATOL:
                    raise ValueError(
                        f"exact record ({rec.axis}, {rec.qubit}) sums to {total}, expected 1"
                    )
            elif self.mitigated:
                if abs(total - shots) > _MITIGATED_SUM_RTOL * shots:
                    raise ValueError(
                        f"mitigated record ({rec.axis}, {rec.qubit}) sums to {total}, "
                        f"expected {shots} within rel. 1e-6"
                    )
            else:
                if total != shots or np.any(rec.counts != np.round(rec.counts)):
                    raise ValueError(
                        f"count record ({rec.axis}, {rec.qubit}) must hold integers "
                        f"summing to exactly {shots}"
                    )


def sample_shots(p: np.ndarray, shots: int, rng=None) -> np.ndarray:
    """One multinomial draw of ``shots`` trials over the outcome alphabet."""
    p = np.asarray(p, dtype=np.float64)
    shots = _integer(shots, "shots must be an integer", 1)
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
    shots = _integer(shots, "shots must be an integer", 0)
    unitary.validate_for(n)
    if noise is not None and noise.num_bits != n + 1:
        raise ValueError(f"noise model covers {noise.num_bits} bits, expected {n + 1}")
    if not state.is_normalized:
        raise ValueError("exact distributions require a normalized input state")
    children, entropy = shot_streams(seed, shots, 3 * n)
    records = []
    for c, (axis, q) in enumerate(circuit_settings(n)):
        # Both sign branches go through one call, rows + then -, so the
        # flattened law is indexed s * 2^n + j. No name holds the branches or
        # the amplitudes: alive while the record is allocated, they left a
        # heap hole per circuit, +0.3 MB of peak RSS at n=10.
        p = unitary.apply_amps(
            np.stack([_project_amps(state.amps, axis, q, sign) for sign in SIGNS]), n
        )
        p = (p.real**2 + p.imag**2).reshape(-1)
        if noise is not None:
            p = corrupt_counts(p, noise)
        counts = sample_shots(p, shots, children[c]) if shots else p
        records.append(CircuitRecord(axis, q, counts))
    return PtychoDataset(
        n=n,
        unitary=unitary,
        shots_per_circuit=shots,
        records=records,
        mitigated=False,
        seed=entropy,
        noise_model_id=noise.label if noise is not None else None,
    )


def mitigate_dataset(dataset: PtychoDataset, cal: CalibrationMatrix) -> PtychoDataset:
    """Apply calibration-matrix mitigation to all records of a dataset in one call."""
    if cal.n != dataset.n:
        raise ValueError(f"calibration is for n={cal.n}, dataset has n={dataset.n}")
    if dataset.mitigated:
        raise ValueError("dataset is already mitigated")
    counts = mitigate(np.stack([rec.counts for rec in dataset.records]), cal)
    records = [CircuitRecord(rec.axis, rec.qubit, row) for rec, row in zip(dataset.records, counts)]
    return replace(dataset, records=records, mitigated=True)


def normalize_dataset(dataset: PtychoDataset) -> np.ndarray:
    """Amplitude targets: sqrt of the jointly normalized counts, as a
    ``(6n, 2^n)`` array whose rows follow ``projector_ids(n)``.

    Record i in canonical order holds the + block then the - block, so row
    2i + s is its sign-s block. Both sign blocks of a circuit share one
    normalization (the projected states are sub-normalized, so targets must
    be joint probabilities). Negative mitigated entries are clipped to zero
    before the square root.
    """
    denom = dataset.shots_per_circuit if dataset.shots_per_circuit >= 1 else 1.0
    omega = np.stack([rec.counts for rec in dataset.records]) / denom
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
    records = []
    for i, entry in enumerate(entries):
        if type(entry.get("q")) is not int:
            raise ValueError(f"records[{i}].q must be an integer")
        counts = _decode_array(entry.get("counts"), f"records[{i}].counts", 2 << n)
        records.append(CircuitRecord(entry.get("xi"), entry["q"], counts))
    return PtychoDataset(
        n=n,
        unitary=UnitarySpec.from_dict(doc.get("unitary")),
        shots_per_circuit=doc.get("shots"),
        records=records,
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
