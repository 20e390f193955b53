"""The 3n-circuit measurement protocol: exact outcome laws and shot sampling.

Each circuit measures one Pauli axis on one qubit (both signs recorded via
one intermediate bit), applies the final unitary, and measures the register.
Outcomes are indexed o = s * 2^n + j with s the intermediate bit (0 for +,
1 for -) and j the final register index, so the intermediate bit is most
significant, matching the calibration tensor order.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .mitigation import CalibrationMatrix, ReadoutNoiseModel, corrupt_counts, mitigate
from .states import (
    PAULI_AXES,
    SIGNS,
    ProjectorId,
    StateVector,
    _decode_array,
    _encode_array,
    _integer,
    _project_amps,
    _qubit_count,
)
from .transforms import UnitarySpec

_SUM_ATOL = 1e-9
_MITIGATED_SUM_RTOL = 1e-6


def circuit_settings(n: int):
    """The 3n (axis, qubit) pairs in canonical order."""
    return [(axis, q) for axis in PAULI_AXES for q in range(n)]


@dataclass
class CircuitRecord:
    """Joint count vector of one circuit: length 2^(n+1), index s*2^n + j."""

    axis: str
    qubit: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.array(self.counts, dtype=np.float64)
        if not np.all(np.isfinite(self.counts)):
            raise ValueError(f"record ({self.axis}, {self.qubit}) counts must be finite")


@dataclass
class PtychoDataset:
    """Counts from all 3n circuits plus the metadata needed to re-run them.

    ``shots_per_circuit = 0`` is the infinite-shot sentinel: records then
    hold exact outcome probabilities instead of integer counts.
    """

    n: int
    unitary: UnitarySpec
    shots_per_circuit: int
    records: list = field(default_factory=list)
    mitigated: bool = False
    seed: int | None = None
    noise_model_id: str | None = None

    def validate(self):
        expected = circuit_settings(self.n)
        if [(r.axis, r.qubit) for r in self.records] != expected:
            raise ValueError(
                f"dataset must hold {3 * self.n} records in canonical (axis, qubit) order"
            )
        shots = self.shots_per_circuit
        for rec in self.records:
            if rec.counts.shape != (2 << self.n,):
                raise ValueError(
                    f"record ({rec.axis}, {rec.qubit}) has length {rec.counts.size}, "
                    f"expected {2 << self.n}"
                )
            if not np.all(np.isfinite(rec.counts)):
                raise ValueError(f"record ({rec.axis}, {rec.qubit}) holds non-finite counts")
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
        return self


def exact_joint_distribution(
    state: StateVector, axis: str, qubit: int, unitary: UnitarySpec
) -> np.ndarray:
    """Joint outcome law of one circuit: entry (s, j) = |<j| U P_s |psi>|^2."""
    if not state.is_normalized:
        raise ValueError("exact distributions require a normalized input state")
    ProjectorId(axis, qubit, 1)  # validates axis
    if qubit >= state.n:
        raise IndexError(f"qubit {qubit} out of range for n={state.n}")
    unitary.validate_for(state.n)
    n = state.n
    p = np.empty(2 << n)
    for s_index, sign in enumerate(SIGNS):
        projected = _project_amps(state.amps, axis, qubit, sign)
        transformed = unitary.apply_amps(projected, n)
        p[s_index << n : (s_index + 1) << n] = (
            transformed.real**2 + transformed.imag**2
        )
    return p


def sample_shots(p: np.ndarray, shots: int, rng=None) -> np.ndarray:
    """One multinomial draw of ``shots`` trials over the outcome alphabet."""
    p = np.asarray(p, dtype=np.float64)
    shots = _integer(shots, "shots must be an integer", 1)
    if np.any(p < -1e-12):
        raise ValueError(f"negative probability {p.min()} in distribution")
    total = p.sum()
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-9")
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

    For each circuit: compute the exact joint law, optionally corrupt it with
    the readout channel over the n+1 outcome bits, then draw ``shots``
    samples (``shots = 0`` stores the probabilities themselves). Per-circuit
    RNG streams are derived from ``seed``, so records are independent and the
    whole dataset is reproducible.
    """
    n = state.n
    shots = _integer(shots, "shots must be an integer", 0)
    unitary.validate_for(n)
    if noise is not None and noise.num_bits != n + 1:
        raise ValueError(f"noise model covers {noise.num_bits} bits, expected {n + 1}")
    ss = np.random.SeedSequence(seed)
    children = iter(ss.spawn(3 * n))
    records = []
    for axis, q in circuit_settings(n):
        p = exact_joint_distribution(state, axis, q, unitary)
        if noise is not None:
            p = corrupt_counts(p, noise)
        child = next(children)
        counts = p if shots == 0 else sample_shots(p, shots, child)
        records.append(CircuitRecord(axis, q, counts))
    return PtychoDataset(
        n=n,
        unitary=unitary,
        shots_per_circuit=shots,
        records=records,
        mitigated=False,
        seed=None if ss.entropy is None else int(ss.entropy),
        noise_model_id=noise.label if noise is not None else None,
    ).validate()


def mitigate_dataset(dataset: PtychoDataset, cal: CalibrationMatrix) -> PtychoDataset:
    """Apply calibration-matrix mitigation to all records of a dataset in one call."""
    if cal.n != dataset.n:
        raise ValueError(f"calibration is for n={cal.n}, dataset has n={dataset.n}")
    if dataset.mitigated:
        raise ValueError("dataset is already mitigated")
    counts = mitigate(np.stack([rec.counts for rec in dataset.validate().records]), cal)
    records = [CircuitRecord(rec.axis, rec.qubit, row) for rec, row in zip(dataset.records, counts)]
    return PtychoDataset(
        n=dataset.n,
        unitary=dataset.unitary,
        shots_per_circuit=dataset.shots_per_circuit,
        records=records,
        mitigated=True,
        seed=dataset.seed,
        noise_model_id=dataset.noise_model_id,
    ).validate()


def normalize_dataset(dataset: PtychoDataset) -> np.ndarray:
    """Amplitude targets: sqrt of the jointly normalized counts, as a
    ``(6n, 2^n)`` array whose rows follow ``projector_ids(n)``.

    Record i in canonical order holds the + block then the - block, so row
    2i + s is its sign-s block. Both sign blocks of a circuit share one
    normalization (the projected states are sub-normalized, so targets must
    be joint probabilities). Negative mitigated entries are clipped to zero
    before the square root.
    """
    dataset.validate()
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


def dataset_from_dict(doc: dict, where: str = "dataset") -> PtychoDataset:
    n = _qubit_count(doc, where)
    shots = _integer(doc.get("shots"), f"{where}: shots must be an integer", 0)
    mitigated, entries = doc.get("mitigated", False), doc.get("records")
    if not isinstance(mitigated, bool):
        raise ValueError(f"{where}: mitigated must be true or false, got {mitigated!r}")
    if not isinstance(doc.get("unitary"), dict):
        raise ValueError(f"{where}: unitary must be an object")
    seed, noise_model_id = doc.get("seed"), doc.get("noise_model_id")
    if seed is not None and type(seed) is not int:
        raise ValueError(f"{where}: seed must be an integer or null, got {seed!r}")
    if noise_model_id is not None and not isinstance(noise_model_id, str):
        raise ValueError(
            f"{where}: noise_model_id must be a string or null, got {noise_model_id!r}"
        )
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{where}: records must be a list of objects")
    records = []
    for i, entry in enumerate(entries):
        if type(entry.get("q")) is not int:
            raise ValueError(f"{where}: records[{i}].q must be an integer")
        counts = _decode_array(entry.get("counts"), f"{where}: records[{i}].counts")
        records.append(CircuitRecord(entry.get("xi"), entry["q"], counts))
    return PtychoDataset(
        n=n,
        unitary=UnitarySpec.from_dict(doc["unitary"], f"{where}: unitary"),
        shots_per_circuit=shots,
        records=records,
        mitigated=mitigated,
        seed=seed,
        noise_model_id=noise_model_id,
    ).validate()


def save_dataset(dataset: PtychoDataset, path):
    with open(path, "w") as fh:
        json.dump(dataset_to_dict(dataset), fh, indent=2)
        fh.write("\n")


def load_dataset(path) -> PtychoDataset:
    with open(path) as fh:
        return dataset_from_dict(json.load(fh), f"dataset file {path}")


def dataset_to_csv(dataset: PtychoDataset, path):
    """Flat export with one row per (circuit, sign, register index)."""
    n = dataset.n
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["xi", "q", "s", "j", "count"])
        for rec in dataset.records:
            for o, count in enumerate(rec.counts):
                writer.writerow([rec.axis, rec.qubit, o >> n, o & ((1 << n) - 1), float(count)])
