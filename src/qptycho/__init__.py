"""Quantum ptychography toolkit.

Simulates the 3n-circuit measurement protocol an n-qubit device would run on
a pure state (exactly or with finite shots and readout noise), mitigates
readout errors with calibration matrices, and reconstructs the state with an
iterative phase-retrieval engine, reporting fidelity and trace-distance
convergence.
"""

from .experiments import SweepConfig, run_aqft_study, run_fidelity_sweep
from .mitigation import (
    CalibrationMatrix,
    ReadoutNoiseModel,
    build_calibration,
    corrupt_counts,
    load_calibration,
    mitigate,
    save_calibration,
)
from .pie import (
    PieConfig,
    PieTrace,
    beta_schedule,
    fidelity,
    pie_run,
    pie_run_batch,
    trace_distance,
)
from .protocol import (
    CircuitRecord,
    PtychoDataset,
    dataset_to_csv,
    generate_dataset,
    load_dataset,
    mitigate_dataset,
    normalize_dataset,
    sample_shots,
    save_dataset,
)
from .stateprep import (
    ghz_state,
    named_state,
    random_arbitrary,
    random_separable,
    table_states,
    w_state,
)
from .states import (
    ProjectorId,
    StateVector,
    circuit_settings,
    load_state,
    projector_ids,
    save_state,
)
from .transforms import (
    UnitarySpec,
    aqft_matrix,
    u3_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationMatrix",
    "CircuitRecord",
    "PieConfig",
    "PieTrace",
    "ProjectorId",
    "PtychoDataset",
    "ReadoutNoiseModel",
    "StateVector",
    "SweepConfig",
    "UnitarySpec",
    "aqft_matrix",
    "beta_schedule",
    "build_calibration",
    "circuit_settings",
    "corrupt_counts",
    "dataset_to_csv",
    "fidelity",
    "generate_dataset",
    "ghz_state",
    "load_calibration",
    "load_dataset",
    "load_state",
    "mitigate",
    "mitigate_dataset",
    "named_state",
    "normalize_dataset",
    "pie_run",
    "pie_run_batch",
    "projector_ids",
    "random_arbitrary",
    "random_separable",
    "run_aqft_study",
    "run_fidelity_sweep",
    "sample_shots",
    "save_calibration",
    "save_dataset",
    "save_state",
    "table_states",
    "trace_distance",
    "u3_matrix",
    "w_state",
]
