"""Simulator of an all-fiber loop buffer for polarization-encoded photons.

A gated phase modulator inside a fiber Sagnac loop switches weak coherent
pulses into and out of a mirror-terminated storage line, buffering them for
a programmable number of cycles. The package models the optics (Jones
calculus on density matrices), the event-ordered propagation, single-photon
detection with dark counts, jitter and dead time, and the built-in
measurement campaigns with their analysis.
"""

__version__ = "0.2.0"

from .components import (
    BufferTopology,
    DrivePulse,
    PulseRecord,
    fiber_delay,
    generate_pulse_train,
    pbs_project,
    sagnac_transfer,
    stored_states,
)
from .detection import (
    ClickSet,
    DetectorModel,
    Histogram,
    TriggerTrain,
    click_probability,
    histogram,
    sample_clicks,
)
from .engine import (
    DriveSchedule,
    SimLimits,
    SimulationResult,
    simulate,
    storage_period,
    storage_retrieval_schedule,
    validate_schedule,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ContractViolationError,
    InputDomainError,
    QBufferError,
    ScheduleError,
)
from .experiments import (
    Calibration,
    ExperimentConfig,
    VisibilityResult,
    apply_calibration,
    calibrate,
    fit_decay,
    run_hwp_sweep,
    run_retrieval_sweep,
    visibility,
)
from .polarization import (
    STATE_D,
    STATE_H,
    STATE_V,
    JonesOp,
    PolState,
    apply_depolarizing,
    apply_unitary,
    hwp_matrix,
    projection_probability,
)

__all__ = [
    "__version__",
    "BufferTopology", "DrivePulse", "PulseRecord", "fiber_delay",
    "generate_pulse_train", "pbs_project",
    "sagnac_transfer", "stored_states",
    "ClickSet", "DetectorModel", "Histogram", "TriggerTrain",
    "click_probability", "histogram", "sample_clicks",
    "DriveSchedule", "SimLimits", "SimulationResult", "simulate",
    "storage_period", "storage_retrieval_schedule", "validate_schedule",
    "CalibrationError", "ConfigError", "ContractViolationError",
    "InputDomainError", "QBufferError", "ScheduleError",
    "Calibration", "ExperimentConfig", "VisibilityResult",
    "apply_calibration", "calibrate",
    "fit_decay", "run_hwp_sweep", "run_retrieval_sweep", "visibility",
    "JonesOp", "PolState", "STATE_D", "STATE_H", "STATE_V",
    "apply_depolarizing", "apply_unitary", "hwp_matrix",
    "projection_probability",
]
