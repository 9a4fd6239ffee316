"""Simulator of an all-fiber loop buffer for polarization-encoded photons.

A gated phase modulator inside a fiber Sagnac loop switches weak coherent
pulses into and out of a mirror-terminated storage line, buffering them for
a programmable number of cycles. The package models the optics (Jones
calculus on density matrices), the event-ordered propagation, single-photon
detection with dark counts, jitter and dead time, and the built-in
measurement campaigns with their analysis.

The names below are imported from their modules on first use (PEP 562), so
``import qbuffer`` loads no numpy and the command line can set numpy's
environment before numpy starts.
"""

import importlib

__version__ = "0.2.0"

#: Module -> the public names it defines.
_EXPORTS = {
    "components": (
        "BufferTopology", "DrivePulse", "PulseRecord", "fiber_delay",
        "generate_pulse_train", "pbs_project",
        "sagnac_transfer", "stored_states"),
    "detection": (
        "ClickSet", "DetectorModel", "Histogram", "TriggerTrain",
        "click_probability", "histogram", "sample_clicks"),
    "engine": (
        "DriveSchedule", "SimLimits", "SimulationResult", "simulate",
        "storage_period", "storage_retrieval_schedule", "validate_schedule"),
    "errors": (
        "CalibrationError", "ConfigError", "ContractViolationError",
        "InputDomainError", "QBufferError", "ScheduleError"),
    "experiments": (
        "Calibration", "ExperimentConfig", "VisibilityResult",
        "apply_calibration", "calibrate",
        "fit_decay", "run_hwp_sweep", "run_retrieval_sweep", "visibility"),
    "polarization": (
        "JonesOp", "PolState", "STATE_D", "STATE_H", "STATE_V",
        "apply_depolarizing", "apply_unitary", "hwp_matrix",
        "projection_probability"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
