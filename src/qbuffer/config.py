"""Run configuration: JSON schema, presets, merging and validation.

A run is described by one JSON document with a versioned schema. Values are
resolved in increasing precedence: package defaults (the model constructors'
own), preset overlay, config file, then ``--set`` command-line overrides. The
fully merged document is snapshotted into the run manifest so any run can be
reproduced from its output directory alone.
"""

from __future__ import annotations

import copy
import json
from dataclasses import MISSING, dataclass, fields

from .components import BufferTopology, DrivePulse
from .detection import DetectorModel
from .engine import DriveSchedule, SimLimits
from .errors import ConfigError, InputDomainError
from .experiments import Calibration, ExperimentConfig

SCHEMA_VERSION = 1


def _defaults(cls, *skip) -> dict:
    """The document section of model ``cls``: the constructor default of
    every field not in ``skip``, with tuples as lists."""
    out = {}
    for f in fields(cls):
        if f.name not in skip:
            value = f.default if f.default_factory is MISSING \
                else f.default_factory()
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


_BASE = {
    "schema_version": SCHEMA_VERSION,
    "preset": "fig2-main",
    "seed": ExperimentConfig.seed,
    "experiment": _defaults(ExperimentConfig, "preset", "seed"),
    "topology": _defaults(BufferTopology),
    "detector": _defaults(DetectorModel),
    "limits": _defaults(SimLimits),
    "calibration": _defaults(Calibration),
    "schedule": None,
}

#: Preset name -> (description, kind, overlay).
PRESETS = {
    "fig2-main": (
        "Retrieval-time sweep: eight storage settings, time-tagged peaks "
        "and per-cycle loss fit",
        "retrieval-sweep",
        {},
    ),
    "fig2-insets": (
        "Polarization fringe sweeps at three retrieval settings in two "
        "bases, with table-calibrated depolarization",
        "hwp-sweep",
        {
            "experiment": {"eta_list": [1, 3, 5]},
            "calibration": {
                "mode": "table",
                "targets": {"1": 0.955, "3": 0.953, "5": 0.835},
            },
        },
    ),
    "ideal-system": (
        "Loss-only buffer with no decoherence and noiseless detectors, for "
        "reference fringes",
        "hwp-sweep",
        {
            "experiment": {"eta_list": [1, 3, 5], "mode": "analytic"},
            "detector": {"dark_rate_hz": 0.0, "jitter_sigma_s": 0.0},
        },
    ),
}


def preset_listing() -> list:
    """Stable (name, description) listing of the built-in presets."""
    return [(name, PRESETS[name][0]) for name in sorted(PRESETS)]


# -- validation ---------------------------------------------------------------


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(path, msg)


def _check_preset(name):
    _require(isinstance(name, str) and name in PRESETS, "preset",
             f"unknown preset {name!r}; available: "
             + ", ".join(sorted(PRESETS)))


def _check_keys(section, path, allowed):
    _require(isinstance(section, dict), path or "document",
             f"expected an object, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"{path}.{name}" if path else name,
                          "unknown configuration key")


def validate_config(cfg: dict) -> None:
    """Check the structure of a fully merged configuration document.

    Values are checked where they are used: the model constructors called
    by :func:`plan_from_config` own every range.
    """
    _check_keys(cfg, "", _BASE)
    _require(cfg.get("schema_version") == SCHEMA_VERSION, "schema_version",
             f"expected {SCHEMA_VERSION}")
    _check_preset(cfg.get("preset"))
    for name in ("experiment", "topology", "detector", "limits",
                 "calibration"):
        _check_keys(cfg.get(name), name, _BASE[name])
    for key in ("eta_list", "hwp_angles"):
        _require(isinstance(cfg["experiment"][key], list),
                 f"experiment.{key}", "expected a list")

    sched = cfg.get("schedule")
    if sched is not None:
        _require(isinstance(sched, list), "schedule",
                 "expected a list of drive windows")
        for i, d in enumerate(sched):
            _check_keys(d, f"schedule[{i}]",
                        ("t_start_s", "width_s", "voltage"))


# -- merging and overrides ----------------------------------------------------


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def parse_override(item: str) -> tuple:
    """Parse one ``--set path.to.key=value`` item; values are JSON literals
    with bare-string fallback."""
    if "=" not in item:
        raise ConfigError("", f"override {item!r} must look like key=value")
    path, raw = item.split("=", 1)
    path = path.strip()
    if not path:
        raise ConfigError("", f"override {item!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path, value


def apply_override(cfg: dict, path: str, value) -> None:
    keys = path.split(".")
    node = cfg
    for key in keys[:-1]:
        if not isinstance(node.get(key), dict):
            raise ConfigError(path, "no such configuration section")
        node = node[key]
    if keys[-1] not in node and keys[0] != "schedule":
        raise ConfigError(path, "unknown configuration key")
    node[keys[-1]] = value


def resolve_config(file_cfg: dict | None = None, overrides=(),
                   preset: str | None = None,
                   seed: int | None = None) -> dict:
    """Merge defaults, preset overlay, file values and overrides;
    :func:`plan_from_config` validates the result."""
    file_cfg = dict(file_cfg or {})
    chosen = preset or file_cfg.get("preset") or _BASE["preset"]
    _check_preset(chosen)
    cfg = _deep_merge(_BASE, PRESETS[chosen][2])
    cfg["preset"] = chosen
    cfg = _deep_merge(cfg, file_cfg)
    cfg["preset"] = chosen
    for item in overrides:
        path, value = parse_override(item)
        apply_override(cfg, path, value)
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("", "config document must be a JSON object")
    return doc


# -- plan construction --------------------------------------------------------


@dataclass
class RunPlan:
    """Everything one run needs, built from a validated config."""

    kind: str  # retrieval-sweep | hwp-sweep | custom
    experiment: ExperimentConfig
    topology: BufferTopology
    detector: DetectorModel
    limits: SimLimits
    calibration: Calibration
    schedule: DriveSchedule | None
    snapshot: dict

    @property
    def propagated_etas(self) -> tuple:
        """The settings a preset run propagates, calibration included."""
        etas = self.experiment.eta_list
        if self.kind == "hwp-sweep" and self.calibration.mode != "none":
            etas += tuple(self.calibration.targets)
        return tuple(dict.fromkeys(etas))


def _build(path_of, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``; a domain error becomes a ConfigError at
    ``path_of(field)``, the document path of the rejected field."""
    try:
        return cls(*args, **kwargs)
    except InputDomainError as exc:
        raise ConfigError(path_of(exc.field), str(exc)) from None


def _under(section):
    return lambda field: f"{section}.{field}"


#: DrivePulse field -> schedule entry key.
_DRIVE_KEYS = {"t_start": "t_start_s", "width": "width_s",
               "voltage": "voltage"}


def plan_from_config(cfg: dict) -> RunPlan:
    """Validate a resolved config and build its run plan.

    A value a model constructor rejects raises ConfigError with the
    document path of the value (``topology.v_pi``,
    ``schedule[0].width_s``, ``seed``, ...).
    """
    validate_config(cfg)
    exp = cfg["experiment"]
    experiment = _build(
        lambda field: field if field == "seed" else f"experiment.{field}",
        ExperimentConfig, preset=cfg["preset"], seed=cfg["seed"], **exp)
    topology = _build(_under("topology"), BufferTopology, **cfg["topology"])
    detector = _build(_under("detector"), DetectorModel, **cfg["detector"])
    limits = _build(_under("limits"), SimLimits, **cfg["limits"])
    calibration = _build(_under("calibration"), Calibration,
                         **cfg["calibration"])
    schedule = None
    kind = PRESETS[cfg["preset"]][1]
    if cfg["schedule"] is not None:
        kind = "custom"
        # Absent keys take DrivePulse's defaults; it rejects a None start.
        drives = tuple(
            _build(lambda field, i=i: f"schedule[{i}].{_DRIVE_KEYS[field]}",
                   DrivePulse, **{"t_start": None} | {
                       f: d[k] for f, k in _DRIVE_KEYS.items() if k in d})
            for i, d in enumerate(cfg["schedule"]))
        schedule = _build(lambda field: "schedule" + field.removeprefix(
            "pulses"), DriveSchedule, drives)
    plan = RunPlan(kind, experiment, topology, detector, limits, calibration,
                   schedule, copy.deepcopy(cfg))
    if schedule is None:
        # A preset sweep stores each pulse for eta - 1 cycles; the cycle
        # limit must let the longest one out.
        need = max(plan.propagated_etas) - 1
        _require(limits.max_cycles >= need, "limits.max_cycles",
                 f"must be >= {need}, the storage cycles of eta={need + 1}")
    return plan
