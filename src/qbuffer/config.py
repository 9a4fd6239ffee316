"""Run configuration: JSON schema, presets, merging and validation.

A run is described by one JSON document with a versioned schema. Values are
resolved in increasing precedence: package defaults, preset overlay, config
file, then ``--set`` command-line overrides. The fully merged document is
snapshotted into the run manifest so any run can be reproduced from its
output directory alone.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

from .components import BufferTopology, DrivePulse
from .detection import DetectorModel
from .engine import DriveSchedule, SimLimits
from .errors import ConfigError, InputDomainError
from .experiments import ExperimentConfig, default_hwp_grid

SCHEMA_VERSION = 1

_BASE = {
    "schema_version": SCHEMA_VERSION,
    "preset": "fig2-main",
    "seed": 12345,
    "experiment": {
        "mu_source": 0.1,
        "n_triggers": 60_000,
        "eta_list": list(range(1, 9)),
        "hwp_angles": list(default_hwp_grid()),
        "basis": "both",
        "mode": "monte-carlo",
        "rep_rate_hz": 1000.0,
        "pulse_width_s": 50e-9,
        "count_window_s": 100e-9,
        "drive_width_s": 180e-9,
        "drive_guard_s": 20e-9,
    },
    "topology": {
        "loop_length_m": 1000.0,
        "storage_length_m": 100.0,
        "group_index": 1.468,
        "modulator_offset_m": 10.0,
        "v_pi": 900.0,
        "modulator_loss_db": 0.4,
        "fbg_reflectivity": 1.0,
        "per_element_loss_db": {
            "circulator": 0.6,
            "coupler": 0.0,
            "loop_fiber": 0.2,
            "storage_fiber": 0.02,
            "input_path": 0.0,
            "output_path": 0.0,
        },
        "depol_per_cycle": 0.0,
        "prep_error_depol": 0.0,
    },
    "detector": {
        "efficiency": 0.90,
        "dark_rate_hz": 100.0,
        "dead_time_s": 50e-9,
        "jitter_sigma_s": 50e-12,
    },
    "limits": {
        "max_cycles": 64,
        "mu_floor": 1e-12,
    },
    "calibration": {
        "mode": "none",
        "targets": {},
    },
    "schedule": None,
}

#: Preset name -> (description, kind, overlay).
PRESETS = {
    "fig2-main": (
        "Retrieval-time sweep: eight storage settings, time-tagged peaks "
        "and per-cycle loss fit",
        "retrieval-sweep",
        {"experiment": {"eta_list": list(range(1, 9))}},
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

_NUM = (int, float)


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(path, msg)


def _check_number(value, path, lo=None, hi=None):
    _require(isinstance(value, _NUM) and not isinstance(value, bool),
             path, f"expected a number, got {value!r}")
    _require(math.isfinite(value), path, "must be finite")
    if lo is not None:
        _require(value >= lo, path, f"must be >= {lo}")
    if hi is not None:
        _require(value <= hi, path, f"must be <= {hi}")


def _check_int(value, path, lo=None):
    _require(isinstance(value, int) and not isinstance(value, bool),
             path, f"expected an integer, got {value!r}")
    if lo is not None:
        _require(value >= lo, path, f"must be >= {lo}")


def _check_keys(section, path, allowed):
    _require(isinstance(section, dict), path or "document",
             f"expected an object, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"{path}.{name}" if path else name,
                          "unknown configuration key")


def validate_config(cfg: dict) -> None:
    """Validate a fully merged configuration document."""
    _check_keys(cfg, "", _BASE)
    _require(cfg.get("schema_version") == SCHEMA_VERSION, "schema_version",
             f"expected {SCHEMA_VERSION}")
    preset = cfg.get("preset")
    _require(preset in PRESETS, "preset",
             f"unknown preset {preset!r}; available: "
             + ", ".join(sorted(PRESETS)))
    _check_int(cfg.get("seed"), "seed", lo=0)

    exp = cfg.get("experiment", {})
    _check_keys(exp, "experiment", _BASE["experiment"])
    _check_number(exp["mu_source"], "experiment.mu_source", lo=0)
    _check_int(exp["n_triggers"], "experiment.n_triggers", lo=1)
    _require(isinstance(exp["eta_list"], list) and exp["eta_list"],
             "experiment.eta_list", "expected a non-empty list")
    for i, e in enumerate(exp["eta_list"]):
        _check_int(e, f"experiment.eta_list[{i}]", lo=1)
    _require(isinstance(exp["hwp_angles"], list),
             "experiment.hwp_angles", "expected a list of radians")
    for i, a in enumerate(exp["hwp_angles"]):
        _check_number(a, f"experiment.hwp_angles[{i}]")
    _require(exp["basis"] in ("computational", "logical", "both"),
             "experiment.basis", "must be computational, logical or both")
    _require(exp["mode"] in ("monte-carlo", "analytic"),
             "experiment.mode", "must be monte-carlo or analytic")
    for key in ("rep_rate_hz", "pulse_width_s", "count_window_s",
                "drive_width_s"):
        _check_number(exp[key], f"experiment.{key}", lo=0)
        _require(exp[key] > 0, f"experiment.{key}", "must be > 0")
    _check_number(exp["drive_guard_s"], "experiment.drive_guard_s", lo=0)

    topo = cfg.get("topology", {})
    _check_keys(topo, "topology", _BASE["topology"])
    for key, lo in (("loop_length_m", None), ("storage_length_m", 0),
                    ("group_index", 1.0), ("modulator_offset_m", None),
                    ("v_pi", None), ("modulator_loss_db", 0),
                    ("fbg_reflectivity", 0), ("prep_error_depol", 0)):
        _check_number(topo[key], f"topology.{key}", lo=lo)
    _require(topo["loop_length_m"] > 0, "topology.loop_length_m",
             "must be > 0")
    _require(topo["v_pi"] > 0, "topology.v_pi", "must be > 0")
    _require(topo["fbg_reflectivity"] <= 1.0, "topology.fbg_reflectivity",
             "must be <= 1")
    _require(topo["prep_error_depol"] <= 1.0, "topology.prep_error_depol",
             "must be <= 1")
    _check_keys(topo["per_element_loss_db"], "topology.per_element_loss_db",
                _BASE["topology"]["per_element_loss_db"])
    for key, v in topo["per_element_loss_db"].items():
        _check_number(v, f"topology.per_element_loss_db.{key}", lo=0)
    depol = topo["depol_per_cycle"]
    if isinstance(depol, list):
        for i, p in enumerate(depol):
            _check_number(p, f"topology.depol_per_cycle[{i}]", lo=0, hi=1)
    else:
        _check_number(depol, "topology.depol_per_cycle", lo=0, hi=1)

    det = cfg.get("detector", {})
    _check_keys(det, "detector", _BASE["detector"])
    _check_number(det["efficiency"], "detector.efficiency", lo=0, hi=1)
    for key in ("dark_rate_hz", "dead_time_s", "jitter_sigma_s"):
        _check_number(det[key], f"detector.{key}", lo=0)

    lim = cfg.get("limits", {})
    _check_keys(lim, "limits", _BASE["limits"])
    _check_int(lim["max_cycles"], "limits.max_cycles", lo=0)
    _check_number(lim["mu_floor"], "limits.mu_floor", lo=0)

    cal = cfg.get("calibration", {})
    _check_keys(cal, "calibration", _BASE["calibration"])
    _require(cal["mode"] in ("none", "table", "physical"),
             "calibration.mode", "must be none, table or physical")
    _require(isinstance(cal["targets"], dict), "calibration.targets",
             "expected an object mapping eta to visibility")
    for key, v in cal["targets"].items():
        _require(str(key).isdigit() and int(key) >= 1,
                 f"calibration.targets.{key}", "eta keys must be >= 1")
        _check_number(v, f"calibration.targets.{key}", lo=0, hi=1)

    sched = cfg.get("schedule")
    if sched is None:
        # A preset sweep stores each pulse for eta - 1 cycles, calibration
        # targets included; the cycle limit must let the longest one out.
        etas = list(exp["eta_list"])
        if PRESETS[preset][1] == "hwp-sweep" and cal["mode"] != "none":
            etas += [int(key) for key in cal["targets"]]
        need = max(etas) - 1
        _require(lim["max_cycles"] >= need, "limits.max_cycles",
                 f"must be >= {need}, the storage cycles of eta={need + 1}")
    else:
        _require(isinstance(sched, list), "schedule",
                 "expected a list of drive windows")
        for i, d in enumerate(sched):
            _require(isinstance(d, dict), f"schedule[{i}]",
                     "expected an object")
            _check_keys(d, f"schedule[{i}]",
                        ("t_start_s", "width_s", "voltage"))
            _check_number(d.get("t_start_s"), f"schedule[{i}].t_start_s")
            _check_number(d.get("width_s", 180e-9), f"schedule[{i}].width_s")
            _check_number(d.get("voltage", 900.0), f"schedule[{i}].voltage",
                          lo=0)


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
    """Merge defaults, preset overlay, file values and overrides."""
    file_cfg = dict(file_cfg or {})
    chosen = preset or file_cfg.get("preset") or _BASE["preset"]
    if chosen not in PRESETS:
        raise ConfigError("preset",
                          f"unknown preset {chosen!r}; available: "
                          + ", ".join(sorted(PRESETS)))
    cfg = _deep_merge(_BASE, PRESETS[chosen][2])
    cfg["preset"] = chosen
    cfg = _deep_merge(cfg, file_cfg)
    cfg["preset"] = chosen
    for item in overrides:
        path, value = parse_override(item)
        apply_override(cfg, path, value)
    if seed is not None:
        cfg["seed"] = seed
    validate_config(cfg)
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
    preset: str
    seed: int
    experiment: ExperimentConfig
    topology: BufferTopology
    detector: DetectorModel
    limits: SimLimits
    calibration: dict
    schedule: DriveSchedule | None
    snapshot: dict


def _build(path: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``; a domain error becomes a ConfigError at
    ``path``, the config section the values came from."""
    try:
        return cls(*args, **kwargs)
    except InputDomainError as exc:
        raise ConfigError(path, str(exc)) from None


def plan_from_config(cfg: dict) -> RunPlan:
    """Build a run plan; a value the dataclasses reject raises ConfigError
    with the section as its path (``topology``, ``schedule[i]``, ...)."""
    validate_config(cfg)
    exp = cfg["experiment"]
    experiment = _build(
        "experiment", ExperimentConfig,
        preset=cfg["preset"],
        mu_source=exp["mu_source"],
        n_triggers=exp["n_triggers"],
        seed=cfg["seed"],
        eta_list=tuple(exp["eta_list"]),
        hwp_angles=tuple(exp["hwp_angles"]),
        basis=exp["basis"],
        mode=exp["mode"],
        rep_rate_hz=exp["rep_rate_hz"],
        pulse_width_s=exp["pulse_width_s"],
        count_window_s=exp["count_window_s"],
        drive_width_s=exp["drive_width_s"],
        drive_guard_s=exp["drive_guard_s"],
    )
    topo_cfg = dict(cfg["topology"])
    depol = topo_cfg.pop("depol_per_cycle")
    topology = _build(
        "topology", BufferTopology,
        depol_per_cycle=tuple(depol) if isinstance(depol, list) else depol,
        **topo_cfg)
    detector = _build("detector", DetectorModel, **cfg["detector"])
    lim = cfg["limits"]
    limits = _build("limits", SimLimits, max_cycles=lim["max_cycles"],
                    mu_floor=lim["mu_floor"])
    schedule = None
    kind = PRESETS[cfg["preset"]][1]
    if cfg.get("schedule") is not None:
        kind = "custom"
        drives = tuple(
            _build(f"schedule[{i}]", DrivePulse, d["t_start_s"],
                   d.get("width_s", 180e-9), d.get("voltage", 900.0))
            for i, d in enumerate(cfg["schedule"]))
        schedule = _build("schedule", DriveSchedule, drives)
    cal = {"mode": cfg["calibration"]["mode"],
           "targets": {int(k): float(v)
                       for k, v in cfg["calibration"]["targets"].items()}}
    return RunPlan(kind, cfg["preset"], cfg["seed"], experiment, topology,
                   detector, limits, cal, schedule, copy.deepcopy(cfg))
