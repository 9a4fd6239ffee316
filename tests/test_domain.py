"""The domain rule as a standing property of the public API.

Every callable in ``qbuffer.__all__``, every public function of
``qbuffer.kernels`` and the public names in ``EXTRA`` are probed through
their resolved annotations: a parameter annotated with a qbuffer class is
given ``5`` and must raise InputDomainError naming it, with the
``errors._typed`` message; a numeric parameter is given NaN, +-inf, a bool
and a string and must raise QBufferError or return a finite result; a
count (``INTEGER_NAMES``) is also given a negative and a non-integer value
and must raise InputDomainError naming it. A parameter annotated as an
iterable (of numbers, basis names or records) is given ``5`` and must raise
InputDomainError naming it, and a one-entry list of each numeric probe,
which must raise InputDomainError naming the entry. A new public callable with such a
parameter needs a row of valid base arguments in ``_base`` below, so it is
probed from the day it is added.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import numbers
import typing
from collections.abc import Iterable
from pathlib import Path

import numpy as np
import pytest

import qbuffer
from qbuffer.errors import InputDomainError, QBufferError

SRC = Path(qbuffer.__file__).resolve().parent

#: Values every numeric parameter is given.
NUMERIC_PROBES = [math.nan, math.inf, -math.inf, True, "x"]

#: Result records the library builds and returns; their fields are not
#: checked, as no caller passes one in.
RESULT_RECORDS = {"VisibilityResult"}

#: Values a count is given besides ``NUMERIC_PROBES``.
COUNT_PROBES = [-1, 2.5]

#: (value, suffix of the field it is reported under) an iterable of
#: numbers is given.
ITERABLE_PROBES = [(5, ""), *(([v], "[0]") for v in NUMERIC_PROBES)]

#: The integer parameters that count something.
INTEGER_NAMES = ("max_cycles", "n_bins", "n_triggers")

#: Modules whose public functions are probed beside ``qbuffer.__all__``.
MODULES = ("kernels",)

#: Module -> public names outside ``qbuffer.__all__`` that are probed too.
EXTRA = {"experiments": ("share_table", "propagate", "source_pulses",
                         "average_visibility_by_eta"),
         "detection": ("count_triggered",), "polarization": ("hwp_matrices",)}


def _public():
    """Name -> public callable of every probed name."""
    out = {name: getattr(qbuffer, name) for name in qbuffer.__all__}
    for module in MODULES:
        mod = importlib.import_module(f"qbuffer.{module}")
        out.update((name, obj) for name, obj in vars(mod).items()
                   if inspect.isfunction(obj) and not name.startswith("_")
                   and obj.__module__ == mod.__name__)
    for module, names in EXTRA.items():
        mod = importlib.import_module(f"qbuffer.{module}")
        out.update((name, getattr(mod, name)) for name in names)
    return out


PUBLIC = _public()


def _base():
    """Public name -> keyword arguments of one valid, quick call."""
    from qbuffer import (BufferTopology, ClickSet, DetectorModel,
                         DriveSchedule, JonesOp, PulseRecord, STATE_H,
                         TriggerTrain, simulate)
    from qbuffer.experiments import CalibrationResult, ExperimentConfig

    topo, det = BufferTopology(), DetectorModel()
    pulse = PulseRecord(0, 0.0, 5e-8, 0.1)
    config = ExperimentConfig(mode="analytic", eta_list=(1, 2))
    run = dict(config=config, topology=topo, det=det)
    return {
        "BufferTopology": {},
        "DrivePulse": dict(t_start=0.0),
        "PulseRecord": dict(id=0, t=0.0, width=5e-8, mu=0.1),
        "fiber_delay": dict(length_m=1.0, group_index=1.5),
        "generate_pulse_train": dict(rep_rate=1e3, pulse_width=5e-8, mu=0.1,
                                     n=2),
        "pbs_project": dict(state=STATE_H, basis_unitary=JonesOp.identity()),
        "sagnac_transfer": dict(delta_phi=1.0),
        "stored_states": dict(topology=topo, pol=STATE_H, max_cycles=2),
        "ClickSet": dict(times=[0.1], detector_id=0, acquisition_s=1.0),
        "DetectorModel": {},
        "Histogram": dict(t0=0.0, bin_width=1.0, counts=[1, 2]),
        "TriggerTrain": dict(period=1e-3, n_triggers=2, offsets=(1e-6,),
                             mus=(0.1,)),
        "click_probability": dict(mu=0.1, det=det, window=1e-7),
        "histogram": dict(clicks=ClickSet([0.1], 0, 1.0), t0=0.0,
                          bin_width=0.5, n_bins=4),
        "sample_clicks": dict(
            train=TriggerTrain(1e-3, 2, (1e-6,), (0.1,)), det=det,
            acquisition=2e-3, seed=0),
        "SimLimits": {},
        "SimulationResult": dict(retrieved=[], discarded=[], event_log=[],
                                 passages=[], inputs=[],
                                 schedule=DriveSchedule()),
        "simulate": dict(topology=topo, schedule=DriveSchedule(),
                         inputs=[pulse]),
        "storage_period": dict(topology=topo),
        "storage_retrieval_schedule": dict(topology=topo, input_pulse=pulse,
                                           cycles=2),
        "validate_schedule": dict(result=simulate(topo, DriveSchedule(),
                                                  [pulse])),
        "ExperimentConfig": {},
        "apply_calibration": dict(topology=topo, cal=CalibrationResult(
            "table", 0.0, (0.0,), {}, {1: 0.9})),
        "calibrate": dict(targets={1: 0.9}, **run),
        "run_hwp_sweep": run,
        "run_retrieval_sweep": run,
        "visibility": dict(c_max=1.0, c_min=0.5),
        "apply_depolarizing": dict(state=STATE_H, p=0.1),
        "apply_unitary": dict(state=STATE_H, u=JonesOp.identity()),
        "hwp_matrix": dict(theta=0.3),
        "projection_probability": dict(state=STATE_H, axis=[1, 0]),
        "bin_counts": dict(times=[0.1, 0.7, 3.0], t0=0.0, bin_width=0.5,
                           n_bins=4),
        "dead_time_filter": dict(times=[0.0, 0.5, 2.0], dead_time=1.0),
        "fold": dict(times=[0.5, 2.5], period=1.0),
        "share_table": dict(topology=topo, angles=[0.0, 0.3], max_cycles=2,
                            bases=("computational",)),
        "count_triggered": dict(clicks=ClickSet([0.1, 1.2], 0, 2.0),
                                period=1.0, offset=0.1, window=0.1),
        "hwp_matrices": dict(angles=[0.0, 0.3]),
        "propagate": dict(runs={}, topology=topo, config=config, eta=2,
                          limits=None),
        "source_pulses": dict(config=config),
        "average_visibility_by_eta": dict(results=[]),
    }


def _parameters():
    """(name, callable, parameter, model class, or None for a number, or
    ``Iterable`` for an iterable) of every probed parameter of the public
    API."""
    out = []
    for name, obj in PUBLIC.items():
        if not callable(obj) or isinstance(obj, type) and issubclass(
                obj, BaseException):
            continue
        hints = typing.get_type_hints(obj)
        for param in inspect.signature(obj).parameters:
            if typing.get_origin(hints.get(param)) is Iterable:
                out.append((name, obj, param, Iterable))
                continue
            kinds = typing.get_args(hints.get(param)) or (hints.get(param),)
            models = [k for k in kinds if isinstance(k, type)
                      and k.__module__.startswith("qbuffer.")]
            if models:
                out.append((name, obj, param, models[0]))
            elif int in kinds or float in kinds:
                out.append((name, obj, param, None))
    return out


PARAMETERS = _parameters()
MODEL_PARAMETERS = [(n, f, p, cls) for n, f, p, cls in PARAMETERS
                    if cls not in (None, Iterable)
                    and n not in RESULT_RECORDS]
NUMERIC_PARAMETERS = [(n, f, p) for n, f, p, cls in PARAMETERS
                      if cls is None and n not in RESULT_RECORDS]
COUNT_PARAMETERS = [(n, f, p) for n, f, p in NUMERIC_PARAMETERS
                    if p in INTEGER_NAMES]
ITERABLE_PARAMETERS = [(n, f, p) for n, f, p, cls in PARAMETERS
                       if cls is Iterable]
PROBED = sorted({n for n, *_ in MODEL_PARAMETERS + NUMERIC_PARAMETERS
                 + ITERABLE_PARAMETERS})


def _finite(value) -> bool:
    """Whether every number that ``value`` holds is finite."""
    if isinstance(value, numbers.Number):
        return math.isfinite(abs(value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    return True


@pytest.fixture(scope="module")
def base():
    return _base()


def test_every_probed_callable_has_base_arguments(base):
    assert sorted(base) == PROBED


def test_allow_lists_name_probed_parameters():
    assert RESULT_RECORDS <= {n for n, *_ in PARAMETERS}
    assert set(INTEGER_NAMES) == {p for *_, p in COUNT_PARAMETERS}
    assert {n for names in EXTRA.values() for n in names} <= set(PROBED)


@pytest.mark.parametrize("name", PROBED)
def test_base_arguments_are_valid(base, name):
    PUBLIC[name](**base[name])


@pytest.mark.parametrize(
    "name, fn, param, cls", MODEL_PARAMETERS,
    ids=[f"{n}-{p}" for n, _, p, _ in MODEL_PARAMETERS])
def test_wrong_model_type_named(base, name, fn, param, cls):
    with pytest.raises(InputDomainError) as info:
        fn(**{**base[name], param: 5})
    assert info.value.field == param
    assert str(info.value) == f"{param} must be a {cls.__name__}, not int"


@pytest.mark.parametrize("value", NUMERIC_PROBES, ids=repr)
@pytest.mark.parametrize(
    "name, fn, param", NUMERIC_PARAMETERS,
    ids=[f"{n}-{p}" for n, _, p in NUMERIC_PARAMETERS])
def test_bad_number_rejected_or_finite(base, name, fn, param, value):
    try:
        result = fn(**{**base[name], param: value})
    except QBufferError:
        return
    assert _finite(result)


@pytest.mark.parametrize("value", COUNT_PROBES, ids=repr)
@pytest.mark.parametrize(
    "name, fn, param", COUNT_PARAMETERS,
    ids=[f"{n}-{p}" for n, _, p in COUNT_PARAMETERS])
def test_bad_count_named(base, name, fn, param, value):
    with pytest.raises(InputDomainError) as info:
        fn(**{**base[name], param: value})
    assert info.value.field == param


@pytest.mark.parametrize("value, entry", ITERABLE_PROBES,
                         ids=[repr(v) for v, _ in ITERABLE_PROBES])
@pytest.mark.parametrize(
    "name, fn, param", ITERABLE_PARAMETERS,
    ids=[f"{n}-{p}" for n, _, p in ITERABLE_PARAMETERS])
def test_bad_iterable_named(base, name, fn, param, value, entry):
    with pytest.raises(InputDomainError) as info:
        fn(**{**base[name], param: value})
    assert info.value.field == param + entry


def test_propagate_checks_its_cache_argument(base):
    # ``runs`` is annotated ``dict``, which the model probes leave out.
    with pytest.raises(InputDomainError) as info:
        PUBLIC["propagate"](**{**base["propagate"], "runs": 5})
    assert str(info.value) == "runs must be a dict, not int"
    assert info.value.field == "runs"


def _typed_by_hand(tree):
    """Line of each ``if not isinstance(...)`` whose body raises
    InputDomainError."""
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if not (isinstance(node, ast.If) and isinstance(test, ast.UnaryOp)
                and isinstance(test.op, ast.Not)
                and isinstance(test.operand, ast.Call)
                and getattr(test.operand.func, "id", None) == "isinstance"):
            continue
        if any(isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Call)
               and getattr(sub.exc.func, "id", None) == "InputDomainError"
               for stmt in node.body for sub in ast.walk(stmt)):
            yield node.lineno


def test_model_types_checked_only_by_typed():
    """``errors._typed`` is the one wrong-type check: no other module spells
    its own ``isinstance`` test before raising InputDomainError."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "errors.py"
             for line in _typed_by_hand(ast.parse(path.read_text()))]
    assert found == []


def test_hand_written_check_is_found():
    tree = ast.parse("if not isinstance(x, int):\n"
                     "    raise InputDomainError('x', 'x')\n")
    assert list(_typed_by_hand(tree)) == [1]
