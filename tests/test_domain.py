"""The domain rule as a standing property of the public API.

Every callable in ``qbuffer.__all__`` is probed through its resolved
annotations: a parameter annotated with a qbuffer class is given ``5`` and
must raise InputDomainError naming it, with the ``errors._typed`` message;
a numeric parameter is given NaN, +-inf, a bool and a string and must raise
QBufferError or return a finite result. A new public callable with such a
parameter needs a row of valid base arguments in ``_base`` below, so it is
probed from the day it is added.
"""

import ast
import dataclasses
import inspect
import math
import numbers
import typing
from pathlib import Path

import numpy as np
import pytest

import qbuffer
from qbuffer.errors import InputDomainError, QBufferError

SRC = Path(qbuffer.__file__).resolve().parent

#: Values every numeric parameter is given.
NUMERIC_PROBES = [math.nan, math.inf, -math.inf, True, "x"]

#: Result records the library builds and returns; their fields are not
#: checked, as no caller passes one in except to ``validate_schedule``,
#: which checks its type.
RESULT_RECORDS = {"SimulationResult", "VisibilityResult"}

#: (callable, parameter) -> why its wrong-type message is not ``_typed``'s.
OTHER_MESSAGE = {
    ("simulate", "schedule"): "it also takes a sequence of DrivePulse, so a "
                              "non-sequence is named as not one",
}


def _base():
    """Public name -> keyword arguments of one valid, quick call."""
    from qbuffer import (BufferTopology, ClickSet, DetectorModel, JonesOp,
                         PulseRecord, STATE_H, TriggerTrain, simulate)
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
        "simulate": dict(topology=topo, schedule=(), inputs=[pulse]),
        "storage_period": dict(topology=topo),
        "storage_retrieval_schedule": dict(topology=topo, input_pulse=pulse,
                                           cycles=2),
        "validate_schedule": dict(result=simulate(topo, (), [pulse])),
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
    }


def _parameters():
    """(name, callable, parameter, model class or None for a number) of
    every probed parameter of the public API."""
    out = []
    for name in qbuffer.__all__:
        obj = getattr(qbuffer, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(
                obj, BaseException):
            continue
        hints = typing.get_type_hints(obj)
        for param in inspect.signature(obj).parameters:
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
                    if cls is not None and n not in RESULT_RECORDS]
NUMERIC_PARAMETERS = [(n, f, p) for n, f, p, cls in PARAMETERS
                      if cls is None and n not in RESULT_RECORDS]
PROBED = sorted({n for n, *_ in MODEL_PARAMETERS + NUMERIC_PARAMETERS})


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
    names = {n for n, *_ in PARAMETERS}
    assert RESULT_RECORDS <= names
    assert set(OTHER_MESSAGE) <= {(n, p) for n, _, p, _ in MODEL_PARAMETERS}


@pytest.mark.parametrize("name", PROBED)
def test_base_arguments_are_valid(base, name):
    getattr(qbuffer, name)(**base[name])


@pytest.mark.parametrize(
    "name, fn, param, cls", MODEL_PARAMETERS,
    ids=[f"{n}-{p}" for n, _, p, _ in MODEL_PARAMETERS])
def test_wrong_model_type_named(base, name, fn, param, cls):
    with pytest.raises(InputDomainError) as info:
        fn(**{**base[name], param: 5})
    assert info.value.field == param
    if (name, param) not in OTHER_MESSAGE:
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
