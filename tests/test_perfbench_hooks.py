"""The benchmark's hook table still reaches the program.

``perfbench/probe.py`` times each layer by replacing the functions its
``HOOKS`` table names, and reports a name that no longer exists as absent
instead of failing, so a refactor that moves one would silently empty a
layer. These tests import ``probe.py`` and ``run.py`` without installing
any hook and check that the names resolve and the counters run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from qbuffer import kernels
from qbuffer.components import BufferTopology, generate_pulse_train
from qbuffer.detection import DetectorModel, TriggerTrain, sample_clicks
from qbuffer.engine import simulate, storage_retrieval_schedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Hooked names the program no longer has. ``cli`` reaches the engine
#: through ``experiments``, whose names are hooked too.
ABSENT = {"qbuffer.cli:simulate", "qbuffer.cli:validate_schedule"}


@pytest.fixture(scope="module")
def bench():
    """(probe, run): the two modules, imported without writing bytecode
    next to them."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        probe = importlib.import_module("probe")
        run = importlib.import_module("run")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
        # Generic names; the modules stay reachable through the fixture.
        sys.modules.pop("probe", None)
        sys.modules.pop("run", None)
    assert Path(probe.__file__).parent == PERFBENCH
    return probe, run


def test_every_hook_target_resolves(bench):
    probe, _ = bench
    targets = {t for names, _ in probe.HOOKS.values() for t in names}
    assert [t for t in sorted(targets - ABSENT)
            if probe._resolve(t) is None] == []


def test_exercised_layers_keep_a_target(bench):
    probe, run = bench
    for name, workload in run.WORKLOADS.items():
        for layer in workload.exercised:
            targets, _ = probe.HOOKS[layer]
            assert any(probe._resolve(t) is not None for t in targets), \
                f"{name}: layer {layer} has no hook left"


def test_counters_run_on_real_results(bench):
    probe, _ = bench
    topo = BufferTopology()
    pulse = generate_pulse_train(1000.0, 50e-9, 0.1, 1)[0]
    sched = storage_retrieval_schedule(topo, pulse, 2)
    res = simulate(topo, sched, [pulse])
    assert probe._count_events((topo, sched, [pulse]), {}, res) == \
        {"events": len(res.event_log)}

    train = TriggerTrain(1e-6, 500, (1e-7, 3e-7), (0.5, 0.2))
    det = DetectorModel(dead_time_s=5e-7)
    clicks = sample_clicks(train, det, 5e-4, 3)
    assert probe._count_sample((train, det, 5e-4, 3), {}, clicks) == \
        {"pulses_in": 1000, "clicks_out": len(clicks)}

    times = np.array([0.0, 1.0, 1.5, 3.0])
    keep = kernels.dead_time_filter(times, 1.0)
    assert probe._count_dead_time((times, 1.0), {}, keep) == \
        {"in": 4, "kept": 3}
