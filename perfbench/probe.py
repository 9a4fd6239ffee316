"""Child-process probes for the benchmark in ``run.py``.

Three modes, each run in a fresh interpreter with ``src`` on ``PYTHONPATH``:

``probe.py calibrate``
    Runs a fixed job that uses none of the program: import numpy, sort and
    format random numbers, and a pure-Python loop. Prints its CPU seconds,
    which tell how fast the machine is at that moment.

``probe.py setup SPEC_JSON``
    Times the program's set-up for one workload: import ``qbuffer.cli``,
    then ``resolve_config`` + ``plan_from_config``. Prints the CPU seconds
    the process spent on it (``time.process_time``), then the wall seconds.

``probe.py trace SPANS_OUT -- QBUFFER_ARGV...``
    Runs ``qbuffer.cli.main(argv)`` in-process with every layer boundary
    hooked, and writes the recorded spans and counts to SPANS_OUT as JSON.

Hooks replace a function where its caller looks it up (for example
``qbuffer.experiments.simulate``, and ``qbuffer.engine.simulate`` for the
call inside ``validate_schedule``). A hooked name that does not exist is
reported as absent instead of failing, so refactors that move or delete a
function do not break the benchmark. ``polarization`` and ``components``
are leaf calls inside the engine loop; they count toward
``engine.simulate`` and are not hooked, which keeps tracing overhead low.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time


def _count_events(args, kwargs, result):
    return {"events": len(result.event_log)}


def _count_sample(args, kwargs, result):
    pulses = args[0] if args else kwargs["pulses"]
    if isinstance(pulses, tuple) and len(pulses) == 2 \
            and hasattr(pulses[0], "__len__"):
        n_in = len(pulses[0])
    else:
        n_in = len(list(pulses))
    return {"pulses_in": n_in, "clicks_out": len(result)}


def _count_dead_time(args, kwargs, result):
    times = args[0] if args else kwargs["times"]
    # Indexing accepts a keep-mask or kept indices alike.
    return {"in": len(times), "kept": len(times[result])}


def _is_manifest(args, kwargs):
    fp = args[1] if len(args) > 1 else kwargs.get("fp")
    return os.path.basename(getattr(fp, "name", "")) == "manifest.json"


#: Layer span name -> (hooked "module:attribute" names, counter or None).
#: ``json:dump`` catches every JSON result file the CLI writes; it times the
#: dump alone, not the open and close around it.
HOOKS = {
    "config.resolve": (("qbuffer.cli:resolve_config",
                        "qbuffer.cli:plan_from_config"), None),
    "engine.simulate": (("qbuffer.experiments:simulate",
                         "qbuffer.engine:simulate",
                         "qbuffer.cli:simulate"), _count_events),
    "engine.validate": (("qbuffer.experiments:validate_schedule",
                         "qbuffer.cli:validate_schedule"), None),
    "experiments.calibrate": (("qbuffer.cli:calibrate",), None),
    "experiments.sweep": (("qbuffer.cli:run_retrieval_sweep",
                           "qbuffer.cli:run_hwp_sweep"), None),
    "detection.sample": (("qbuffer.experiments:sample_clicks",),
                         _count_sample),
    "detection.count_triggered": (("qbuffer.experiments:count_triggered",),
                                  None),
    "detection.histogram": (("qbuffer.experiments:histogram",), None),
    "kernels.dead_time": (("qbuffer.kernels:dead_time_filter",),
                          _count_dead_time),
    "kernels.bin_counts": (("qbuffer.kernels:bin_counts",), None),
    "cli.write": (("qbuffer.detection:ClickSet.write_csv",
                   "qbuffer.detection:Histogram.write_csv",
                   "qbuffer.engine:SimulationResult.write_event_log_csv",
                   "qbuffer.cli:write_peaks_csv",
                   "qbuffer.cli:write_sweep_csv",
                   "json:dump"), None),
}


#: Hooked name -> predicate on (args, kwargs): calls it accepts are not
#: recorded. The manifest is left out of ``cli.write`` as it is left out of
#: ``cli.bytes_written`` and ``cli.files_written``.
SKIP = {"json:dump": _is_manifest}


class Tracer:
    """Keeps spans in memory: (layer, start, end, parent index)."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.count_errors: list = []
        self._stack: list = []

    def wrap(self, layer, fn, counter, skip=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def hooked(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([layer, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if counter is not None:
                self._count(layer, counter, args, kwargs, result)
            return result

        hooked.__wrapped__ = fn
        return hooked

    def _count(self, layer, counter, args, kwargs, result):
        try:
            got = counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            self.count_errors.append(f"{layer}: {exc!r}")
            return
        for key, value in got.items():
            name = f"{layer}.{key}"
            self.counts[name] = self.counts.get(name, 0) + value


def _resolve(target):
    """(owner, attribute) for "module:Attr.path", or None if missing."""
    module_name, _, attr_path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def install(tracer: Tracer) -> list:
    """Hook every target in HOOKS; return the targets that are absent."""
    absent = []
    for layer, (targets, counter) in HOOKS.items():
        for target in targets:
            found = _resolve(target)
            if found is None:
                absent.append(target)
                continue
            owner, attr = found
            setattr(owner, attr, tracer.wrap(layer, getattr(owner, attr),
                                             counter, SKIP.get(target)))
    return absent


def setup_probe(spec: dict) -> tuple:
    """(CPU seconds, wall seconds) of one set-up."""
    cpu, started = time.process_time(), time.perf_counter()
    import qbuffer.cli  # noqa: F401  (the import is part of set-up)
    from qbuffer.config import plan_from_config, resolve_config

    cfg = resolve_config({}, overrides=spec["overrides"],
                         preset=spec["preset"], seed=spec["seed"])
    plan_from_config(cfg)
    return time.process_time() - cpu, time.perf_counter() - started


def calibrate_probe() -> float:
    """CPU seconds of the fixed calibration job."""
    cpu = time.process_time()
    import numpy as np

    values = np.random.default_rng(12345).random(400_000)
    np.argsort(values)
    "".join(f"{v!r},{i}\n" for i, v in enumerate(values[:40_000].tolist()))
    acc = 0.0
    for i in range(100_000):
        acc += (i * 0.5) ** 0.5
    return time.process_time() - cpu


def trace_probe(spans_out: str, argv: list) -> int:
    tracer = Tracer()
    import qbuffer.cli

    absent = install(tracer)
    code = qbuffer.cli.main(argv)
    doc = {"spans": tracer.spans, "counts": tracer.counts,
           "count_errors": tracer.count_errors, "absent": absent}
    with open(spans_out, "w") as fh:
        fh.write(json.dumps(doc))
    return code


def main(argv: list) -> int:
    if argv == ["calibrate"]:
        print(repr(calibrate_probe()))
        return 0
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(*map(repr, setup_probe(json.loads(argv[1]))))
        return 0
    if argv[:1] == ["trace"] and len(argv) >= 3 and argv[2] == "--":
        return trace_probe(argv[1], argv[3:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
