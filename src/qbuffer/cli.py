"""Command-line entry point.

Subcommands: ``run`` executes a preset or a custom drive schedule and writes
result files plus a manifest; ``validate`` runs the same stages with the
counts of the click model, drawing no sample and writing no file, so it
makes every check that needs no random draw; ``presets`` lists the
built-in experiments. Run-only are the checks of the draw (sampled counts
too few to analyse at a small ``n_triggers``; the sampler's limits on
pulses, dark clicks and memory) and of the output files.

Exit codes: 0 success, 2 configuration or schema problem (or stdout that
cannot be written), 3 unsafe drive schedule. Errors are reported as one JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from dataclasses import replace

# OpenBLAS starts its worker threads when numpy loads, and an idle worker
# spins; qbuffer's BLAS calls are 2 x 2 products and a small lstsq. A value
# the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .config import (
    PRESETS,
    load_config_file,
    plan_from_config,
    preset_listing,
    resolve_config,
)
from .engine import storage_period
from .errors import CalibrationError, ConfigError, QBufferError, ScheduleError
from .experiments import (
    apply_calibration,
    average_visibility_by_eta,
    calibrate,
    fit_decay,
    propagate,
    run_hwp_sweep,
    run_retrieval_sweep,
    simulate_checked,
    source_pulses,
    sweep_rows,
    write_peaks_csv,
    write_sweep_csv,
)


def _err(kind: str, exit_code: int, **detail) -> int:
    sys.stderr.write(json.dumps({"error": kind, **detail},
                                sort_keys=True) + "\n")
    return exit_code


def _resolve(args) -> dict:
    file_cfg = load_config_file(args.config) if args.config else {}
    seed = args.seed
    if seed is None and "seed" not in file_cfg:
        env = os.environ.get("QBUF_SEED")
        if env is not None:
            if not re.fullmatch(r"-?[0-9]+", env.strip()):
                raise ConfigError("seed", f"QBUF_SEED={env!r} is not an "
                                  "integer")
            seed = int(env)
    return resolve_config(file_cfg, overrides=args.set or (),
                          preset=args.preset, seed=seed)


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_plan(plan, on_clicks=None, *, checks: dict | None = None):
    """Run a plan's stages in order: propagate every setting, calibrate,
    sweep, analyse. Returns (summary, results): the ``summary.json``
    document and the retrieval sweep, the fringe sweep's VisibilityResults
    or the custom schedule's engine result.

    Every setting is propagated, and a ``checks`` dict receives its
    (schedule violations, error or None) under its label, ``eta=N`` or
    ``custom``, before the first error is raised; so a caller can list
    every setting's violations when this raises. Each setting has one
    engine run, which calibration and the sweep share. An analytic plan
    draws no sample; ``on_clicks`` is ``run_retrieval_sweep``'s.
    """
    exp, topology, runs, done = plan.experiment, plan.topology, {}, {}
    checks = {} if checks is None else checks
    if plan.schedule is None:
        settings = {f"eta={eta}": functools.partial(
            propagate, runs, topology, exp, eta, plan.limits)
            for eta in plan.propagated_etas}
    else:
        settings = {"custom": functools.partial(
            simulate_checked, topology, plan.schedule, source_pulses(exp),
            plan.limits, "custom schedule")}
    for label, run in settings.items():
        try:
            done[label] = run()
            checks[label] = (done[label][-1], None)
        except QBufferError as exc:
            checks[label] = (getattr(exc, "violations", []), exc)
    for _, error in checks.values():
        if error is not None:
            raise error

    summary = {"preset": exp.preset, "seed": exp.seed,
               "delta_t_s": storage_period(topology), "visibilities": None}
    if plan.schedule is not None:
        result, violations = done["custom"]
        summary.update(preset="custom-schedule",
                       n_retrieved=len(result.retrieved),
                       retrieved=[{"pulse_id": p.id, "time_s": p.t,
                                   "mu": p.mu, "cycles": p.cycles}
                                  for p in result.retrieved],
                       warnings=[v.message for v in violations])
        return summary, result
    summary.update(mode=exp.mode, fitted_loss_db_per_cycle=None,
                   fit_residual_db=None, eta_convention="eta = cycles + 1; "
                   "eta = 1 is direct reflection")
    if plan.kind == "retrieval-sweep":
        sweep = run_retrieval_sweep(exp, topology, plan.detector,
                                    plan.limits, on_clicks, runs=runs)
        col = ("sampled_counts_linear" if exp.mode == "monte-carlo"
               else "expected_counts_linear")
        fit = fit_decay([(r.eta, getattr(r, col)) for r in sweep.rows])
        summary.update(retrieval_span_s=sweep.span_s,
                       n_peaks=len(sweep.rows),
                       fitted_loss_db_per_cycle=fit.loss_db_per_cycle,
                       fit_residual_db=fit.residual_db,
                       configured_cycle_loss_db=topology.cycle_loss_db())
        return summary, sweep

    cal = None
    if plan.calibration.mode != "none":
        cal = calibrate(plan.calibration.targets, topology, exp,
                        plan.detector, mode=plan.calibration.mode,
                        limits=plan.limits, runs=runs)
        topology = apply_calibration(topology, cal)
    results = run_hwp_sweep(exp, topology, plan.detector, plan.limits,
                            runs=runs)
    summary.update(
        visibilities=[
            {"eta": r.eta, "basis": r.basis, "visibility": r.visibility,
             "visibility_per_port": list(r.visibility_per_port)}
            for r in results],
        average_visibility_by_eta={
            str(k): v for k, v in average_visibility_by_eta(results).items()},
        calibration=None if cal is None else {
            "mode": cal.mode,
            "prep_error_depol": cal.prep_error_depol,
            "depol_per_cycle": list(cal.depol_per_cycle),
            "targets": {str(k): v for k, v in cal.targets.items()},
            "residuals": {str(k): v for k, v in cal.residuals.items()},
        })
    return summary, results


def _failure(exc) -> int:
    """Report the error that ended ``run`` or ``validate``; its exit
    code."""
    if isinstance(exc, ScheduleError):
        return _err("schedule", 3, message=str(exc),
                    violations=[{"severity": v.severity, "code": v.code,
                                 "message": v.message}
                                for v in exc.violations])
    if isinstance(exc, CalibrationError):
        return _err("calibration", 2, message=str(exc))
    if isinstance(exc, MemoryError):
        # A trigger count or dark rate whose draws do not fit in memory.
        return _err("run", 2, message=f"workload too large: {exc}")
    if isinstance(exc, OSError):
        # --out or an output name is taken by a file or a directory, or
        # cannot be written.
        return _err("output", 2, message=str(exc))
    return _err("run", 2, message=str(exc))


#: The errors ``_failure`` reports.
_FAILURES = (QBufferError, MemoryError, OSError)


def cmd_run(args) -> int:
    try:
        cfg = _resolve(args)
        plan = plan_from_config(cfg)
    except ConfigError as exc:
        return _err("schema", 2, path=exc.path, message=exc.message)

    out_dir = args.out
    started = time.perf_counter()
    # A name is recorded before its file is written, so a failed run also
    # removes a file it was partway through. Click files are written as
    # their settings are sampled, and listed after the histogram.
    outputs: list[str] = []
    click_files: list[str] = []

    def emit(name, writer):
        outputs.append(name)
        writer(os.path.join(out_dir, name))

    def write_clicks(eta, clicks):
        name = f"clicks_eta{eta}.csv"
        click_files.append(name)
        clicks.write_csv(os.path.join(out_dir, name))

    ok = False
    try:
        os.makedirs(out_dir, exist_ok=True)
        summary, results = run_plan(
            plan, None if args.format == "json" else write_clicks)
        if args.format == "json":
            doc = {"summary": summary}
            if plan.kind == "retrieval-sweep":
                doc["peaks"] = [vars(r) for r in results.rows]
                h = results.histogram
                if h is not None:
                    doc["histogram"] = {**vars(h), "counts": h.counts.tolist()}
            elif plan.kind == "hwp-sweep":
                doc["sweep"] = sweep_rows(results)
            emit("results.json", lambda p: _write_json(p, doc))
        else:
            if plan.kind == "retrieval-sweep":
                emit("peaks.csv", lambda p: write_peaks_csv(results.rows, p))
                if results.histogram is not None:
                    emit("histogram.csv", results.histogram.write_csv)
                outputs += click_files
                for eta, sim in results.sim_results.items():
                    emit(f"event_log_eta{eta}.csv", sim.write_event_log_csv)
            elif plan.kind == "hwp-sweep":
                emit("sweep.csv", lambda p: write_sweep_csv(results, p))
            else:
                emit("event_log.csv", results.write_event_log_csv)
            emit("summary.json", lambda p: _write_json(p, summary))
        manifest = {
            "artifact_version": __version__,
            "schema_version": cfg["schema_version"],
            "preset": plan.experiment.preset,
            "seed": plan.experiment.seed,
            "outputs": list(outputs),
            "duration_s": time.perf_counter() - started,
            "config": plan.snapshot,
        }
        emit("manifest.json", lambda p: _write_json(p, manifest))
    except _FAILURES as exc:
        return _failure(exc)
    else:
        # A stdout that cannot take the report fails the run, too; main
        # reports it.
        print(f"wrote {len(outputs)} files to {out_dir}")
        sys.stdout.flush()
        ok = True
    finally:
        if not ok:
            # A failed run leaves none of the files it has written.
            for name in set(outputs + click_files):
                try:
                    os.remove(os.path.join(out_dir, name))
                except OSError:
                    pass
    return 0


def cmd_validate(args) -> int:
    try:
        plan = plan_from_config(_resolve(args))
    except ConfigError as exc:
        return _err("schema", 2, path=exc.path, message=exc.message)

    checks: dict = {}
    failure = None
    try:
        # Counts from the click model: no sample is drawn, no file written.
        run_plan(replace(plan, experiment=replace(plan.experiment,
                                                  mode="analytic")),
                 checks=checks)
    except _FAILURES as exc:
        failure = exc
    for label, (violations, error) in checks.items():
        for v in violations:
            print(f"{v.severity}: [{label}] {v.code}: {v.message}")
        if error and all(v.severity != "error" for v in violations):
            print(f"error: [{label}] {error}")
    # Only a preset setting stored for 0 cycles has no drives.
    if not (len(plan.schedule) if plan.schedule is not None
            else max(plan.propagated_etas) > 1):
        print("warning: no drive pulses; every pulse reflects directly")
    if failure is not None:
        # Flushed before the failure is reported, so that a stdout that
        # cannot take the report is the one error reported.
        sys.stdout.flush()
        return _failure(failure)
    print("schedule ok")
    return 0


def cmd_presets(args) -> int:
    listing = preset_listing()
    if args.format == "json":
        print(json.dumps([{"name": n, "description": d}
                          for n, d in listing], indent=2))
    else:
        for name, description in listing:
            print(f"{name:14s} {description}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose ``--help`` and ``--version`` fail on a
    stdout that cannot be written, as every other output does; argparse
    itself drops that error."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbuffer",
        description="Fiber-loop buffer simulator for polarization-encoded "
                    "weak coherent pulses")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="built-in experiment preset")
        p.add_argument("--seed", type=int,
                       help="random seed (QBUF_SEED is the fallback)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config field, e.g. "
                            "topology.storage_length_m=200 (repeatable)")

    run = sub.add_parser("run", help="execute an experiment")
    common(run)
    run.add_argument("--out", default="qbuffer-out",
                     help="output directory (default: qbuffer-out)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.set_defaults(func=cmd_run)

    val = sub.add_parser("validate", help="check a run without sampling "
                         "or writing: schedules, calibration, analysis")
    common(val)
    val.set_defaults(func=cmd_validate)

    pre = sub.add_parser("presets", help="list built-in presets")
    pre.add_argument("--format", choices=("text", "json"), default="text")
    pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    """Run one command; its exit code, also for ``--help``, ``--version``
    and a usage error. A stdout that cannot be written (a closed pipe, a
    full disk) is an ``output`` error, exit 2, unless the command has
    already failed and reported why."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, --version, a usage error
            code = exc.code
        else:
            code = args.func(args)
        if code == 0:
            sys.stdout.flush()
    except OSError as exc:
        return _err("output", 2, message=f"stdout: {exc}")
    return code


def script() -> None:
    """The ``qbuffer`` command: ``main``, then end the process at once.

    Every result file is closed before ``main`` returns, so only the
    standard streams are left to flush; skipping the interpreter's
    teardown of numpy's and qbuffer's modules saves about 20 ms of CPU per
    run. ``atexit`` handlers do not run.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass  # main has flushed and checked a passed command's stdout
    os._exit(code)


if __name__ == "__main__":
    script()
