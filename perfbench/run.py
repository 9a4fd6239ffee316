"""End-to-end benchmark of the qbuffer CLI, with a traced per-layer split.

Run from the root of a checkout (nothing needs building; the program runs
from ``src`` with ``PYTHONPATH``):

    python3 perfbench/run.py                       # all workloads, seed 0
    python3 perfbench/run.py --workload retrieval-1m --seed 3 --seconds 10
    python3 perfbench/run.py --trace 1             # per-layer table

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Each measured run is a fresh ``python -m qbuffer.cli run`` process, launched
the way a user runs it, one at a time (closed loop, one client). Runs repeat
until ``--seconds`` is used up, with at least three per workload. Every run's
outputs are checked against the paper's acceptance bounds, from the output
files alone, and the sha256 of its result files is recorded.

``--trace 0`` reports the end-to-end metrics: the mean time of a run, the
mean set-up time (import + config resolve, timed in a fresh interpreter
before each run), the median peak RSS of the run's own process, the median
bytes it wrote and the share of steps (a calibration probe, a set-up probe
and a run) that passed. Both times are CPU time (user + system) of the
process that did the work, scaled to a machine of nominal speed: times
``NOMINAL_CALIBRATE_S`` over the mean CPU time of the calibration job
(``probe.py calibrate``, which uses none of the program) run before each
step. On a shared virtual machine the host slows the CPU itself, by up to
half and in spells from under a second to minutes, and that slows the
calibration job and the program alike. Within one measuring window the
times then fall into clusters, between which a median jumps; the means of
the runs and of the calibration jobs both follow the window's average
speed, so their ratio holds still. The raw CPU and wall times are printed
and recorded beside them.

``--trace 1`` alternates untraced runs with runs of ``probe.py trace``,
which hooks each layer's public functions in-process, and reports the
per-layer split (raw in-process times), its counts (which must repeat
exactly) and the tracing overhead. Metric names and units are those listed
in ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A readable report,
the environment and the hashes are printed before it, and a record of each
result set is written under ``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = probe.__file__
#: Names and units of the metrics each mode reports.
SPEC_FILE = ROOT / "BENCHMARK.json"

MIN_RUNS = 3
#: CPU seconds of ``probe.py calibrate`` on a quiet vCPU of a 2.0 GHz Xeon,
#: the machine the bounds in BENCHMARK.json were set on.
NOMINAL_CALIBRATE_S = 0.16
#: End-to-end metrics reported as the mean of their samples, not the median
#: (see the module docstring).
MEAN_METRICS = ("run_s", "setup_s")
MIN_TRACED = 2
CHILD_TIMEOUT_S = 120.0


# -- correctness checks, from the output files only --------------------------

#: Triggers of the retrieval workload: the count C5 needs for its 0.1 dB fit.
N_RETRIEVAL = 1_000_000


def _summary(out: Path) -> dict:
    with open(out / "summary.json") as fh:
        return json.load(fh)


def check_retrieval(out: Path) -> list:
    """C1 timing, C4 5-sigma counts and C5 loss fit of the Fig. 2 sweep."""
    problems = []
    with open(out / "peaks.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 8:
        problems.append(f"{len(rows)} rows in peaks.csv, expected 8")
    n = N_RETRIEVAL
    for r in rows:
        expected = float(r["expected_counts"])
        sampled = float(r["sampled_counts"])
        p = expected / n
        sigma = math.sqrt(n * p * (1.0 - p))
        if abs(sampled - expected) > 5.0 * sigma:
            problems.append(f"C4 eta={r['eta']}: {sampled} vs {expected} "
                            f"is beyond 5 sigma ({sigma:.1f})")
    s = _summary(out)
    fit_err = abs(s["fitted_loss_db_per_cycle"]
                  - s["configured_cycle_loss_db"])
    if not fit_err <= 0.1:
        problems.append(f"C5 fitted loss is {fit_err:.4f} dB/cycle off")
    if not abs(s["delta_t_s"] - 5.876e-6) <= 0.005 * 5.876e-6:
        problems.append(f"C1 delta_t {s['delta_t_s']} is not 5.876 us")
    if not abs(s["retrieval_span_s"] - 47e-6) <= 0.01 * 47e-6:
        problems.append(f"C1 span {s['retrieval_span_s']} is not 47 us")
    return problems


def check_fringe(out: Path) -> list:
    """C2: calibrated Monte Carlo visibilities within 0.02 of the paper."""
    got = _summary(out)["average_visibility_by_eta"]
    return [f"C2 eta={eta}: visibility {got.get(eta)} is not {target} "
            "+- 0.02"
            for eta, target in (("1", 0.955), ("3", 0.953), ("5", 0.835))
            if not abs(got.get(eta, math.nan) - target) <= 0.02]


def check_analytic(out: Path) -> list:
    """An ideal buffer keeps all 24 x 2 analytic visibilities at 1."""
    vis = _summary(out)["visibilities"]
    problems = [] if len(vis) == 48 else [
        f"{len(vis)} visibility rows, expected 48"]
    low = [v for v in vis if not v["visibility"] >= 1.0 - 1e-9]
    if low:
        problems.append(f"{len(low)} visibilities below 1 - 1e-9, "
                        f"e.g. {low[0]}")
    return problems


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: tuple
    check: object
    #: Layers that must record calls on this workload (hook-coverage check).
    exercised: tuple

    def argv(self, seed: int, out: Path) -> list:
        argv = ["run", "--preset", self.preset, "--seed", str(seed),
                "--out", str(out)]
        for item in self.overrides:
            argv += ["--set", item]
        return argv


# Why each workload was chosen is recorded in BENCHMARK.json. In short:
# retrieval-1m is few large samplings plus 23 MB of click CSVs;
# fringe-insets is many small samplings, calibrate and validation;
# analytic-deep is engine propagation alone (no sampling, no click files).
WORKLOADS = {
    "retrieval-1m": Workload(
        "fig2-main", (f"experiment.n_triggers={N_RETRIEVAL}",),
        check_retrieval,
        ("config.resolve", "experiments.sweep", "detection.sample",
         "detection.count_triggered", "detection.histogram",
         "kernels.dead_time", "kernels.bin_counts", "cli.write")),
    "fringe-insets": Workload(
        "fig2-insets", (), check_fringe,
        ("config.resolve", "engine.validate", "experiments.calibrate",
         "experiments.sweep", "detection.sample", "kernels.dead_time")),
    "analytic-deep": Workload(
        "ideal-system",
        ("experiment.eta_list=" + json.dumps(list(range(1, 25))),
         "experiment.hwp_angles="
         + json.dumps([math.pi / 2.0 * i / 63 for i in range(64)])),
        check_analytic,
        ("config.resolve", "engine.simulate", "engine.validate")),
}


# -- running children ---------------------------------------------------------


def child_env() -> dict:
    """The caller's environment without QBUF_* settings, plus PYTHONPATH.

    OpenBLAS is held to one thread. The program's work is single-threaded,
    but an idle OpenBLAS worker spins at import and after each BLAS call:
    about 0.1 s of CPU time that is none of the program's work and that
    varies with the machine's load.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("QBUF_")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def launch(cmd: list, log_dir: Path) -> Proc:
    """Run one child to completion; its wall time, its own CPU time and its
    own peak RSS."""
    out_log, err_log = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_log, "wb") as so, open(err_log, "wb") as se:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=so,
                                stderr=se, cwd=ROOT, env=child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss * 1024 / 1e6, proc.returncode,
                out_log.read_text(errors="replace"),
                err_log.read_text(errors="replace"))


def json_errors(stderr: str) -> list:
    """Lines of stderr that are the CLI's JSON error reports."""
    found = []
    for line in stderr.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and "error" in doc:
            found.append(line)
    return found


def result_files(out: Path) -> list:
    return sorted(p for p in out.iterdir()
                  if p.is_file() and p.name != "manifest.json")


def digest(out: Path) -> str:
    """sha256 over the result files (name and content; manifest excluded)."""
    h = hashlib.sha256()
    for p in result_files(out):
        h.update(p.name.encode() + b"\0"
                 + hashlib.sha256(p.read_bytes()).hexdigest().encode() + b"\n")
    return h.hexdigest()


def dir_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


@dataclass
class Run:
    proc: Proc
    problems: list
    sha256: str | None
    output_bytes: int
    result_bytes: int
    n_results: int
    kernel_backend: str | None


def run_cli(name: str, seed: int, cmd_prefix: list, tag: str) -> Run:
    """One ``qbuffer run`` of a workload through ``cmd_prefix``; checked."""
    wl = WORKLOADS[name]
    base = WORK / name / tag
    out = base / "out"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    proc = launch(cmd_prefix + wl.argv(seed, out), base)
    problems = []
    if proc.exit_code != 0:
        problems.append(f"exit code {proc.exit_code}: {proc.stderr[-500:]}")
    problems += [f"error on stderr: {e}" for e in json_errors(proc.stderr)]
    if problems or not out.is_dir():
        return Run(proc, problems or ["no output directory"], None, 0, 0, 0,
                   None)
    try:
        problems += wl.check(out)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"unreadable outputs: {exc!r}")
    backend = None
    try:
        with open(out / "manifest.json") as fh:
            backend = json.load(fh).get("kernel_backend")
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable manifest: {exc!r}")
    results = result_files(out)
    return Run(proc, problems, digest(out), dir_bytes(out),
               sum(p.stat().st_size for p in results), len(results), backend)


def run_probe(name: str, args: list) -> tuple:
    """(the numbers it printed, problem) of one ``probe.py`` child."""
    base = WORK / name / "probe"
    base.mkdir(parents=True, exist_ok=True)
    proc = launch([sys.executable, str(PROBE), *args], base)
    if proc.exit_code != 0:
        return None, f"{args[0]} probe failed: {proc.stderr[-500:]}"
    return [float(x) for x in proc.stdout.strip().splitlines()[-1].split()], \
        None


def setup_probe(name: str, seed: int) -> tuple:
    """([CPU seconds, wall seconds], problem) of one fresh-interpreter
    set-up."""
    wl = WORKLOADS[name]
    spec = {"preset": wl.preset, "overrides": list(wl.overrides),
            "seed": seed}
    return run_probe(name, ["setup", json.dumps(spec)])


# -- statistics and reporting -------------------------------------------------


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def print_row(name: str, unit: str, values: list) -> None:
    q1, med, q3 = quartiles(values)
    print(f"  {name:30s} {unit:6s} median {med:<12.6g} q1 {q1:<12.6g} "
          f"q3 {q3:<12.6g} n={len(values)}")


def environment() -> dict:
    env = {"python": platform.python_version(),
           "numpy": importlib.metadata.version("numpy"),
           "nproc": os.cpu_count(), "load1_at_start": os.getloadavg()[0],
           "git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(
                ["git", "--no-optional-locks", "-C", str(ROOT), *args],
                capture_output=True, text=True, timeout=30).stdout.strip()
        env["git_sha"] = git("rev-parse", "HEAD") or None
        env["git_dirty"] = bool(git("status", "--porcelain",
                                    "--untracked-files=no"))
    return env


# -- the two modes -------------------------------------------------------------


def repeat(step, seconds: float, minimum: int) -> None:
    """Call ``step`` until one more call would overrun ``seconds``, at least
    ``minimum`` times."""
    started = time.perf_counter()
    done, last = 0, 0.0
    while done < minimum or time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        step()
        done, last = done + 1, time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced runs, each after a calibration and a set-up probe: the
    end-to-end metrics.

    Interleaving the probes with the runs spreads all three over the same
    stretch of machine time, so a slow spell affects them alike. A step is
    the two probes and the run, and one attempt; it fails if any part does.
    """
    problems, calibrations, setups, runs = [], [], [], []
    failed = 0
    cmd = [sys.executable, "-m", "qbuffer.cli"]

    def step():
        nonlocal failed
        calibration, calibrate_problem = run_probe(name, ["calibrate"])
        took, setup_problem = setup_probe(name, seed)
        runs.append(run_cli(name, seed, cmd, "run"))
        found = [p for p in (calibrate_problem, setup_problem) if p]
        if not calibrate_problem:
            calibrations.append(calibration[0])
        if not setup_problem:
            setups.append(took)
        found += runs[-1].problems
        problems.extend(found)
        failed += bool(found)

    repeat(step, seconds, MIN_RUNS)
    if len({r.sha256 for r in runs if r.sha256}) > 1:
        problems.append("result files differ between runs of one seed")

    ok = [r for r in runs if not r.problems]
    attempted = len(runs)
    scale = NOMINAL_CALIBRATE_S / statistics.fmean(calibrations) \
        if calibrations else 0.0
    samples = {
        "run_s": [r.proc.cpu_s * scale for r in ok],
        "setup_s": [cpu * scale for cpu, _ in setups],
        "peak_rss_mb": [r.proc.peak_rss_mb for r in ok],
        "output_mb": [r.output_bytes / 1e6 for r in ok],
        "ok_ratio": [1.0 - failed / attempted],
        # Reported, not gated: the raw times and the calibration job's.
        "run_cpu_s": [r.proc.cpu_s for r in ok],
        "run_wall_s": [r.proc.wall_s for r in ok],
        "setup_cpu_s": [cpu for cpu, _ in setups],
        "setup_wall_s": [wall for _, wall in setups],
        "calibrate_cpu_s": calibrations,
    }
    return {"runs": runs, "samples": samples, "problems": problems,
            "attempted": attempted, "failed": failed}


LAYERS = tuple(probe.HOOKS)


def split_layers(doc: dict, run: Run) -> tuple:
    """(per-layer values, exact counts, problems) of one traced run."""
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    top_time = 0.0
    for _layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            top_time += end - start
    calls = dict.fromkeys(LAYERS, 0)
    total = dict.fromkeys(LAYERS, 0.0)
    self_ = dict.fromkeys(LAYERS, 0.0)
    problems = []
    for i, (layer, start, end, _parent) in enumerate(spans):
        own = (end - start) - child_time[i]
        if own < -1e-9:
            problems.append(f"negative self time {own} in {layer}")
        calls[layer] += 1
        total[layer] += end - start
        self_[layer] += own
    c = doc["counts"]
    events = c.get("engine.simulate.events", 0)
    dead_in = c.get("kernels.dead_time.in", 0)
    values = {
        "config.resolve_s": total["config.resolve"],
        "engine.simulate_s": total["engine.simulate"],
        "engine.simulate_calls": calls["engine.simulate"],
        "engine.events": events,
        "engine.s_per_event": total["engine.simulate"] / events
        if events else 0.0,
        "engine.validate_s": total["engine.validate"],
        "engine.validate_calls": calls["engine.validate"],
        "experiments.calibrate_s": total["experiments.calibrate"],
        "experiments.calibrate_calls": calls["experiments.calibrate"],
        "experiments.sweep_self_s": self_["experiments.sweep"],
        "detection.sample_self_s": self_["detection.sample"],
        "detection.sample_calls": calls["detection.sample"],
        "detection.pulses_in": c.get("detection.sample.pulses_in", 0),
        "detection.clicks_out": c.get("detection.sample.clicks_out", 0),
        "detection.count_triggered_s": total["detection.count_triggered"],
        "detection.histogram_s": total["detection.histogram"],
        "kernels.dead_time_s": total["kernels.dead_time"],
        "kernels.dead_time_in": dead_in,
        "kernels.dead_time_kept_ratio":
            c.get("kernels.dead_time.kept", 0) / dead_in if dead_in else 0.0,
        "kernels.bin_counts_s": total["kernels.bin_counts"],
        "cli.write_s": total["cli.write"],
        "cli.bytes_written": run.result_bytes,
        "cli.files_written": run.n_results,
        "cli.self_s": run.proc.wall_s - top_time,
    }
    if values["cli.self_s"] < 0:
        problems.append(f"negative cli self time {values['cli.self_s']}")
    counts = {f"{layer}.calls": calls[layer] for layer in LAYERS}
    counts.update(c)
    counts.update({"cli.bytes_written": run.result_bytes,
                   "cli.files_written": run.n_results})
    problems += [f"counter failed: {e}" for e in doc["count_errors"]]
    return values, counts, problems


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    """Alternating untraced and traced runs: the per-layer split. A step is
    one pair, and one attempt; it fails if either run or its split does."""
    plain_cmd = [sys.executable, "-m", "qbuffer.cli"]
    spans_path = WORK / name / "spans.json"
    trace_cmd = [sys.executable, str(PROBE), "trace", str(spans_path), "--"]
    problems, plain, traced, docs, splits, counts = [], [], [], [], [], []
    failed = 0

    def step():
        nonlocal failed
        spans_path.unlink(missing_ok=True)
        # Alternate which of the pair goes first, so order effects cancel.
        first_plain = len(plain) % 2 == 0
        if first_plain:
            plain.append(run_cli(name, seed, plain_cmd, "run"))
        traced.append(run_cli(name, seed, trace_cmd, "traced"))
        if not first_plain:
            plain.append(run_cli(name, seed, plain_cmd, "run"))
        found = plain[-1].problems + traced[-1].problems
        if not found:
            with open(spans_path) as fh:
                docs.append(json.load(fh))
            values, exact, found = split_layers(docs[-1], traced[-1])
            if not found:
                splits.append(values)
                counts.append(exact)
        problems.extend(found)
        failed += bool(found)

    repeat(step, seconds, MIN_TRACED)
    runs = plain + traced
    if len({r.sha256 for r in runs if r.sha256}) > 1:
        problems.append("traced and untraced runs wrote different results")
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced runs of "
                        "one seed")
    absent = docs[-1]["absent"] if docs else []
    absent_layers = [layer for layer, (targets, _) in probe.HOOKS.items()
                     if all(t in absent for t in targets)]
    for layer in WORKLOADS[name].exercised if counts else ():
        if layer not in absent_layers and counts[-1][f"{layer}.calls"] == 0:
            problems.append(f"layer {layer} is marked exercised on {name} "
                            "but recorded no calls")

    samples = {k: [v[k] for v in splits] for k in splits[0]} if splits \
        else {}
    # Each traced run is next to its untraced twin, so pair them up.
    samples["trace.overhead_s"] = [
        t.proc.cpu_s - p.proc.cpu_s
        for p, t in zip(plain, traced) if not (p.problems or t.problems)]
    return {"runs": runs, "samples": samples, "problems": problems,
            "attempted": len(plain), "failed": failed,
            "absent_hooks": absent, "absent_layers": absent_layers}


def report(name: str, seed: int, trace: int, res: dict, env: dict,
           spec: list) -> dict:
    """Print one workload's table; write its record; return the metrics
    that ``spec`` names."""
    print(f"workload {name} seed {seed} trace {trace}: "
          f"{res['attempted']} attempted, {res['failed']} failed")
    metrics = {}
    for entry in spec:
        metric, unit = entry["name"], entry["unit"]
        values = res["samples"].get(metric)
        if values is None and not res["problems"]:
            res["problems"].append(f"{metric} is named in {SPEC_FILE.name} "
                                   "but not measured")
        values = values or [0.0]
        print_row(metric, unit, values)
        if metric in MEAN_METRICS:
            value = statistics.fmean(values)
            print(f"  {'':30s} {'':6s} mean   {value:<12.6g}")
        elif len(set(values)) == 1:
            # Counts repeat exactly; keep them whole numbers.
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
    named = {entry["name"] for entry in spec}
    for metric, values in res["samples"].items():
        if metric not in named and values:
            print_row(metric, "s", values)
    for layer in res.get("absent_layers", ()):
        print(f"  absent layer {layer}: its hooked names no longer exist")
    for hook in res.get("absent_hooks", ()):
        print(f"  absent hook {hook}")
    backends = sorted({r.kernel_backend for r in res["runs"]
                       if r.kernel_backend})
    print(f"  kernel backend (manifest): {', '.join(backends) or 'not recorded'}")
    status = "ok" if not res["problems"] else "FAILED"
    print(f"check {name}: {status}")
    for problem in dict.fromkeys(res["problems"]):
        print(f"  {problem}")
    shas = sorted({r.sha256 for r in res["runs"] if r.sha256})
    print(f"sha256 {name} seed {seed}: {' '.join(shas) or 'none'}")

    record_dir = WORK / "results"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name, "seed": seed, "trace": trace, "environment": env,
        "argv": WORKLOADS[name].argv(seed, Path("<out>")),
        "samples": res["samples"], "metrics": metrics,
        "problems": res["problems"],
        "sha256": shas,
        "kernel_backend": backends,
        "absent_hooks": res.get("absent_hooks", []),
    }
    with open(record_dir / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return metrics


def main(argv=None) -> int:
    with open(SPEC_FILE) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="measuring time per workload (default: "
                        "%(default)s, run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "qbuffer" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no qbuffer sources under {SRC}; run "
                         "it from the root of a qbuffer checkout\n")
        return 2
    spec = bench["per_layer" if args.trace else "end_to_end"]

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, metrics = [], {}
    for name in names:
        measure_fn = measure_traced if args.trace else measure
        res = measure_fn(name, args.seed, args.seconds)
        results.append(res)
        got = report(name, args.seed, args.trace, res, env, spec)
        if len(names) == 1:
            metrics = got
        else:
            metrics.update({f"{name}.{k}": v for k, v in got.items()})

    correct = not any(r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
