"""Check that two source trees write byte-identical result files.

Run:  python benchmarks/compare_outputs.py OLD_SRC NEW_SRC
      python benchmarks/compare_outputs.py --write-golden

Both modes run the cases of :func:`cases` and reduce each run to one
:func:`outcome`: its exit code and the sha256 of its stdout and stderr
(each run's output directory written as ``OUT``), of every file it wrote,
and of its ``manifest.json`` without ``duration_s``, the one wall time it
records. The cases are:

* ``run`` of every preset at each seed, once with ``--format csv`` and
  once with ``--format json``, and ``validate`` of every preset;
* ``run`` and ``validate`` of a custom schedule on fig2-main at seed 1: a
  store and a retrieve drive plus one drive that overlaps no passage, so
  ``validate`` warns and the run's ``summary.json`` carries the warning;
* ``run`` of each workload in ``perfbench/run.py`` at seed 0, taken from
  its ``WORKLOADS``, and ``validate`` of its preset with its overrides;
* ``validate`` of two edge configs: ideal-system with ``eta_list=[1]``,
  which warns on stdout that no drive pulse is sent, and fig2-insets with
  ``n_triggers=3``, which passes because its all-zero sampled counts only
  ``run`` sees.

OLD_SRC and NEW_SRC are ``src`` directories (each holding the ``qbuffer``
package), for example a checkout of the parent commit and this one. The
cases use seeds 0, 1 and 2 and the workloads at full size; each run is a
fresh ``python -m qbuffer.cli`` process with PYTHONPATH set to one tree.
Every run must exit 0 on both trees with equal outcomes. The script prints
each run that failed, and each stream and file that differs or that only
one tree wrote, and exits 1 if there is any; otherwise it exits 0. It also
prints each tree's peak RSS (``ru_maxrss`` from ``os.wait4``) for the
workload runs; that is a report only and never changes the exit status.
Only the standard library is used.

``--write-golden`` instead rewrites ``tests/golden.json``, the outcomes
that ``tests/test_golden.py`` checks in tier-1, from this checkout's
``src``. It runs the cases at seed 0 and the workloads at
``GOLDEN_TRIGGERS`` triggers, in process, importing ``qbuffer`` and so
numpy, and records the numpy version and CPU features the digests were
made with. Regenerate it only for a declared RNG-stream or format change.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
FORMATS = ("csv", "json")
GOLDEN = ROOT / "tests" / "golden.json"

#: Trigger count of the perfbench workloads in the golden digests.
GOLDEN_TRIGGERS = 20_000

#: Outcome keys that are not result files.
NOT_RESULTS = {"exit", "stdout", "stderr", "manifest.json"}

#: ``validate`` runs of edge configs: a warning, and a pass that ``run``
#: of the same config would not give.
VALIDATE_ONLY = {
    "ideal-system-one-setting-validate": [
        "--preset", "ideal-system", "--set", "experiment.eta_list=[1]"],
    "fig2-insets-three-triggers-validate": [
        "--preset", "fig2-insets", "--set", "experiment.n_triggers=3"],
}

#: Store after one loop traversal, retrieve one storage period later, and
#: a third drive long after the pulse has left.
CUSTOM_SCHEDULE = [
    {"t_start_s": 4.8277e-6, "width_s": 180e-9, "voltage": 900.0},
    {"t_start_s": 10.7038e-6, "width_s": 180e-9, "voltage": 900.0},
    {"t_start_s": 0.5e-3, "width_s": 180e-9, "voltage": 900.0},
]


def load_workloads() -> dict:
    """``WORKLOADS`` of perfbench/run.py, which imports its sibling probe."""
    perfbench = ROOT / "perfbench"
    sys.path.insert(0, str(perfbench))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  perfbench / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


def cases(presets: list, workloads: dict, seeds: tuple,
          n_triggers: int | None = None) -> dict:
    """Label -> argv, without ``--out``, of each run. ``n_triggers``, if
    given, overrides the workloads' trigger count."""
    out = {}
    for preset in presets:
        for seed in seeds:
            for fmt in FORMATS:
                out[f"{preset}-seed{seed}-{fmt}"] = [
                    "run", "--preset", preset, "--seed", str(seed),
                    "--format", fmt]
        out[f"{preset}-validate"] = ["validate", "--preset", preset]
    custom = ["--preset", "fig2-main", "--seed", "1",
              "--set", "schedule=" + json.dumps(CUSTOM_SCHEDULE)]
    out["custom-schedule-run"] = ["run", *custom]
    out["custom-schedule-validate"] = ["validate", *custom]
    for name, workload in workloads.items():
        overrides = list(workload.overrides)
        if n_triggers is not None:
            overrides.append(f"experiment.n_triggers={n_triggers}")
        sets = [a for item in overrides for a in ("--set", item)]
        out[f"workload-{name}"] = ["run", "--preset", workload.preset,
                                   "--seed", "0", *sets]
        out[f"workload-{name}-validate"] = ["validate", "--preset",
                                            workload.preset, *sets]
    for label, argv in VALIDATE_ONLY.items():
        out[label] = ["validate", *argv]
    return out


def with_out(argv: list, out_dir: Path) -> list:
    return [*argv, "--out", str(out_dir)] if argv[0] == "run" else argv


def outcome(code: int, stdout: str, stderr: str, out_dir: Path) -> dict:
    """Exit code and sha256 digests of one run: of stdout and stderr with
    ``out_dir`` written as ``OUT``, of each file in ``out_dir``, and of
    ``manifest.json`` without ``duration_s``."""
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    out = {"exit": code}
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        out[stream] = sha(text.replace(str(out_dir), "OUT").encode())
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("duration_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        out[path.name] = sha(data)
    return out


def differences(label: str, old: dict, new: dict) -> list:
    """Problems of one case from its outcomes on the two trees: a run that
    failed, and each stream or file that differs or only one tree wrote."""
    if (old["exit"], new["exit"]) != (0, 0):
        return [f"{label}: exit codes {old['exit']} (old) and "
                f"{new['exit']} (new)"]
    problems = []
    for key in sorted((old.keys() | new.keys()) - {"exit"}):
        if old.get(key) == new.get(key):
            continue
        if key in ("stdout", "stderr"):
            problems.append(f"{label}: {key} differs")
        elif key not in new or key not in old:
            side = "old" if key in old else "new"
            problems.append(f"{label}/{key}: only in the {side} tree")
        elif key == "manifest.json":
            problems.append(f"{label}/manifest.json: differs apart from "
                            "duration_s")
        else:
            problems.append(f"{label}/{key}: differs")
    return problems


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QBUF_")}
    env["PYTHONPATH"] = str(src)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def qbuffer(src: Path, argv: list) -> tuple:
    """(exit code, stdout, stderr, peak RSS in MB) of one CLI run in a
    child process."""
    cmd = [sys.executable, "-m", "qbuffer.cli", *argv]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen(cmd, env=child_env(src),
                                 stdin=subprocess.DEVNULL, stdout=out,
                                 stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        out.seek(0)
        err.seek(0)
        return (os.waitstatus_to_exitcode(status),
                out.read().decode(errors="replace"),
                err.read().decode(errors="replace"),
                usage.ru_maxrss * 1024 / 1e6)


def preset_names(src: Path) -> list:
    code, stdout, stderr, _ = qbuffer(src, ["presets", "--format", "json"])
    if code != 0:
        raise SystemExit(f"{src}: `qbuffer presets` failed:\n{stderr}")
    return [entry["name"] for entry in json.loads(stdout)]


def golden_environment() -> dict:
    """The numpy version and the CPU features its SIMD loops may use: a
    vectorized exp or log can differ in the last bit between them."""
    import numpy
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    targets = [*umath.__cpu_baseline__, *umath.__cpu_dispatch__]
    return {"numpy": numpy.__version__,
            "cpu_features": [f for f in targets
                             if umath.__cpu_features__.get(f)]}


def digests(argv: list) -> dict:
    """The :func:`outcome` of one in-process CLI run."""
    from qbuffer import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory(prefix="qbuffer-golden-") as tmp:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(with_out(argv, tmp))
        return outcome(code, stdout.getvalue(), stderr.getvalue(), Path(tmp))


def write_golden() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qbuffer.config import PRESETS

    runs = cases(sorted(PRESETS), load_workloads(), (0,), GOLDEN_TRIGGERS)
    doc = {"environment": golden_environment(),
           "cases": {label: {"argv": argv, "digests": digests(argv)}
                     for label, argv in runs.items()}}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}")
    return 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--write-golden"]:
        return write_golden()
    if len(args) != 2:
        print("usage: python benchmarks/compare_outputs.py OLD_SRC NEW_SRC\n"
              "       python benchmarks/compare_outputs.py --write-golden",
              file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    for tree in trees:
        if not (tree / "qbuffer").is_dir():
            print(f"{tree} holds no qbuffer package", file=sys.stderr)
            return 2
    presets = preset_names(trees[0])
    if preset_names(trees[1]) != presets:
        print("the two trees list different presets", file=sys.stderr)
        return 1

    workloads = load_workloads()
    rss_labels = {f"workload-{name}" for name in workloads}
    problems: list = []
    rss: list = []
    n_files = 0
    with tempfile.TemporaryDirectory(prefix="qbuffer-compare-") as tmp:
        for label, argv in cases(presets, workloads, SEEDS).items():
            outcomes, peaks = [], []
            for tree, side in zip(trees, ("old", "new")):
                out = Path(tmp) / side / label
                out.mkdir(parents=True)
                code, stdout, stderr, peak_mb = qbuffer(
                    tree, with_out(argv, out))
                if code != 0:
                    sys.stderr.write(f"{label} ({tree}):\n{stderr}")
                outcomes.append(outcome(code, stdout, stderr, out))
                peaks.append(peak_mb)
            found = differences(label, *outcomes)
            n_files += len((outcomes[0].keys() & outcomes[1].keys())
                           - NOT_RESULTS)
            print(f"{label}: {'ok' if not found else 'DIFFERS'}",
                  flush=True)
            problems += found
            if label in rss_labels:
                rss.append((label, *peaks))
    for label, old_mb, new_mb in rss:
        print(f"{label}: peak RSS {old_mb:.1f} MB (old), {new_mb:.1f} MB "
              "(new)")
    for line in problems:
        print(line)
    print(f"{n_files} result files compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
