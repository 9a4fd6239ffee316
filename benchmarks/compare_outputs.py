"""Check that two source trees write byte-identical result files.

Run:  python benchmarks/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories (each holding the ``qbuffer``
package), for example a checkout of the parent commit and this one. Each
run is a fresh ``python -m qbuffer.cli`` process with PYTHONPATH set to
one tree. The runs are:

* ``run`` of every preset at seeds 0, 1 and 2, once with ``--format csv``
  and once with ``--format json``;
* ``validate`` of every preset;
* ``run`` and ``validate`` of a custom schedule: a store and a retrieve
  drive plus one drive that overlaps no passage, so the run's
  ``summary.json`` carries a warning;
* the argv of each workload in ``perfbench/run.py`` (seed 0), taken from
  its ``WORKLOADS``, and ``validate`` of its preset with its overrides;
* ``validate`` of two configs that pass with more than "schedule ok" on
  stdout: ideal-system with ``eta_list=[1]``, which warns that no drive
  pulse is sent, and fig2-insets with ``n_triggers=3``, whose all-zero
  sampled counts only ``run`` sees.

Every run must exit 0 on both trees, with the same stdout and stderr once
each run's output directory is written as ``OUT``. Every output file
except ``manifest.json`` is compared byte for byte. The manifests are
compared as parsed JSON without ``duration_s``, the one wall time they
record, so a changed config snapshot or output list is seen too. The
script prints each run, stream and file that differs, a file that only
one tree wrote, or a run that failed, and exits 1 if there is any;
otherwise it exits 0. It also prints each tree's peak RSS (``ru_maxrss`` from
``os.wait4``) for the workload runs; that is a report only and never
changes the exit status. Only the standard library is used.
"""

import filecmp
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
FORMATS = ("csv", "json")

#: ``validate`` runs that exit 0 but print more than "schedule ok".
VALIDATE_ONLY = {
    "ideal-system-one-setting-validate": [
        "--preset", "ideal-system", "--set", "experiment.eta_list=[1]"],
    "fig2-insets-three-triggers-validate": [
        "--preset", "fig2-insets", "--set", "experiment.n_triggers=3"],
}

#: Store after one loop traversal, retrieve one storage period later, and
#: a third drive long after the pulse has left.
CUSTOM_SCHEDULE = {
    "preset": "fig2-main",
    "seed": 1,
    "schedule": [
        {"t_start_s": 4.8277e-6, "width_s": 180e-9, "voltage": 900.0},
        {"t_start_s": 10.7038e-6, "width_s": 180e-9, "voltage": 900.0},
        {"t_start_s": 0.5e-3, "width_s": 180e-9, "voltage": 900.0},
    ],
}


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


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QBUF_")}
    env["PYTHONPATH"] = str(src)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def qbuffer(src: Path, argv: list) -> tuple:
    """(completed process, its peak RSS in MB) of one CLI run."""
    cmd = [sys.executable, "-m", "qbuffer.cli", *argv]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen(cmd, env=child_env(src),
                                 stdin=subprocess.DEVNULL, stdout=out,
                                 stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        proc = subprocess.CompletedProcess(
            cmd, child.returncode, out.read().decode(errors="replace"),
            err.read().decode(errors="replace"))
    return proc, usage.ru_maxrss * 1024 / 1e6


def preset_names(src: Path) -> list:
    proc, _ = qbuffer(src, ["presets", "--format", "json"])
    if proc.returncode != 0:
        raise SystemExit(f"{src}: `qbuffer presets` failed:\n{proc.stderr}")
    return [entry["name"] for entry in json.loads(proc.stdout)]


def cases(presets: list, workloads: dict, custom: Path) -> list:
    """(label, argv builder taking the output directory, whether to report
    peak RSS). ``custom`` is the config file of the custom schedule."""
    out = []
    for preset in presets:
        for seed in SEEDS:
            for fmt in FORMATS:
                out.append((f"{preset}-seed{seed}-{fmt}",
                            lambda d, p=preset, s=seed, f=fmt: [
                                "run", "--preset", p, "--seed", str(s),
                                "--format", f, "--out", str(d)], False))
        out.append((f"{preset}-validate",
                    lambda d, p=preset: ["validate", "--preset", p], False))
    out.append(("custom-schedule-run", lambda d: [
        "run", "--config", str(custom), "--out", str(d)], False))
    out.append(("custom-schedule-validate",
                lambda d: ["validate", "--config", str(custom)], False))
    for name, workload in workloads.items():
        out.append((f"workload-{name}",
                    lambda d, w=workload: w.argv(0, d), True))
        out.append((f"workload-{name}-validate", lambda d, w=workload: [
            "validate", "--preset", w.preset,
            *(a for item in w.overrides for a in ("--set", item))], False))
    for label, argv in VALIDATE_ONLY.items():
        out.append((label, lambda d, a=argv: ["validate", *a], False))
    return out


def result_files(out: Path) -> set:
    if not out.is_dir():
        return set()
    return {p.name for p in out.iterdir()
            if p.is_file() and p.name != "manifest.json"}


def manifest(out: Path):
    """The run's manifest without its wall time; None if it has none."""
    path = out / "manifest.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    doc.pop("duration_s", None)
    return doc


def compare(label: str, old: Path, new: Path, procs: list) -> list:
    """Problems of one run: failed runs, differing stdout or stderr,
    missing or differing files, and manifests that differ in more than
    their wall time."""
    codes = [proc.returncode for proc in procs]
    if codes != [0, 0]:
        return [f"{label}: exit codes {codes[0]} (old) and {codes[1]} (new)"]
    problems = [f"{label}: {stream} differs"
                for stream in ("stdout", "stderr")
                if len({getattr(proc, stream).replace(str(out), "OUT")
                        for proc, out in zip(procs, (old, new))}) > 1]
    old_files, new_files = result_files(old), result_files(new)
    problems += [f"{label}/{name}: only in the {side} tree"
                 for side, names in (("old", old_files - new_files),
                                     ("new", new_files - old_files))
                 for name in sorted(names)]
    for name in sorted(old_files & new_files):
        if not filecmp.cmp(old / name, new / name, shallow=False):
            problems.append(f"{label}/{name}: differs")
    if manifest(old) != manifest(new):
        problems.append(f"{label}/manifest.json: differs apart from "
                        "duration_s")
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python benchmarks/compare_outputs.py OLD_SRC NEW_SRC",
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

    problems: list = []
    rss: list = []
    n_files = 0
    with tempfile.TemporaryDirectory(prefix="qbuffer-compare-") as tmp:
        custom = Path(tmp) / "custom-schedule.json"
        custom.write_text(json.dumps(CUSTOM_SCHEDULE))
        for label, build, report_rss in cases(presets, load_workloads(),
                                              custom):
            dirs = [Path(tmp) / side / label for side in ("old", "new")]
            procs, peaks = [], []
            for tree, out in zip(trees, dirs):
                proc, peak_mb = qbuffer(tree, build(out))
                procs.append(proc)
                peaks.append(peak_mb)
                if proc.returncode != 0:
                    sys.stderr.write(f"{label} ({tree}):\n{proc.stderr}")
            found = compare(label, *dirs, procs)
            n_files += len(result_files(dirs[0]) & result_files(dirs[1]))
            print(f"{label}: {'ok' if not found else 'DIFFERS'}",
                  flush=True)
            problems += found
            if report_rss:
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
