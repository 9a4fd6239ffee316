import filecmp
import json
import math
import os
import subprocess
import sys
import warnings

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qbuffer import cli, detection, engine, experiments, kernels
from qbuffer.cli import main
from qbuffer.components import BufferTopology, fiber_delay
from qbuffer.config import (
    PRESETS,
    load_config_file,
    parse_override,
    plan_from_config,
    resolve_config,
)
from qbuffer.detection import DetectorModel
from qbuffer.engine import SimLimits
from qbuffer.errors import ConfigError
from qbuffer.experiments import Calibration, ExperimentConfig


def run_cli(*argv):
    return main(list(argv))


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def small_run(out_dir, *extra):
    return run_cli("run", "--preset", "fig2-main", "--seed", "7",
                   "--set", "experiment.n_triggers=2000",
                   "--out", str(out_dir), *extra)


def one_json_error(capsys):
    """The single JSON line a failed run writes to stderr."""
    (line,) = capsys.readouterr().err.splitlines()
    return json.loads(line)


def child(argv, cwd, env_changes=None, stdout=subprocess.PIPE):
    """Run ``python *argv`` in a fresh interpreter with ``src`` on the path;
    ``env_changes`` maps a variable to its value, or to None to unset it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QBUF_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    for key, value in (env_changes or {}).items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120)


def closed_pipe_child(argv, cwd, unbuffered):
    """Run ``python -m qbuffer.cli *argv`` with stdout on a pipe whose read
    end is closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return child(["-m", "qbuffer.cli", *argv], cwd,
                     {"PYTHONUNBUFFERED": "1" if unbuffered else None},
                     stdout=write_end)
    finally:
        os.close(write_end)


def result_bytes(out_dir):
    """Every file of a run directory; the manifest without ``duration_s``."""
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    assert manifest.pop("duration_s") >= 0
    return files, manifest


#: A config document with one rejected value, keyed by the path reported.
REJECTED_DOCS = {
    "topology.storage_length_m":
        '{"topology": {"storage_length_m": "very long"}}',
    "topology.loop_length_m": '{"topology": {"loop_length_m": 1e400}}',
    "topology.v_pi": '{"topology": {"v_pi": NaN}}',
    "topology.group_index": '{"topology": {"group_index": Infinity}}',
    "limits.max_cycles": '{"limits": {"max_cycles": 2.5}}',
    "limits.mu_floor": '{"limits": {"mu_floor": NaN}}',
    "schedule[0].t_start_s": '{"schedule": [{"t_start_s": NaN}]}',
    "seed": '{"seed": -1}',
}


class TestPresets:
    def test_lists_at_least_three(self, capsys):
        assert run_cli("presets") == 0
        out = capsys.readouterr().out
        for name in ("fig2-main", "fig2-insets", "ideal-system"):
            assert name in out

    def test_stable_ordering(self, capsys):
        run_cli("presets")
        first = capsys.readouterr().out
        run_cli("presets")
        assert capsys.readouterr().out == first

    def test_machine_format(self, capsys):
        assert run_cli("presets", "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in doc} >= {"fig2-main",
                                                    "fig2-insets"}
        assert all(entry["description"] for entry in doc)


class TestDefaults:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("section, model", [
        ("topology", BufferTopology), ("detector", DetectorModel),
        ("limits", SimLimits), ("calibration", Calibration)])
    def test_sections_build_the_default_models(self, preset, section, model):
        # Apart from what the preset overlays, the resolved document holds
        # the constructors' own defaults.
        cfg = resolve_config({}, preset=preset)
        overlay = PRESETS[preset][2].get(section, {})
        assert model(**cfg[section]) == replace(model(), **overlay)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_experiment_builds_the_default_model(self, preset):
        cfg = resolve_config({}, preset=preset)
        overlay = PRESETS[preset][2].get("experiment", {})
        built = ExperimentConfig(preset=preset, seed=cfg["seed"],
                                 **cfg["experiment"])
        assert built == replace(ExperimentConfig(preset=preset), **overlay)


class TestRun:
    def test_outputs_exist_and_are_nonempty(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert small_run(out) == 0
        manifest = read_manifest(out)
        assert manifest["seed"] == 7
        assert manifest["outputs"]
        for name in manifest["outputs"]:
            path = out / name
            assert path.exists() and path.stat().st_size > 0
        assert "peaks.csv" in manifest["outputs"]
        assert "histogram.csv" in manifest["outputs"]

    def test_manifest_lists_outputs_in_order(self, tmp_path, capsys):
        # Click files are written during the sweep, before peaks.csv, but
        # are listed after the histogram.
        out = tmp_path / "o"
        assert small_run(out, "--set", "experiment.eta_list=[2,1,3]") == 0
        assert read_manifest(out)["outputs"] == [
            "peaks.csv", "histogram.csv",
            "clicks_eta2.csv", "clicks_eta1.csv", "clicks_eta3.csv",
            "event_log_eta2.csv", "event_log_eta1.csv", "event_log_eta3.csv",
            "summary.json"]

    def test_later_invalid_setting_writes_no_click_file(self, tmp_path,
                                                         capsys):
        # A 25 us trigger period holds the exit times of eta = 1..4, but
        # not eta = 5's (about 28 us).
        out = tmp_path / "o"
        assert small_run(out, "--set", "experiment.rep_rate_hz=40000") == 2
        report = one_json_error(capsys)
        assert report["error"] == "run"
        assert "eta=5" in report["message"]
        assert list(out.glob("clicks_eta*.csv")) == []

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert small_run(a) == 0
        assert small_run(b) == 0
        for name in read_manifest(a)["outputs"]:
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_click_files_and_histogram_equal_per_click_oracles(
            self, tmp_path, capsys):
        # 150k triggers give each setting 3 blocks of 8192 clicks, and the
        # picosecond tags cross 10**10 .. 10**14 inside blocks.
        argv = ["--preset", "fig2-main", "--seed", "11",
                "--set", "experiment.n_triggers=150000"]
        out = tmp_path / "o"
        assert run_cli("run", *argv, "--out", str(out)) == 0
        cfg = resolve_config({}, overrides=argv[-1:], preset="fig2-main",
                             seed=11)
        plan = plan_from_config(cfg)
        sets = {}
        sweep = experiments.run_retrieval_sweep(
            plan.experiment, plan.topology, plan.detector, plan.limits,
            on_clicks=sets.__setitem__)
        assert len(sets) == 8
        for eta, cs in sets.items():
            assert len(cs) > 2 * kernels._BLOCK_CLICKS, eta
            want = "time_ps,detector_id\n" + "".join(
                f"{round(t * 1e12)},{cs.detector_id}\n"
                for t in cs.times.tolist())
            assert (out / f"clicks_eta{eta}.csv").read_bytes() \
                == want.encode(), eta
        period = 1.0 / plan.experiment.rep_rate_hz
        width = experiments.HIST_BIN_S
        n_bins = math.ceil((max(r.exit_time_s for r in sweep.rows)
                            + sweep.delta_t_s) / width)
        counts = [0] * n_bins
        for cs in sets.values():
            for t in cs.times.tolist():
                k = math.floor(t % period / width)
                if k < n_bins:
                    counts[k] += 1
        assert sum(counts) > 0
        want = "bin_start_s,counts\n" + "".join(
            f"{0.0 + k * width!r},{c}\n" for k, c in enumerate(counts))
        assert (out / "histogram.csv").read_text() == want

    @staticmethod
    def fresh_runs(tmp_path, presets, expression):
        """Run each preset at 2000 triggers in one fresh interpreter, then
        print the Python ``expression``; returns the printed line."""
        script = (
            "import sys\n"
            "from qbuffer import detection\n"
            "from qbuffer.cli import main\n"
            f"for preset in {presets!r}:\n"
            "    assert main(['run', '--preset', preset, '--set',\n"
            "                 'experiment.n_triggers=2000',\n"
            "                 '--out', sys.argv[1] + preset]) == 0\n"
            f"print({expression})\n")
        proc = child(["-c", script, str(tmp_path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_runs_do_not_import_numpy_ma(self, tmp_path):
        # numpy imports numpy.ma on the first np.unique call, which costs
        # every run about 16 ms; only a fresh interpreter shows whether a
        # run triggers it.
        assert self.fresh_runs(tmp_path, ("fig2-main", "fig2-insets"),
                               "'numpy.ma' in sys.modules") == "False"

    def test_runs_without_click_files_build_no_digit_table(self, tmp_path):
        # The click-file writer's digit table is built on first use; an
        # analytic fringe sweep ran about 2.7 % slower when it was built at
        # import.
        assert self.fresh_runs(
            tmp_path, ("ideal-system", "fig2-insets"),
            "detection._digit_groups.cache_info().currsize") == "0"

    def test_insets_emits_six_visibility_records(self, tmp_path, capsys):
        out = tmp_path / "i"
        code = run_cli("run", "--preset", "fig2-insets", "--seed", "3",
                       "--set", "experiment.n_triggers=2000",
                       "--out", str(out))
        assert code == 0
        summary = json.load(open(out / "summary.json"))
        vis = summary["visibilities"]
        assert len(vis) == 6
        assert {(v["eta"], v["basis"]) for v in vis} == {
            (eta, basis) for eta in (1, 3, 5)
            for basis in ("computational", "logical")}

    def test_storage_length_override_stretches_period(self, tmp_path,
                                                      capsys):
        base, longer = tmp_path / "x", tmp_path / "y"
        small_run(base, "--set", "experiment.mode=\"analytic\"")
        small_run(longer, "--set", "experiment.mode=\"analytic\"",
                  "--set", "topology.storage_length_m=200")
        dt0 = json.load(open(base / "summary.json"))["delta_t_s"]
        dt1 = json.load(open(longer / "summary.json"))["delta_t_s"]
        assert dt1 - dt0 == pytest.approx(fiber_delay(200.0, 1.468),
                                          rel=1e-9)

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "j"
        assert small_run(out, "--format", "json") == 0
        doc = json.load(open(out / "results.json"))
        assert len(doc["peaks"]) == 8
        assert doc["summary"]["n_peaks"] == 8
        assert read_manifest(out)["outputs"] == ["results.json"]

    def test_unknown_preset_in_config_lists_available(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"preset": "does-not-exist"}))
        assert run_cli("run", "--config", str(cfg),
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        report = json.loads(err)
        assert report["error"] == "schema"
        assert "fig2-main" in report["message"]

    @pytest.mark.parametrize("preset", [[1], {"a": 1}])
    def test_unhashable_preset_is_a_schema_error(self, tmp_path, capsys,
                                                 preset):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"preset": preset}))
        assert run_cli("validate", "--config", str(cfg)) == 2
        assert one_json_error(capsys)["path"] == "preset"

    @pytest.mark.parametrize("path", list(REJECTED_DOCS))
    def test_schema_violation_reports_field_path(self, tmp_path, capsys,
                                                 path):
        cfg = tmp_path / "c.json"
        cfg.write_text(REJECTED_DOCS[path])
        assert run_cli("run", "--config", str(cfg),
                       "--out", str(tmp_path / "o")) == 2
        report = one_json_error(capsys)
        assert report["error"] == "schema"
        assert report["path"] == path

    def test_unknown_key_reports_field_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"topology": {"loop_loss_db": 1.0}}))
        assert run_cli("run", "--config", str(cfg),
                       "--out", str(tmp_path / "o")) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["path"] == "topology.loop_loss_db"

    def test_unsafe_schedule_exits_three(self, tmp_path, capsys):
        code = small_run(tmp_path / "o",
                         "--set", "experiment.drive_width_s=1.2e-6")
        assert code == 3
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "schedule"
        assert any(v["code"] == "unintended-readout"
                   for v in report["violations"])

    def test_lost_retrieval_lists_the_run_warnings(self, tmp_path, capsys):
        # A 300 ns guard closes each 180 ns drive before the pulse reaches
        # the modulator, so nothing is stored and eta = 2 retrieves nothing.
        code = small_run(tmp_path / "o",
                         "--set", "experiment.drive_guard_s=3e-7")
        assert code == 3
        report = one_json_error(capsys)
        assert "eta=2 produced 0 retrievals" in report["message"]
        assert {v["code"] for v in report["violations"]} == {"no-op-drive"}

    @pytest.mark.parametrize("preset", ["fig2-insets", "ideal-system"])
    def test_exit_after_the_next_trigger_exits_two(self, tmp_path, capsys,
                                                   preset):
        # A 10 us trigger period ends before eta = 3's exit (about 16.6 us).
        code = run_cli("run", "--preset", preset,
                       "--set", "experiment.rep_rate_hz=1e5",
                       "--set", "experiment.n_triggers=2000",
                       "--out", str(tmp_path / "o"))
        assert code == 2
        report = one_json_error(capsys)
        assert report["message"].startswith("exit time ")
        assert "of eta=3 exceeds the trigger period" in report["message"]

    def test_custom_schedule_run(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "preset": "fig2-main",
            "seed": 1,
            "schedule": [
                {"t_start_s": 4.8277e-6, "width_s": 180e-9,
                 "voltage": 900.0},
                {"t_start_s": 10.7038e-6, "width_s": 180e-9,
                 "voltage": 900.0},
            ],
        }))
        # Every engine run; validate_schedule must not start one of its own.
        calls = []
        for module in (experiments, engine):
            def counted(*args, _run=module.simulate, **kwargs):
                calls.append(1)
                return _run(*args, **kwargs)
            monkeypatch.setattr(module, "simulate", counted)
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        summary = json.load(open(out / "summary.json"))
        assert summary["n_retrieved"] >= 1
        assert (out / "event_log.csv").exists()
        assert len(calls) == 1


class TestSettingIsolation:
    """A setting's results depend on the config, the seed and its eta alone:
    retrieval and fringe substreams are keyed by the eta value, so its files
    and rows are the same bytes alone or beside other settings."""

    @staticmethod
    def run(out, preset, *extra):
        assert run_cli("run", "--preset", preset, "--seed", "4", "--set",
                       "experiment.n_triggers=20000", "--out", str(out),
                       *extra) == 0

    @staticmethod
    def rows(path, etas):
        """The lines of a CSV whose first column is one of ``etas``."""
        return [line for line in path.read_text().splitlines()
                if line.split(",")[0] in {str(e) for e in etas}]

    def test_retrieval_settings(self, tmp_path, capsys):
        full, sub = tmp_path / "full", tmp_path / "sub"
        self.run(full, "fig2-main")
        self.run(sub, "fig2-main", "--set", "experiment.eta_list=[3,5,7]")
        for eta in (3, 5, 7):
            for name in (f"clicks_eta{eta}.csv", f"event_log_eta{eta}.csv"):
                assert (full / name).read_bytes() == (sub / name).read_bytes()
        rows = self.rows(full / "peaks.csv", (3, 5, 7))
        assert len(rows) == 3
        assert rows == self.rows(sub / "peaks.csv", (3, 5, 7))

    def test_fringe_setting(self, tmp_path, capsys):
        full, sub = tmp_path / "full", tmp_path / "sub"
        self.run(full, "fig2-insets")
        self.run(sub, "fig2-insets", "--set", "experiment.eta_list=[5]")
        rows = self.rows(full / "sweep.csv", (5,))
        assert len(rows) == 64
        assert rows == self.rows(sub / "sweep.csv", (5,))


class TestContractOnBadSweeps:
    """Sweep inputs the run cannot use exit 2 with one JSON line on
    stderr."""

    @pytest.mark.parametrize("angles", ["[]", "[0,0.5,1.5708]"])
    def test_short_hwp_grid(self, tmp_path, capsys, angles):
        code = run_cli("run", "--preset", "fig2-insets",
                       "--set", f"experiment.hwp_angles={angles}",
                       "--out", str(tmp_path / "o"))
        assert code == 2
        report = one_json_error(capsys)
        assert "HWP angles" in report["message"]

    @pytest.mark.parametrize("preset, extra, need", [
        ("fig2-main", (), 7),
        # The eta=5 calibration target is propagated too.
        ("fig2-insets", ("--set", "experiment.eta_list=[1]"), 4),
    ])
    def test_cycle_limit_below_longest_setting(self, tmp_path, capsys,
                                               preset, extra, need):
        code = run_cli("run", "--preset", preset, *extra,
                       "--set", f"limits.max_cycles={need - 1}",
                       "--out", str(tmp_path / "o"))
        assert code == 2
        report = one_json_error(capsys)
        assert report["error"] == "schema"
        assert report["path"] == "limits.max_cycles"

    def test_cycle_limit_at_longest_setting_runs(self, tmp_path, capsys):
        assert small_run(tmp_path / "o", "--set", "limits.max_cycles=7") == 0


class TestDomainErrorsAreSchemaErrors:
    """Values that pass the schema but that a constructor rejects exit 2
    with one JSON line naming the rejected field's document path."""

    @pytest.mark.parametrize("command, item, path", [
        ("run", "topology.modulator_offset_m=1000",
         "topology.modulator_offset_m"),
        ("validate", "topology.modulator_offset_m=0",
         "topology.modulator_offset_m"),
        ("run", 'schedule=[{"t_start_s":0,"width_s":-1}]',
         "schedule[0].width_s"),
        ("run", "experiment.hwp_angles=[0,0.5,1,1.6,1e308]",
         "experiment.hwp_angles[4]"),
        ("run", "experiment.eta_list=[1,1,2]", "experiment.eta_list[1]"),
        ("validate", "experiment.eta_list=[1,1,2]",
         "experiment.eta_list[1]"),
    ])
    def test_exits_two_with_section_path(self, tmp_path, capsys, command,
                                         item, path):
        argv = [command, "--set", item]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 2
        report = one_json_error(capsys)
        assert report["error"] == "schema"
        assert report["path"] == path

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_underflowed_transmission_fails_the_audit(self, tmp_path, capsys,
                                                      command):
        # 1e308 dB of loss leaves a transmission of exactly 0, which no
        # power audit can divide by.
        argv = [command, "--set", "topology.per_element_loss_db.circulator"
                "=1e308", "--set", "experiment.n_triggers=100"]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 2
        report = one_json_error(capsys)
        assert report["error"] == "run"
        assert "source pulse 0" in report["message"]

    @pytest.mark.parametrize("items, message", [
        # V / V_pi overflows, so the loop phase is inf.
        (("topology.v_pi=5e-324", 'schedule=[{"t_start_s":0}]'), "phase"),
        (("experiment.eta_list=[1]",), "distinct settings"),
        (("detector.dark_rate_hz=1e308",), "dark clicks"),
        # 2**62 pulses, more than one array can index.
        (("experiment.eta_list=[1]",
          "experiment.n_triggers=4611686018427387904"), "pulses"),
    ])
    def test_run_time_domain_errors(self, tmp_path, capsys, items, message):
        argv = ["run", "--set", "experiment.n_triggers=100",
                "--out", str(tmp_path / "o")]
        for item in items:
            argv += ["--set", item]
        assert run_cli(*argv) == 2
        report = one_json_error(capsys)
        assert report["error"] == "run"
        assert message in report["message"]

    def test_all_zero_port_names_the_setting(self, tmp_path, capsys):
        # Three triggers leave a port with no gated click at any HWP angle.
        assert run_cli("run", "--preset", "fig2-insets", "--set",
                       "experiment.n_triggers=3", "--seed", "1",
                       "--out", str(tmp_path / "o")) == 2
        report = one_json_error(capsys)
        assert report["error"] == "run"
        assert report["message"].startswith(
            "eta 1, basis computational, port 1: visibility undefined")
        assert "3 sampled triggers; more triggers are needed" in \
            report["message"]

    @pytest.mark.parametrize("items, size", [
        (("experiment.n_triggers=1000000000000000",), "480. TiB"),
        (("experiment.n_triggers=200", "detector.dark_rate_hz=1e16"), "PiB"),
    ], ids=["trigger-count", "dark-rate"])
    def test_allocation_too_large(self, tmp_path, capsys, items, size):
        # Draws of 480 TiB (the gap block of 6.6e13 expected fires) and
        # 14.2 PiB: larger than the address space, so the allocation fails
        # at once instead of filling memory.
        argv = ["run", "--preset", "fig2-main",
                "--set", "experiment.eta_list=[1]",
                "--out", str(tmp_path / "o")]
        for item in items:
            argv += ["--set", item]
        assert run_cli(*argv) == 2
        report = one_json_error(capsys)
        assert report["error"] == "run"
        assert size in report["message"]


class TestSeedResolution:
    def test_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QBUF_SEED", "777")
        out = tmp_path / "o"
        assert run_cli("run", "--preset", "fig2-main",
                       "--set", "experiment.n_triggers=500",
                       "--out", str(out)) == 0
        assert read_manifest(out)["seed"] == 777

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QBUF_SEED", "777")
        out = tmp_path / "o"
        assert small_run(out) == 0
        assert read_manifest(out)["seed"] == 7

    def test_set_beats_env(self, tmp_path, capsys, monkeypatch):
        # QBUF_SEED stands in for the file's seed, so --set overrides it.
        monkeypatch.setenv("QBUF_SEED", "777")
        out = tmp_path / "o"
        assert run_cli("run", "--set", "seed=3",
                       "--set", "experiment.n_triggers=500",
                       "--out", str(out)) == 0
        assert read_manifest(out)["seed"] == 3

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("env", ["\u00b2", "\u0661\u0662", "--5", "+5"])
    def test_non_integer_env_is_a_schema_error(self, tmp_path, capsys,
                                               monkeypatch, command, env):
        # str.isdigit accepts superscripts and other scripts' digits, which
        # int() then rejects or reads; only ASCII -?[0-9]+ is a seed.
        monkeypatch.setenv("QBUF_SEED", env)
        argv = [command, "--preset", "fig2-insets"]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 2
        report = one_json_error(capsys)
        assert report["error"] == "schema"
        assert report["path"] == "seed"

    def test_file_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QBUF_SEED", "777")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"seed": 123, "experiment": {"n_triggers": 500}}))
        out = tmp_path / "o"
        assert run_cli("run", "--preset", "fig2-main", "--config", str(cfg),
                       "--out", str(out)) == 0
        assert read_manifest(out)["seed"] == 123

    def test_override_precedence_flag_over_file_over_preset(self, tmp_path,
                                                            capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": {"n_triggers": 5000}}))
        out = tmp_path / "o"
        assert run_cli("run", "--preset", "fig2-main", "--seed", "1",
                       "--config", str(cfg),
                       "--set", "experiment.n_triggers=1234",
                       "--out", str(out)) == 0
        snap = read_manifest(out)["config"]
        assert snap["experiment"]["n_triggers"] == 1234

    def test_file_value_survives_without_override(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": {"n_triggers": 5000}}))
        out = tmp_path / "o"
        assert run_cli("run", "--preset", "fig2-main", "--seed", "1",
                       "--config", str(cfg), "--out", str(out)) == 0
        assert read_manifest(out)["config"]["experiment"]["n_triggers"] \
            == 5000


class TestFailedRunLeavesNoOutputs:
    """A run that fails after sampling has begun removes the files it has
    written and writes no manifest."""

    def test_failed_loss_fit(self, tmp_path, capsys):
        # One setting is sampled and its click file written before the
        # loss fit finds fewer than 2 peaks.
        out = tmp_path / "o"
        assert small_run(out, "--set", "experiment.eta_list=[1]") == 2
        assert "distinct settings" in one_json_error(capsys)["message"]
        assert os.listdir(out) == []

    def test_file_failed_partway(self, tmp_path, capsys, monkeypatch):
        # The first click file fails after its header and first block.
        out, real, calls = tmp_path / "o", detection._csv_rows, []

        def csv_rows(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(*args)

        monkeypatch.setattr(kernels, "_BLOCK_CLICKS", 64)
        monkeypatch.setattr(detection, "_csv_rows", csv_rows)
        assert small_run(out) == 2
        assert one_json_error(capsys) == {"error": "output",
                                          "message": "disk full"}
        assert os.listdir(out) == []

    def test_failed_rerun_keeps_the_earlier_run(self, tmp_path, capsys):
        # A failed run into the --out of an earlier one leaves every earlier
        # file as it was, the manifest included, and no staging directory.
        out = tmp_path / "o"
        assert small_run(out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert small_run(out, "--set", "experiment.eta_list=[1]") == 2
        assert "distinct settings" in one_json_error(capsys)["message"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_move_is_an_output_error(self, tmp_path, capsys,
                                            monkeypatch):
        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        assert small_run(tmp_path / "o") == 2
        assert one_json_error(capsys) == {"error": "output",
                                          "message": "disk full"}
        assert os.listdir(tmp_path / "o") == []

    def test_manifest_name_taken_by_a_directory(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "manifest.json").mkdir(parents=True)
        assert small_run(out) == 2
        assert one_json_error(capsys)["error"] == "output"
        assert os.listdir(out) == ["manifest.json"]
        assert (out / "manifest.json").is_dir()


class TestOutputErrors:
    """An output path that cannot be written exits 2 with one JSON line."""

    def test_out_names_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        assert small_run(out) == 2
        report = one_json_error(capsys)
        assert report["error"] == "output"
        assert str(out) in report["message"]

    @pytest.mark.parametrize("name", ["clicks_eta1.csv", "manifest.json"])
    def test_output_name_taken_by_a_directory(self, tmp_path, capsys, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert small_run(out) == 2
        report = one_json_error(capsys)
        assert report["error"] == "output"
        assert name in report["message"]


class TestManifestRoundTrip:
    def test_rerun_from_snapshot_reproduces_outputs(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert small_run(first) == 0
        manifest = read_manifest(first)
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text(json.dumps(manifest["config"]))
        second = tmp_path / "second"
        assert run_cli("run", "--config", str(snapshot),
                       "--out", str(second)) == 0
        for name in manifest["outputs"]:
            assert filecmp.cmp(first / name, second / name,
                               shallow=False), name


class TestCalibrationSection:
    """``validate`` and ``run`` reject the same calibration sections, each
    with one JSON line naming the rejected path."""

    @pytest.mark.parametrize("item, path", [
        ('calibration.targets={"1":0}', "calibration.targets.1"),
        ('calibration.targets={"3":0.9}', "calibration.targets"),
        ("calibration.targets={}", "calibration.targets"),
        ('calibration.targets={"1":0.95,"01":0.9}',
         "calibration.targets.01"),
        ("calibration.mode=x", "calibration.mode"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_rejected_section_exits_two(self, tmp_path, capsys, command,
                                        item, path):
        argv = [command, "--preset", "fig2-insets",
                "--set", "calibration.mode=table", "--set", item]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 2
        report = one_json_error(capsys)
        assert report["error"] == "schema"
        assert report["path"] == path


class TestValidate:
    def test_default_operating_point(self, capsys):
        for preset in sorted(PRESETS):
            assert run_cli("validate", "--preset", preset) == 0, preset
            assert capsys.readouterr().out == "schedule ok\n", preset

    def test_lost_retrieval_is_an_error(self, capsys):
        # The drives open on no passage: a warning each, and no retrieval.
        code = run_cli("validate", "--preset", "fig2-main",
                       "--set", "experiment.drive_guard_s=3e-7")
        assert code == 3
        out = capsys.readouterr().out
        assert "warning: [eta=2] no-op-drive: " in out
        assert ("error: [eta=2] schedule for eta=2 produced 0 retrievals at "
                "cycles=1 instead of exactly one\n") in out

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_exit_after_the_next_trigger_exits_two(self, capsys, preset):
        code = run_cli("validate", "--preset", preset,
                       "--set", "experiment.rep_rate_hz=1e5")
        assert code == 2
        report = one_json_error(capsys)
        assert report["error"] == "run"
        assert "exceeds the trigger period" in report["message"]

    @pytest.mark.parametrize("override", [
        None, "experiment.drive_guard_s=3e-7",
        "experiment.drive_width_s=1.2e-6", "experiment.rep_rate_hz=1e5",
        'calibration.targets={"1": 0.9, "3": 0.95}',
        "experiment.hwp_angles=[0, 0.1, 0.2]", "experiment.eta_list=[1]"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_agrees_with_run(self, tmp_path, capsys, preset, override):
        args = ["--preset", preset, "--set", "experiment.n_triggers=2000"]
        if override is not None:
            args += ["--set", override]
        ran = run_cli("run", *args, "--out", str(tmp_path / "o"))
        ran_err = capsys.readouterr().err
        assert run_cli("validate", *args) == ran
        assert capsys.readouterr().err == ran_err

    def test_sampled_counts_are_checked_by_run_only(self, tmp_path, capsys):
        # Three triggers sample all-zero counts; the click model's do not.
        args = ["--preset", "fig2-insets", "--set", "experiment.n_triggers=3"]
        assert run_cli("validate", *args) == 0
        assert capsys.readouterr().out == "schedule ok\n"
        assert run_cli("run", *args, "--out", str(tmp_path / "o")) == 2
        assert "more triggers are needed" in one_json_error(capsys)["message"]

    def test_long_drive_rejected(self, capsys):
        code = run_cli("validate", "--preset", "fig2-main",
                       "--set", "experiment.drive_width_s=1.2e-6")
        assert code == 3
        out = capsys.readouterr()
        assert "unintended-readout" in out.out

    def test_calibration_targets_are_validated(self, capsys):
        # run propagates the eta=3 and eta=5 targets too, and exits 3 on
        # the same drive.
        code = run_cli("validate", "--preset", "fig2-insets",
                       "--set", "experiment.eta_list=[1]",
                       "--set", "experiment.drive_width_s=1.2e-6")
        assert code == 3
        out = capsys.readouterr().out
        assert "[eta=3] unintended-readout" in out
        assert "[eta=5] unintended-readout" in out

    def test_empty_schedule_warns(self, capsys):
        code = run_cli("validate", "--preset", "ideal-system",
                       "--set", "experiment.eta_list=[1]")
        assert code == 0
        assert "no drive pulses" in capsys.readouterr().out


#: Signed zeros, a subnormal, huge, non-finite and negative numbers, a
#: fractional integer, bools, a string and an empty list.
EDGE_VALUES = [0, -0.0, 5e-324, 1e308, -1e308, math.nan, math.inf,
               -math.inf, -1, 2.5, True, False, "x", []]


def _leaf_paths(node, prefix=""):
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _leaf_paths(value, path + ".")
        elif key not in ("schema_version", "preset"):
            yield path


LEAF_PATHS = sorted(_leaf_paths(resolve_config({})))

edge = st.sampled_from(EDGE_VALUES)
mutation = st.one_of(
    st.tuples(st.sampled_from(LEAF_PATHS), edge),
    st.tuples(st.just("experiment.eta_list"), edge.map(lambda v: [1, v])),
    st.tuples(st.just("experiment.hwp_angles"),
              edge.map(lambda v: [0.0, 0.5, 1.0, 1.6, v])),
    st.tuples(st.just("topology.depol_per_cycle"), edge.map(lambda v: [v])),
    st.tuples(st.just("calibration.targets"),
              st.one_of(edge.map(lambda v: {"1": v, "3": 0.9}),
                        st.sampled_from(["0", "x", "\u00b2", "01"]).map(
                            lambda k: {"1": 0.95, k: 0.9}))),
    st.tuples(st.just("schedule"), st.tuples(
        st.sampled_from(["t_start_s", "width_s", "voltage"]), edge).map(
            lambda kv: [{"t_start_s": 4.8277e-6, kv[0]: kv[1]}])),
)


def _set_path(doc, path, value):
    *sections, key = path.split(".")
    for name in sections:
        doc = doc.setdefault(name, {})
    doc[key] = value


class TestOverrideEndsAsFile:
    """A leaf given by ``--set`` ends exactly as the same value given in a
    config file: same exit code, stdout and error line."""

    @staticmethod
    def ends(tmp_path, capsys, path, value, *flags):
        doc = {}
        _set_path(doc, path, value)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        ends = []
        for given in (["--config", str(cfg)],
                      ["--set", f"{path}={json.dumps(value)}"]):
            ends.append((run_cli("validate", *flags, *given),
                         *capsys.readouterr()))
        assert ends[0] == ends[1]
        return ends[0]

    @pytest.mark.parametrize("path, value, code", [
        ("calibration.targets.7", 0.8, 0),
        ("topology.per_element_loss_db.foo", 1, 2),
        ("topology.nope", 1, 2),
        ("experiment.eta_list", "135", 2),
        ("schedule", [{"t_start_s": 0.0, "bogus": 1}], 2),
        ("nope.x", 1, 2),
        ("experiment.eta_list.0", 5, 2),
    ])
    def test_same_end(self, tmp_path, capsys, path, value, code):
        end = self.ends(tmp_path, capsys, path, value,
                        "--preset", "fig2-insets")
        assert end[0] == code

    @pytest.mark.parametrize("path, value, code", [
        ("preset", "fig2-insets", 0),
        ("preset", "ideal-system", 0),
        ("preset", "nope", 2),
        ("preset.x", 1, 2),
    ])
    def test_same_end_choosing_the_preset(self, tmp_path, capsys, path,
                                          value, code):
        # Without --preset, the value picks the preset and its overlay. Four
        # cycles let out eta=5, the last setting of fig2-insets and
        # ideal-system, but not fig2-main's eta=8.
        end = self.ends(tmp_path, capsys, path, value,
                        "--set", "limits.max_cycles=4")
        assert end[0] == code

    def test_set_preset_takes_its_overlay(self):
        cfg = resolve_config({}, ["preset=fig2-insets"])
        assert cfg == resolve_config({}, preset="fig2-insets")
        assert cfg["experiment"]["eta_list"] == [1, 3, 5]


class TestConfigEntryPoints:
    """The config layer's public functions reject a wrong-type argument or
    a file they cannot parse with ConfigError."""

    @pytest.mark.parametrize("call", [
        lambda: resolve_config(5),
        lambda: resolve_config({}, overrides=5),
        lambda: resolve_config({}, overrides=[5]),
        lambda: parse_override(5),
        lambda: load_config_file(None),
    ], ids=["file", "overrides", "override-item", "parse", "path"])
    def test_wrong_type_is_a_config_error(self, call):
        with pytest.raises(ConfigError):
            call()

    @pytest.mark.parametrize("data", [
        b'{"seed": "\xff"}', b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf-8", "too-deep"])
    def test_unparsable_file_exits_two(self, tmp_path, capsys, data):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(data)
        assert run_cli("validate", "--config", str(cfg)) == 2
        report = one_json_error(capsys)
        assert report["error"] == "schema"
        assert report["message"].startswith("config file is not valid JSON")

    def test_too_deep_override_is_a_bare_string(self):
        raw = "[" * 100_000 + "]" * 100_000
        assert parse_override(f"x={raw}") == ("x", raw)

    def test_file_descriptor_is_not_opened(self, tmp_path):
        # open() takes an int as a descriptor and closes it on exit.
        with open(tmp_path / "c.json", "w") as fh:
            with pytest.raises(ConfigError):
                load_config_file(fh.fileno())
            os.fstat(fh.fileno())  # still open


class TestCliContractFuzz:
    """Any config value, from a file or ``--set``, exits 0, or 2/3 with
    exactly one JSON line on stderr; nothing escapes as a traceback or a
    warning."""

    @settings(max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["run", "validate"]),
           preset=st.sampled_from(["fig2-main", "fig2-insets",
                                   "ideal-system"]),
           mutations=st.lists(mutation, min_size=1, max_size=3),
           from_file=st.booleans())
    def test_exit_code_and_one_json_line(self, tmp_path_factory, capfd,
                                         command, preset, mutations,
                                         from_file):
        out = tmp_path_factory.mktemp("fuzz")
        argv = [command, "--preset", preset,
                "--set", "experiment.n_triggers=200"]
        if from_file:
            doc = {}
            for path, value in mutations:
                _set_path(doc, path, value)
            (out / "c.json").write_text(json.dumps(doc))
            argv += ["--config", str(out / "c.json")]
        else:
            for path, value in mutations:
                argv += ["--set", f"{path}={json.dumps(value)}"]
        if command == "run":
            argv += ["--out", str(out / "o")]
        capfd.readouterr()  # the fixture is shared by every example
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(*argv)
        assert [str(w.message) for w in caught] == []
        err = capfd.readouterr().err.splitlines()
        if code == 0:
            assert err == []
        else:
            assert code in (2, 3)
            (line,) = err
            assert json.loads(line)["error"]



class TestScript:
    """``python -m qbuffer.cli`` runs ``cli.script``, which ends the process
    without the interpreter's teardown; what it writes and its exit codes
    are those of ``main``."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_run_equals_in_process_main(self, tmp_path, monkeypatch, capsys,
                                        preset):
        argv = ["run", "--preset", preset, "--seed", "5", "--set",
                "experiment.n_triggers=2000", "--out", "out"]
        (tmp_path / "script").mkdir()
        proc = child(["-m", "qbuffer.cli", *argv], tmp_path / "script")
        assert (proc.returncode, proc.stderr) == (0, "")
        (tmp_path / "main").mkdir()
        monkeypatch.chdir(tmp_path / "main")
        assert run_cli(*argv) == 0
        assert proc.stdout == capsys.readouterr().out == \
            f"wrote {len(os.listdir('out'))} files to out\n"
        assert result_bytes(tmp_path / "script" / "out") \
            == result_bytes(tmp_path / "main" / "out")

    @pytest.mark.parametrize("argv", [
        *(["run", "--preset", preset, "--format", "json", "--out", "out"]
          for preset in sorted(PRESETS)),
        *(["validate", "--preset", preset] for preset in sorted(PRESETS)),
        ["presets"], ["presets", "--format", "json"],
    ], ids=" ".join)
    def test_success_leaves_stderr_empty(self, tmp_path, argv):
        # As test_run_equals_in_process_main checks for csv runs; also no
        # log line of a hash that hashlib could not find.
        proc = child(["-m", "qbuffer.cli", *argv], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout

    #: Child code that runs ``cli.script`` on ``sys.argv[2:]``, after the
    #: statement in ``sys.argv[1]``, and as the process ends prints whether
    #: OpenSSL's ``_hashlib`` is loaded and the sha256 of b"".
    REPORT_AT_EXIT = (
        "import os, sys\n"
        "exec(sys.argv[1])\n"
        "from qbuffer import cli\n"
        "def report(code, _exit=os._exit):\n"
        "    import hashlib\n"
        "    print(sys.modules.get('_hashlib') is not None,\n"
        "          hashlib.sha256(b'').hexdigest()[:8], flush=True)\n"
        "    _exit(code)\n"
        "os._exit = report\n"
        "sys.argv[1:] = sys.argv[2:]\n"
        "cli.script()\n")

    @pytest.mark.parametrize("first, openssl", [
        ("pass", False), ("sys.modules['_md5'] = None", True)],
        ids=["builtin-hashes", "md5-missing"])
    @pytest.mark.parametrize("preset", ["fig2-main", "fig2-insets"])
    def test_runs_load_no_openssl(self, tmp_path, preset, first, openssl):
        # numpy.random imports hashlib, which loads OpenSSL's libcrypto
        # unless the command blocks _hashlib; it does so only when every
        # builtin hash module exists, since hashlib logs a missing one.
        proc = child(["-c", self.REPORT_AT_EXIT, first, "run", "--preset",
                      preset, "--set", "experiment.n_triggers=2000", "--out",
                      "out"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == f"{openssl} e3b0c442"

    def test_main_keeps_openssl(self, tmp_path):
        # A library call of main blocks nothing.
        proc = child(["-c", "import sys\n"
                      "from qbuffer import cli\n"
                      "assert cli.main(['run', '--preset', 'fig2-main',\n"
                      "                 '--set', 'experiment.n_triggers=2000',\n"
                      "                 '--out', 'out']) == 0\n"
                      "import _hashlib\n"
                      "print('_hashlib' in sys.modules)"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "True"

    @pytest.mark.parametrize("argv, code, kind", [
        (["run", "--preset", "fig2-main", "--seed", "-1"], 2, "schema"),
        (["validate", "--preset", "fig2-main",
          "--set", "experiment.drive_width_s=1.2e-6"], 3, "schedule"),
    ], ids=["schema", "schedule"])
    def test_error_is_one_json_line(self, tmp_path, argv, code, kind):
        proc = child(["-m", "qbuffer.cli", *argv], tmp_path)
        assert proc.returncode == code
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"] == kind
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("unbuffered", [True, False],
                             ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [
        ["presets"], ["presets", "--format", "json"],
        ["validate", "--preset", "fig2-main"],
        ["run", "--preset", "fig2-main", "--set",
         "experiment.n_triggers=2000", "--out", "out"],
        ["--version"], ["--help"], ["run", "--help"],
    ], ids=["presets", "presets-json", "validate", "run", "version", "help",
            "run-help"])
    def test_closed_stdout_is_an_output_error(self, tmp_path, argv,
                                              unbuffered):
        # argparse drops a failed write of --help or --version; every
        # command reports the same one line, whatever the buffering.
        proc = closed_pipe_child(argv, tmp_path, unbuffered)
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {
            "error": "output", "message": "stdout: [Errno 32] Broken pipe"}
        if argv[0] == "run" and "--help" not in argv:
            # The run fails, so it leaves none of its files.
            assert os.listdir(tmp_path / "out") == []

    def test_main_returns_and_script_exits(self, tmp_path):
        # A library call of main returns its code and the interpreter ends
        # as usual; the script ends the process, so atexit handlers do not
        # run.
        start = ("import atexit, sys\n"
                 "from qbuffer import cli\n"
                 "atexit.register(print, 'atexit')\n")
        proc = child(["-c", start + "print(cli.main(['presets']) + 7)\n"
                      "print('after main')"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-3:] == ["7", "after main", "atexit"]
        proc = child(["-c", start + "sys.argv[1:] = ['presets']\n"
                      "cli.script()\n"
                      "print('after script')"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1].startswith("ideal-system ")
        assert "after script" not in proc.stdout
        assert "atexit" not in proc.stdout

    def test_main_returns_argparse_codes(self, capsys):
        # argparse ends --help, --version and a usage error with SystemExit;
        # main returns their codes as it does any command's.
        assert run_cli("--version") == 0
        assert capsys.readouterr().out == f"{cli.__version__}\n"
        assert run_cli("run", "--help") == 0
        assert capsys.readouterr().out.startswith("usage: qbuffer run")
        assert run_cli("run", "--no-such-flag") == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLazyPackage:
    """``import qbuffer`` loads no numpy and changes no environment; the
    command line holds OpenBLAS to one thread unless the user chose."""

    def test_import_loads_no_numpy(self, tmp_path):
        proc = child(["-c", "import os, sys, qbuffer\n"
                      "print('numpy' in sys.modules, "
                      "os.environ.get('OPENBLAS_NUM_THREADS'))"],
                     tmp_path, {"OPENBLAS_NUM_THREADS": None})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "False None\n"

    def test_public_names_resolve(self, tmp_path):
        body = (
            "import importlib, qbuffer\n"
            "names = [n for n in qbuffer.__all__ if n != '__version__']\n"
            "assert len(names) == len(set(names))\n"
            "assert set(qbuffer.__all__) <= set(dir(qbuffer))\n"
            "for module, defined in qbuffer._EXPORTS.items():\n"
            "    mod = importlib.import_module('qbuffer.' + module)\n"
            "    for name in defined:\n"
            "        assert getattr(qbuffer, name) is getattr(mod, name)\n"
            "star = {}\n"
            "exec('from qbuffer import *', star)\n"
            "assert set(star) - {'__builtins__'} == set(qbuffer.__all__)\n"
            "try:\n"
            "    qbuffer.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n")
        proc = child(["-c", body], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == \
            "module 'qbuffer' has no attribute 'no_such_name'\n"

    @pytest.mark.parametrize("user, want", [(None, "1"), ("3", "3")],
                             ids=["unset", "user-value"])
    def test_cli_sets_one_blas_thread(self, tmp_path, user, want):
        proc = child(["-c", "import os, qbuffer\n"
                      "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
                      "import qbuffer.cli\n"
                      "print(os.environ['OPENBLAS_NUM_THREADS'])"],
                     tmp_path, {"OPENBLAS_NUM_THREADS": user})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"{user}\n{want}\n"
