import filecmp
import json
import os

import pytest

from qbuffer import cli, engine
from qbuffer.cli import main
from qbuffer.components import fiber_delay


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

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert small_run(a) == 0
        assert small_run(b) == 0
        for name in read_manifest(a)["outputs"]:
            assert filecmp.cmp(a / name, b / name, shallow=False), name

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

    def test_schema_violation_reports_field_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"topology": {"storage_length_m": "very long"}}))
        assert run_cli("run", "--config", str(cfg),
                       "--out", str(tmp_path / "o")) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["path"] == "topology.storage_length_m"

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
        # Every engine run, also one inside validate_schedule.
        calls = []
        for module in (cli, engine):
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
    with one JSON line naming the config section."""

    @pytest.mark.parametrize("command, item, path", [
        ("run", "topology.modulator_offset_m=1000", "topology"),
        ("validate", "topology.modulator_offset_m=0", "topology"),
        ("run", 'schedule=[{"t_start_s":0,"width_s":-1}]', "schedule[0]"),
        ("run", "experiment.hwp_angles=[0,0.5,1,1.6,1e308]", "experiment"),
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


class TestValidate:
    def test_default_operating_point(self, capsys):
        assert run_cli("validate", "--preset", "fig2-main") == 0
        assert "schedule ok" in capsys.readouterr().out

    def test_long_drive_rejected(self, capsys):
        code = run_cli("validate", "--preset", "fig2-main",
                       "--set", "experiment.drive_width_s=1.2e-6")
        assert code == 3
        out = capsys.readouterr()
        assert "unintended-readout" in out.out

    def test_empty_schedule_warns(self, capsys):
        code = run_cli("validate", "--preset", "fig2-main",
                       "--set", "experiment.eta_list=[1]")
        assert code == 0
        assert "no drive pulses" in capsys.readouterr().out
