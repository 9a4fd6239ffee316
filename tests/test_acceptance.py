"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import filecmp
import json
import math
import time

import numpy as np
import pytest

from qbuffer.cli import main as cli_main, run_plan
from qbuffer.components import (
    BufferTopology,
    db_to_transmission,
    generate_pulse_train,
    sagnac_transfer,
)
from qbuffer.config import plan_from_config, resolve_config
from qbuffer.engine import (
    simulate,
    storage_period,
    storage_retrieval_schedule,
    validate_schedule,
    DriveSchedule,
)
from qbuffer.errors import InputDomainError
from qbuffer.experiments import fit_decay
from qbuffer.polarization import (
    PolState,
    apply_depolarizing,
    apply_unitary,
    hwp_matrix,
    projection_probability,
)

N_PROPERTY_CASES = 10_000


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def preset_plan(name: str, seed: int, *overrides: str):
    cfg = resolve_config({}, overrides=list(overrides), preset=name,
                         seed=seed)
    return plan_from_config(cfg)


def test_c1_timing_reproduction():
    topo = BufferTopology()
    dt = storage_period(topo)
    ok_dt = abs(dt - 5.876e-6) <= 0.005 * 5.876e-6

    started = time.perf_counter()
    _summary, sweep = run_plan(preset_plan("fig2-main", 7))
    elapsed = time.perf_counter() - started

    ok_peaks = len(sweep.rows) == 8
    ok_span = abs(sweep.span_s - 47.0e-6) <= 0.01 * 47.0e-6
    ok_counts = all(r.sampled_counts > 0 for r in sweep.rows)
    ok_time = elapsed < 10.0
    report("C1 timing-reproduction",
           ok_dt and ok_peaks and ok_span and ok_counts and ok_time,
           f"dT={dt * 1e6:.4f}us span={sweep.span_s * 1e6:.3f}us "
           f"runtime={elapsed:.2f}s")


def test_c2_visibility_reproduction():
    targets = {1: 0.955, 3: 0.953, 5: 0.835}

    summary, _results = run_plan(
        preset_plan("fig2-insets", 42, "experiment.mode=\"analytic\""))
    analytic = {int(k): v
                for k, v in summary["average_visibility_by_eta"].items()}
    ok_analytic = all(
        abs(analytic[eta] - t) / t <= 1e-6 for eta, t in targets.items())

    started = time.perf_counter()
    summary, _results = run_plan(preset_plan("fig2-insets", 42))
    elapsed = time.perf_counter() - started
    mc = {int(k): v for k, v in summary["average_visibility_by_eta"].items()}
    ok_mc = all(abs(mc[eta] - t) <= 0.02 for eta, t in targets.items())
    ok_time = elapsed < 60.0
    report("C2 visibility-reproduction", ok_analytic and ok_mc and ok_time,
           "analytic=" + ",".join(f"{analytic[e]:.7f}" for e in (1, 3, 5))
           + " mc=" + ",".join(f"{mc[e]:.4f}" for e in (1, 3, 5))
           + f" runtime={elapsed:.1f}s")


def test_c3_sagnac_switching():
    rng = np.random.default_rng(2024)
    ok_r0 = sagnac_transfer(0.0) == (1.0, 0.0)
    r_pi, t_pi = sagnac_transfer(math.pi)
    ok_pi = abs(t_pi - 1.0) <= 1e-12 and abs(r_pi) <= 1e-12
    ok_complete = True
    for dphi in rng.uniform(-20 * math.pi, 20 * math.pi, 10_000):
        r, t = sagnac_transfer(float(dphi))
        if abs(r + t - 1.0) > 1e-12 or not 0.0 <= r <= 1.0:
            ok_complete = False
            break

    # Full-overlap 900 V / 180 ns storage drive: the fraction leaving the
    # coupler toward the storage line must be >= 99.999 %.
    topo = BufferTopology()
    pulse = generate_pulse_train(1000.0, 50e-9, 0.1, 1)[0]
    store_only = DriveSchedule(
        storage_retrieval_schedule(topo, pulse, 1).pulses[:1])
    res = simulate(topo, store_only, [pulse])
    to_storage = [e for e in res.event_log
                  if e.component == "coupler" and e.port == "out_storage"
                  and e.cycles == 0]
    tr = db_to_transmission(topo.traversal_loss_db())
    routed = to_storage[0].mu / (pulse.mu * tr)
    ok_routing = routed >= 0.99999
    report("C3 sagnac-switching",
           ok_r0 and ok_pi and ok_complete and ok_routing,
           f"routed={routed:.12f}")


def _mc_checks_for_preset(name: str, seed: int):
    """(label, n_triggers, expected, sampled) for every Monte Carlo peak."""
    plan = preset_plan(name, seed, "experiment.mode=\"monte-carlo\"")
    checks = []
    if plan.kind == "retrieval-sweep":
        _summary, sweep = run_plan(plan)
        for r in sweep.rows:
            checks.append((f"{name}/eta{r.eta}", sweep.n_triggers,
                           r.expected_counts, r.sampled_counts))
    else:
        _summary, results = run_plan(plan)
        for r in results:
            for port in (0, 1):
                for i in range(len(r.angles)):
                    checks.append((
                        f"{name}/eta{r.eta}/{r.basis}/a{i}/p{port}",
                        r.n_triggers, float(r.expected[port, i]),
                        float(r.counts[port, i])))
    return checks


def test_c4_statistical_soundness():
    worst = 0.0
    worst_label = ""
    n_checks = 0
    for name in ("fig2-main", "fig2-insets", "ideal-system"):
        for seed in (101, 202, 303):
            for label, n, expected, sampled in _mc_checks_for_preset(
                    name, seed):
                p = expected / n
                sigma = math.sqrt(n * p * (1.0 - p))
                dev = abs(sampled - expected)
                n_checks += 1
                if sigma == 0.0:
                    assert dev == 0.0, f"{label}: impossible count {sampled}"
                    continue
                pulls = dev / sigma
                if pulls > worst:
                    worst, worst_label = pulls, label
                assert dev <= 5.0 * sigma, \
                    f"{label}: {sampled} vs {expected} ({pulls:.2f} sigma)"
    report("C4 statistical-soundness", True,
           f"{n_checks} peak checks over 3 presets x 3 seeds; worst "
           f"{worst:.2f} sigma at {worst_label}")


def test_c5_loss_budget_fit():
    topo = BufferTopology()
    configured = topo.cycle_loss_db()

    summary, _sweep = run_plan(
        preset_plan("fig2-main", 5, "experiment.mode=\"analytic\""))
    analytic_err = abs(summary["fitted_loss_db_per_cycle"] - configured)
    ok_analytic = analytic_err <= 1e-9

    summary, _sweep = run_plan(
        preset_plan("fig2-main", 5, "experiment.n_triggers=1000000"))
    mc_err = abs(summary["fitted_loss_db_per_cycle"] - configured)
    ok_mc = mc_err <= 0.1
    report("C5 loss-budget-fit", ok_analytic and ok_mc,
           f"analytic err={analytic_err:.2e}dB mc err={mc_err:.4f}dB "
           f"(configured {configured} dB/cycle)")


def test_c6_timing_guard():
    topo = BufferTopology()
    pulse = generate_pulse_train(1000.0, 50e-9, 0.1, 1)[0]
    ok_accept = validate_schedule(simulate(
        topo, storage_retrieval_schedule(topo, pulse, 3), [pulse])) == []
    long_drive = storage_retrieval_schedule(topo, pulse, 3,
                                            drive_width=1.2e-6)
    violations = validate_schedule(simulate(topo, long_drive, [pulse]))
    ok_reject = any(v.severity == "error" and v.code == "unintended-readout"
                    for v in violations)
    report("C6 timing-guard", ok_accept and ok_reject,
           "180ns accepted; 1.2us flagged unintended-readout")


def _random_pure_state(rng):
    return PolState.from_jones(rng.normal(size=2) + 1j * rng.normal(size=2))


def test_c7_algebraic_suite():
    rng = np.random.default_rng(7777)
    n = N_PROPERTY_CASES

    for _ in range(n):  # trace preservation through a random channel chain
        s = apply_depolarizing(_random_pure_state(rng), rng.random())
        s = apply_unitary(s, hwp_matrix(rng.uniform(-4, 4)))
        assert abs(np.trace(s.rho).real - 1.0) <= 1e-12
        assert abs(np.trace(s.rho).imag) <= 1e-12

    for _ in range(n):  # positivity after an operation sequence
        s = _random_pure_state(rng)
        for _ in range(3):
            s = apply_unitary(s, hwp_matrix(rng.uniform(-4, 4)))
            s = apply_depolarizing(s, rng.random())
        assert np.linalg.eigvalsh(s.rho).min() >= -1e-12

    eye = np.eye(2)
    for _ in range(n):  # HWP involution
        m = hwp_matrix(rng.uniform(-50, 50)).m
        assert np.abs(m @ m - eye).max() <= 1e-12

    for _ in range(n):  # projection completeness on orthonormal axis pairs
        s = apply_depolarizing(_random_pure_state(rng), rng.random())
        u = hwp_matrix(rng.uniform(-4, 4)).m
        p1 = projection_probability(s, u[:, 0])
        p2 = projection_probability(s, u[:, 1])
        assert abs(p1 + p2 - 1.0) <= 1e-12

    state = _random_pure_state(np.random.default_rng(1))
    for _ in range(n):  # depolarizing composition law
        p1, p2 = rng.random(), rng.random()
        two = apply_depolarizing(apply_depolarizing(state, p1), p2)
        one = apply_depolarizing(state, 1.0 - (1.0 - p1) * (1.0 - p2))
        assert np.abs(two.rho - one.rho).max() <= 1e-12

    report("C7 algebraic-suite", True,
           f"5 properties x {n} random cases")


def _cli(*argv) -> int:
    return cli_main(list(argv))


def test_c8_determinism(tmp_path, capsys):
    identical = True
    compared = 0
    for preset, seed in (("fig2-main", 7), ("fig2-insets", 3)):
        a = tmp_path / f"{preset}-a"
        b = tmp_path / f"{preset}-b"
        assert _cli("run", "--preset", preset, "--seed", str(seed),
                    "--out", str(a)) == 0
        assert _cli("run", "--preset", preset, "--seed", str(seed),
                    "--out", str(b)) == 0
        names = json.load(open(a / "manifest.json"))["outputs"]
        for name in names:
            compared += 1
            if not filecmp.cmp(a / name, b / name, shallow=False):
                identical = False

    report("C8 determinism", identical, f"{compared} files byte-compared")
