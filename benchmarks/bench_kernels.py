"""Time the detection kernels on click streams shaped like the presets'.

Run:  python benchmarks/bench_kernels.py [n_clicks]

from the root of a checkout; the script puts its ``src`` on ``sys.path``.

The preset stream has clicks on a 1 kHz trigger grid in eight pulse slots
one storage period (5.876 us) apart, plus 100 Hz of dark clicks: almost
every gap is far above the 50 ns dead time, so the dead-time filter keeps
those clicks without a scan. The dense stream (every gap below the dead
time) is the filter's worst case: each click goes through the sequential
scan, at Python-loop speed. The preset stream is binned as it is, and
folded onto its 1 ms trigger period by ``kernels.fold`` and, as a
reference, by ``np.mod`` (the script exits 1 unless the two are equal bit
for bit); the folded times are binned as the retrieval histogram bins
them, 520 bins of 100 ns, most clicks beyond them. Then Monte Carlo click
sampling is timed end
to end, dead-time filter included, on one retrieved pulse per trigger of
a 1 kHz ``TriggerTrain`` (60k and 1e6 triggers, 100 Hz of darks), with
the ``tracemalloc`` peak of one call beside the click set it returns. A
one-slot train's fired triggers alone are then timed at
the fringe shape (60k triggers, click probability 0.025) and the
retrieval shape (1e6 triggers, 0.04): drawn by ``detection._fired``
against, as a reference, the one uniform per pulse that
``sample_clicks`` drew before; then as one bare block of gaps, once as
``floor(E / lam) + 1`` from standard exponentials (the gaps ``_fired``
draws) and once from ``Generator.geometric``. Each row also prints its
``tracemalloc`` peak; the clicks column counts fired triggers. The
script exits 1 unless ``_fired`` equals a scalar loop that draws its
gaps one at a time in the documented order. The next rows write the
preset stream as a
``time_ps,detector_id`` click file into a temporary directory: once with
``ClickSet.write_csv`` and once, as a reference, with the per-row f-string
join it replaced, which must give the same bytes; each prints the
``tracemalloc`` peak of one write. Its sorted
blocks print every row at one width and go out as laid out; the same
clicks permuted, on detector 10 and with one time in a hundred negated,
make every block mix widths, which the writer compresses through a
per-row mask, and are written the same two ways. The fringe sweep's port
share table (64 HWP angles x 24 cycle counts, both bases, on a
depolarizing topology) is timed as the one numpy stack
``experiments.share_table`` builds and, as a reference, one ``PolState`` at
a time through ``apply_unitary``, ``stored_states`` and ``pbs_project``;
the two tables must be equal to the bit. On these two rows the clicks
column counts (angle, cycle) states. ``count_triggered`` is timed on two
time-ordered click sets, the preset stream gated at one exit time and a
60k-trigger fringe setting sampled by ``sample_clicks``, against a sort
path (gather the gated triggers, sort, count distinct values). The
calibration's visibility of a Bloch length is timed at 186 lengths on the
16-angle grid, as the uncached ``__wrapped__`` function of
``experiments._bloch_visibility`` (one per retrieved pulse, built once)
and, as a reference, with one ``click_probability``
call per port and angle and the fit built anew each time; there the
clicks column counts Bloch lengths. The last rows run the analytic-deep
workload of ``perfbench/run.py`` (``ideal-system``, eta 1-24, 64 HWP
angles) in process: its sweep table is written with ``write_sweep_csv``
and, as a reference, with one f-string and one ``write`` per row (the
writer before), which must give the same bytes; the clicks column counts
rows. Then its 24 engine runs, one ``simulate`` per setting, are timed;
there the clicks column counts engine runs. The script exits 1 if any
reference differs.
"""

import filecmp
import json
import math
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qbuffer import detection, experiments, kernels
from qbuffer.components import BufferTopology, pbs_project, stored_states
from qbuffer.detection import (ClickSet, DetectorModel, TriggerTrain,
                               click_probability, count_triggered,
                               sample_clicks)
from qbuffer.config import plan_from_config, resolve_config
from qbuffer.engine import simulate, storage_retrieval_schedule
from qbuffer.experiments import (BASES, ExperimentConfig, linearized_counts,
                                 run_hwp_sweep, share_table, source_pulses,
                                 visibility, write_sweep_csv)
from qbuffer.polarization import STATE_H, apply_unitary, hwp_matrix

DEAD_TIME_S = 50e-9
STORAGE_PERIOD_S = 5.876e-6
#: Exit time and mean photon number of a fig2 setting's retrieved pulse.
EXIT_TIME_S = 4 * STORAGE_PERIOD_S
RETRIEVED_MU = 0.05


def timeit(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def preset_stream(n_clicks, rng):
    """About n_clicks sorted click times shaped like a retrieval sweep."""
    n_triggers = max(1, n_clicks // 2)
    triggers = np.arange(n_triggers) * 1e-3
    p = n_clicks / (8 * n_triggers)
    signal = [triggers[rng.random(n_triggers) < p] + slot * STORAGE_PERIOD_S
              for slot in range(1, 9)]
    acquisition = n_triggers * 1e-3
    dark = rng.random(rng.poisson(100.0 * acquisition)) * acquisition
    times = np.concatenate(signal + [dark])
    return np.sort(times + rng.normal(0.0, 50e-12, times.size))


def traced_peak(fn):
    """fn's result and the peak of the memory traced while it runs."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def fired_by_uniforms(n, lam, rng):
    """A one-slot train's fired triggers from one uniform per pulse (the
    draw before geometric gaps)."""
    return np.flatnonzero(rng.random(n) < -math.expm1(-lam))


def gap_block(n, lam, rng, geometric):
    """A one-slot train's fired triggers from one block of gaps, sized as
    ``detection._fired`` sizes its first: ``floor(E / lam) + 1`` from
    standard exponentials (what ``_fired`` draws) or
    ``Generator.geometric``."""
    p = -math.expm1(-lam)
    size = min(n, math.ceil(n * p + detection._FIRE_BLOCK_SIGMAS
                            * math.sqrt(n * p)))
    if geometric:
        gaps = rng.geometric(p, size).astype(np.float64)
    else:
        gaps = rng.standard_exponential(size)
        gaps /= lam
        np.floor(gaps, out=gaps)
        gaps += 1.0
    pos = np.cumsum(gaps, out=gaps) - 1.0
    return pos[:np.searchsorted(pos, n)]


def fired_scalar(n, lam, rng):
    """``detection._fired`` for one slot, one scalar draw at a time."""
    p, last, fired = -math.expm1(-lam), -1, []
    while last < n - 1:
        r = n - 1 - last
        size = min(r, math.ceil(r * p + detection._FIRE_BLOCK_SIGMAS
                                * math.sqrt(r * p)))
        for _ in range(size):
            gap = rng.standard_exponential() / lam
            last = last + math.floor(gap) + 1 if gap < n else n
            if last < n:
                fired.append(last)
        last = min(last, n - 1)
    return np.array(fired, dtype=np.float64)


def write_csv_by_join(clicks, path):
    """The click file as one f-string per row, joined (the old writer)."""
    ps = np.rint(clicks.times * 1e12).astype(np.int64)
    d = clicks.detector_id
    body = "".join([f"{p},{d}\n" for p in ps.tolist()])
    with open(path, "w", newline="") as fh:
        fh.write("time_ps,detector_id\n")
        fh.write(body)


def share_table_per_state(topology, angles, max_cycles):
    """The fringe sweep's share table built one PolState at a time."""
    table = {basis: [] for basis in BASES}
    for theta in angles:
        launch = apply_unitary(STATE_H, hwp_matrix(float(theta)))
        states = stored_states(topology, launch, max_cycles)
        for basis, u in BASES.items():
            table[basis].append(list(zip(*(pbs_project(s, u)
                                           for s in states))))
    return {basis: np.array(rows) for basis, rows in table.items()}


def count_by_sort(clicks, period, offset, window):
    """count_triggered's sort path: the gated triggers gathered, sorted and
    counted as distinct values."""
    t = clicks.times
    trigger = np.floor(t / period)
    rel = t - trigger * period
    hit = (rel >= offset - window / 2.0) & (rel < offset + window / 2.0)
    return experiments._n_distinct(trigger[hit])


def bloch_visibility_per_call(b, mu_ret, config, det):
    """The calibration's visibility of Bloch length ``b`` with one
    ``click_probability`` call per (port, angle) and the fit built anew
    (the evaluator before it was hoisted)."""
    angles = np.asarray(config.hwp_angles, dtype=np.float64)
    p_port0 = (1.0 + b * np.cos(4.0 * angles)) / 2.0
    vis = []
    for prob in (p_port0, 1.0 - p_port0):
        raw = np.array([config.n_triggers * click_probability(
            mu_ret * q, det, config.count_window_s) for q in prob])
        c = np.maximum(linearized_counts(raw, config.n_triggers, det,
                                         config.count_window_s), 0.0)
        if angles.size < experiments.FIT_MIN_ANGLES:
            vis.append(visibility(float(c.max()), float(c.min())))
            continue
        design = np.column_stack([np.ones_like(angles),
                                  np.cos(4.0 * angles), np.sin(4.0 * angles)])
        beta, *_ = np.linalg.lstsq(design, c, rcond=None)
        vis.append(min(1.0, float(math.hypot(beta[1], beta[2]))
                       / float(beta[0])))
    return float(np.mean(vis))


def write_sweep_per_row(results, path):
    """The sweep table with one f-string and one write per row, each count
    read as its own numpy scalar (the writer before)."""
    with open(path, "w", newline="") as fh:
        fh.write("eta,basis,angle_rad,port,counts,normalized_counts\n")
        for r in results:
            raw = r.counts if np.any(r.counts) else r.expected
            for i, (angle, n0, n1) in enumerate(r.curve):
                for port, norm in ((0, n0), (1, n1)):
                    fh.write(f"{r.eta},{r.basis},{angle!r},{port},"
                             f"{float(raw[port, i])!r},{norm!r}\n")


def analytic_deep_plan():
    """The run plan of perfbench's analytic-deep workload."""
    return plan_from_config(resolve_config(preset="ideal-system", overrides=(
        "experiment.eta_list=" + json.dumps(list(range(1, 25))),
        "experiment.hwp_angles="
        + json.dumps([math.pi / 2.0 * i / 63 for i in range(64)]))))


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    rng = np.random.default_rng(42)
    times = preset_stream(n, rng)
    dense = np.cumsum(rng.uniform(0.0, DEAD_TIME_S, 200_000))

    print(f"{'kernel / stream':52s} {'clicks':>9s} {'kept':>7s} {'time':>10s}")
    for label, stream in (("dead_time_filter, preset stream", times),
                          ("dead_time_filter, dense worst case", dense)):
        kept = kernels.dead_time_filter(stream, DEAD_TIME_S).mean()
        dt = timeit(lambda s=stream: kernels.dead_time_filter(s, DEAD_TIME_S))
        print(f"{label:52s} {stream.size:9d} {kept:7.1%} {dt * 1e3:8.2f}ms")
    dt = timeit(lambda: kernels.bin_counts(times, 0.0, 1e-4, 100_000))
    print(f"{'bin_counts (1e5 bins), preset stream':52s} {times.size:9d} "
          f"{'':7s} {dt * 1e3:8.2f}ms")
    folded = kernels.fold(times, 1e-3)
    if folded.view(np.int64).tolist() != \
            np.mod(times, 1e-3).view(np.int64).tolist():
        sys.exit("kernels.fold and np.mod differ on the preset stream")
    for label, fn in (
            ("fold onto the trigger period, preset stream",
             lambda: kernels.fold(times, 1e-3)),
            ("reference: np.mod, preset stream", lambda: np.mod(times, 1e-3)),
            ("bin_counts (520 bins), folded preset stream",
             lambda: kernels.bin_counts(folded, 0.0, 100e-9, 520))):
        dt = timeit(fn)
        print(f"{label:52s} {times.size:9d} {'':7s} {dt * 1e3:8.2f}ms")

    det = DetectorModel(dead_time_s=DEAD_TIME_S)
    for n_triggers in (60_000, 1_000_000):
        train = TriggerTrain(1e-3, n_triggers, (EXIT_TIME_S,),
                             (RETRIEVED_MU,))
        acquisition = n_triggers * 1e-3
        dt = timeit(lambda: sample_clicks(train, det, acquisition, 1))
        clicks, peak = traced_peak(
            lambda: sample_clicks(train, det, acquisition, 1))
        print(f"{'sample_clicks, TriggerTrain':52s} {n_triggers:9d} "
              f"{'':7s} {dt * 1e3:8.2f}ms  traced peak {peak / 1e6:.2f} MB"
              f" ({clicks.times.nbytes / 1e6:.2f} MB of click times)")

    for shape, n_triggers, p_click in (("fringe", 60_000, 0.025),
                                       ("retrieval", 1_000_000, 0.04)):
        lam = -math.log1p(-p_click)
        for label, draw in (
                ("_fired, one slot",
                 lambda rng: detection._fired(n_triggers, np.array([lam]),
                                              rng)[0]),
                ("reference: one uniform per pulse",
                 lambda rng: fired_by_uniforms(n_triggers, lam, rng)),
                ("gap block, floor(E / lam) + 1",
                 lambda rng: gap_block(n_triggers, lam, rng, False)),
                ("gap block, Generator.geometric",
                 lambda rng: gap_block(n_triggers, lam, rng, True))):
            fired, peak = traced_peak(
                lambda d=draw: d(np.random.default_rng(1)))
            dt = timeit(lambda d=draw: d(np.random.default_rng(1)),
                        repeats=20)
            label = f"{label}, {shape}"
            print(f"{label:52s} {fired.size:9d} {'':7s} {dt * 1e3:8.2f}ms"
                  f"  traced peak {peak / 1e6:.2f} MB")
        got = detection._fired(n_triggers, np.array([lam]),
                               np.random.default_rng(2))
        if not (np.array_equal(got[0], fired_scalar(
                n_triggers, lam, np.random.default_rng(2)))
                and not got[1].any()):
            sys.exit(f"_fired and the scalar reference differ at the "
                     f"{shape} shape")

    mixed = rng.permutation(times)
    mixed[rng.random(mixed.size) < 0.01] *= -1
    for stream, clicks in (
            ("preset stream", ClickSet(times, 0, 1e3)),
            ("mixed widths", ClickSet(mixed, 10, 1e3))):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for label, write in (("ClickSet.write_csv", ClickSet.write_csv),
                                 ("reference: f-string join",
                                  write_csv_by_join)):
                paths.append(os.path.join(tmp, f"clicks{len(paths)}.csv"))
                dt = timeit(lambda w=write, p=paths[-1]: w(clicks, p),
                            repeats=3)
                _, peak = traced_peak(
                    lambda w=write, p=paths[-1]: w(clicks, p))
                label = f"{label}, {stream}"
                print(f"{label:52s} {len(clicks):9d} {'':7s} "
                      f"{dt * 1e3:8.2f}ms  traced peak {peak / 1e6:.2f} MB")
            if not filecmp.cmp(*paths, shallow=False):
                sys.exit(f"ClickSet.write_csv and the f-string join differ "
                         f"on the {stream}")

    topology = BufferTopology(depol_per_cycle=(0.02, 0.01, 0.005),
                              prep_error_depol=0.03)
    angles = np.linspace(0.0, math.pi / 2.0, 64)
    max_cycles = 23
    tables = []
    for label, build in (
            ("share table, 64 angles x 24 cycle counts",
             lambda: share_table(topology, angles, max_cycles, BASES)),
            ("reference: per-state PolState chain",
             lambda: share_table_per_state(topology, angles, max_cycles))):
        tables.append(build())
        dt = timeit(build, repeats=3)
        print(f"{label:52s} {angles.size * (max_cycles + 1):9d} {'':7s} "
              f"{dt * 1e3:8.2f}ms")
    if not all(np.array_equal(tables[0][b], tables[1][b]) for b in BASES):
        sys.exit("the share table and the per-state chain differ")

    fringe = sample_clicks(TriggerTrain(1e-3, 60_000, (EXIT_TIME_S,), (0.25,)),
                           det, 60.0, 1)
    for stream, clicks in (
            ("preset stream", ClickSet(times, 0, 1e3)),
            ("fringe setting", fringe)):
        counts = []
        for label, count in (
                ("count_triggered, time-ordered", count_triggered),
                ("reference: sort path", count_by_sort)):
            gate = (clicks, 1e-3, EXIT_TIME_S, 100e-9)
            counts.append(count(*gate))
            dt = timeit(lambda c=count, g=gate: c(*g), repeats=20)
            label = f"{label}, {stream}"
            print(f"{label:52s} {len(clicks):9d} {'':7s} {dt * 1e3:8.2f}ms")
        if counts[0] != counts[1]:
            sys.exit(f"count_triggered and the sort path differ on the "
                     f"{stream}")

    config = ExperimentConfig(eta_list=(1, 3, 5))
    lengths = np.linspace(0.0, 1.0, 186).tolist()
    evaluate = experiments._bloch_visibility(RETRIEVED_MU, config,
                                             det).__wrapped__
    curves = []
    for label, curve in (
            ("calibration evaluator, 16 angles",
             lambda: [evaluate(b) for b in lengths]),
            ("reference: click_probability per point",
             lambda: [bloch_visibility_per_call(b, RETRIEVED_MU, config, det)
                      for b in lengths])):
        curves.append(curve())
        dt = timeit(curve, repeats=3)
        print(f"{label:52s} {len(lengths):9d} {'':7s} {dt * 1e3:8.2f}ms")
    if curves[0] != curves[1]:
        sys.exit("the calibration evaluator and the per-call reference "
                 "differ")

    plan = analytic_deep_plan()
    results = run_hwp_sweep(plan.experiment, plan.topology, plan.detector,
                            plan.limits)
    n_rows = 2 * sum(len(r.curve) for r in results)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for label, write in (
                ("write_sweep_csv, analytic-deep", write_sweep_csv),
                ("reference: one write per row", write_sweep_per_row)):
            paths.append(os.path.join(tmp, f"sweep{len(paths)}.csv"))
            dt = timeit(lambda w=write, p=paths[-1]: w(results, p),
                        repeats=7)
            print(f"{label:52s} {n_rows:9d} {'':7s} {dt * 1e3:8.2f}ms")
        if not filecmp.cmp(*paths, shallow=False):
            sys.exit("write_sweep_csv and the per-row writer differ")
    # Each setting's schedule, built as experiments.propagate builds it.
    exp = plan.experiment
    inputs = source_pulses(exp)
    runs = [storage_retrieval_schedule(
        plan.topology, inputs[0], eta - 1, drive_width=exp.drive_width_s,
        guard=exp.drive_guard_s) for eta in exp.eta_list]
    dt = timeit(lambda: [simulate(plan.topology, sched, inputs, plan.limits)
                         for sched in runs], repeats=7)
    print(f"{'simulate, analytic-deep settings':52s} {len(runs):9d} "
          f"{'':7s} {dt * 1e3:8.2f}ms")


if __name__ == "__main__":
    main()
