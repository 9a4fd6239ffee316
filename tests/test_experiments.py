import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbuffer import cli, engine, experiments, kernels
from qbuffer.components import (
    BufferTopology,
    db_to_transmission,
    generate_pulse_train,
    pbs_project,
    stored_states,
)
from qbuffer.detection import (
    ClickSet,
    DetectorModel,
    Histogram,
    click_probability,
    histogram,
    sample_clicks,
)
from qbuffer.engine import simulate, storage_period, storage_retrieval_schedule
from qbuffer.errors import CalibrationError, InputDomainError, ScheduleError
from qbuffer.experiments import (
    BASES,
    Calibration,
    ExperimentConfig,
    apply_calibration,
    average_visibility_by_eta,
    calibrate,
    default_hwp_grid,
    fit_decay,
    linearized_counts,
    run_hwp_sweep,
    run_retrieval_sweep,
    share_table,
    sweep_rows,
    visibility,
    write_sweep_csv,
)
from qbuffer.polarization import (
    STATE_D,
    STATE_H,
    JonesOp,
    PolState,
    apply_unitary,
    check_density,
    hwp_matrix,
)

DET = DetectorModel()
QUIET = DetectorModel(dark_rate_hz=0.0, jitter_sigma_s=0.0)
PAPER_TARGETS = {1: 0.955, 3: 0.953, 5: 0.835}


def analytic_config(**kwargs):
    defaults = dict(preset="test", eta_list=(1, 3, 5), mode="analytic")
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def array_holders():
    """Two equal-valued instances of each dataclass that holds arrays."""
    t = np.array([0.1, 0.2])
    counts = np.array([[3.0, 1.0], [1.0, 3.0]])

    def vis(c):
        return experiments.VisibilityResult(
            1, "computational", 0.5, (0.5, 0.5), (0.0, 1.0), [], c,
            c.copy(), 4)

    return {
        "ClickSet": (ClickSet(t, 0, 1.0), ClickSet(t.copy(), 0, 1.0)),
        "Histogram": (Histogram(0.0, 0.1, [1, 2]),
                      Histogram(0.0, 0.1, [1, 2])),
        "PolState": (STATE_H, PolState(STATE_H.rho)),
        "JonesOp": (JonesOp.identity(), JonesOp(np.eye(2))),
        "VisibilityResult": (vis(counts), vis(counts.copy())),
    }


@pytest.mark.parametrize("name", sorted(array_holders()))
def test_array_dataclasses_compare_and_hash_by_identity(name):
    # A generated __eq__ compares the fields as a tuple, so two arrays
    # meet in a bool() that raises; these classes compare by identity.
    a, b = array_holders()[name]
    assert a == a and not (a == b) and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


class TestVisibility:
    def test_equal_counts(self):
        assert visibility(123.0, 123.0) == 0.0

    def test_perfect_contrast(self):
        assert visibility(42.0, 0.0) == 1.0

    def test_reference_value(self):
        # Oracle: direct evaluation of the ratio.
        v = visibility(1000.0, 23.03)
        assert v == pytest.approx((1000.0 - 23.03) / (1000.0 + 23.03),
                                  rel=1e-12)
        assert v == pytest.approx(0.955, abs=5e-4)

    def test_undefined_for_zeros(self):
        with pytest.raises(InputDomainError):
            visibility(0.0, 0.0)

    def test_ordering_enforced(self):
        with pytest.raises(InputDomainError):
            visibility(1.0, 2.0)

    @pytest.mark.parametrize("c_max, c_min", [
        (math.inf, 1.0), (math.inf, math.inf), (math.nan, 1.0),
        (1.0, math.nan), (1.0, -0.5), ("a", "b"), (True, False)])
    def test_domain(self, c_max, c_min):
        with pytest.raises(InputDomainError):
            visibility(c_max, c_min)

    def test_scale_invariance(self):
        angles = default_hwp_grid()
        base = 500.0 * (1 + 0.8 * np.cos(4 * np.asarray(angles))) / 2
        design = experiments._fringe_design(np.asarray(angles))
        v1 = experiments._curve_visibility(design, base)
        v2 = experiments._curve_visibility(design, 37.0 * base)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_raw_extrema_below_fit_threshold(self):
        angles = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8,
                  math.pi / 2)
        counts = np.array([100.0, 50.0, 10.0, 50.0, 100.0])
        design = experiments._fringe_design(np.asarray(angles))
        assert experiments._curve_visibility(design, counts) == \
            pytest.approx(visibility(100.0, 10.0), rel=1e-12)


class TestLinearizedCounts:
    def test_inverts_saturation_and_darks(self):
        n = 100_000
        window = 1e-7
        mu_eff = 0.083
        p = 1 - math.exp(-(mu_eff + DET.dark_rate_hz * window))
        lin = linearized_counts([n * p], n, DET, window)
        assert lin[0] == pytest.approx(n * mu_eff, rel=1e-12)

    @pytest.mark.parametrize("n", [0, -3, 2.5, math.nan, True, "10", None])
    def test_trigger_count_rejected(self, n):
        with pytest.raises(InputDomainError) as info:
            linearized_counts([1.0], n, DET, 1e-7)
        assert info.value.field == "n_triggers"

    @pytest.mark.parametrize("window", [math.nan, -1.0, math.inf, None])
    def test_window_rejected(self, window):
        with pytest.raises(InputDomainError) as info:
            linearized_counts([1.0], 10, DET, window)
        assert info.value.field == "window"

    @pytest.mark.parametrize("counts", [
        [math.nan], [math.inf], [-math.inf], [-3.0], [1.0, -1e-300], ["a"],
        np.full((2, 3, 2, 4), math.nan)])
    def test_counts_rejected(self, counts):
        with pytest.raises(InputDomainError) as info:
            linearized_counts(counts, 10, DET, 1e-7)
        assert info.value.field == "counts"


class TestDefaultHwpGrid:
    def test_fewest_angles_span_one_fringe_period(self):
        grid = experiments.default_hwp_grid(4)
        assert (len(grid), grid[0], grid[-1]) == (4, 0.0, math.pi / 2)

    @pytest.mark.parametrize("n", [3, 0, -1, 2.5, math.inf, True, "16"])
    def test_rejected(self, n):
        with pytest.raises(InputDomainError) as info:
            experiments.default_hwp_grid(n)
        assert info.value.field == "n"


class TestFitDecay:
    def test_synthetic_geometric(self):
        # Oracle: counts generated from the decay law itself.
        counts = [(eta, 1000.0 * 10 ** (-0.15 * (eta - 1)))
                  for eta in (1, 2, 3)]
        fit = fit_decay(counts)
        assert fit.loss_db_per_cycle == pytest.approx(1.5, abs=1e-9)
        assert fit.residual_db < 1e-9

    def test_constant_counts(self):
        fit = fit_decay([(1, 500.0), (2, 500.0), (3, 500.0)])
        assert fit.loss_db_per_cycle == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_positive_peaks(self):
        with pytest.raises(InputDomainError):
            fit_decay([(1, 100.0), (2, 0.0)])

    def test_nonpositive_points_dropped(self):
        fit = fit_decay([(1, 1000.0), (2, 0.0), (3, 10.0)])
        assert fit.n_points == 2


class TestRetrievalSweep:
    def test_eight_peaks_with_period_spacing(self):
        topo = BufferTopology()
        cfg = ExperimentConfig(preset="t", mode="analytic")
        sweep = run_retrieval_sweep(cfg, topo, DET)
        assert len(sweep.rows) == 8
        dt = storage_period(topo)
        exits = [r.exit_time_s for r in sweep.rows]
        for k, (a, b) in enumerate(zip(exits, exits[1:])):
            assert abs(b - a - dt) < 1e-9
        assert sweep.span_s == pytest.approx(8 * dt, rel=1e-12)
        assert [r.retrieval_time_s for r in sweep.rows] == pytest.approx(
            [eta * dt for eta in range(1, 9)])

    def test_linear_counts_follow_cycle_loss_exactly(self):
        topo = BufferTopology()
        cfg = ExperimentConfig(preset="t", mode="analytic")
        sweep = run_retrieval_sweep(cfg, topo, DET)
        r = db_to_transmission(topo.cycle_loss_db())
        lin = [row.expected_counts_linear for row in sweep.rows]
        for a, b in zip(lin, lin[1:]):
            assert b / a == pytest.approx(r, rel=1e-12)
        fit = fit_decay([(row.eta, row.expected_counts_linear)
                         for row in sweep.rows])
        assert fit.loss_db_per_cycle == pytest.approx(
            topo.cycle_loss_db(), abs=1e-9)

    def test_configured_loss_of_1p5_db(self):
        topo = BufferTopology(modulator_loss_db=1.26)
        assert topo.cycle_loss_db() == pytest.approx(1.5, rel=1e-12)
        cfg = ExperimentConfig(preset="t", eta_list=(1, 2, 3),
                               mode="analytic")
        sweep = run_retrieval_sweep(cfg, topo, DET)
        lin = [row.expected_counts_linear for row in sweep.rows]
        assert lin[1] / lin[0] == pytest.approx(10 ** (-0.15), rel=1e-12)
        assert lin[1] / lin[0] == pytest.approx(0.70795, abs=1e-5)

    def test_direct_pass_reduces_to_expected_counts(self):
        topo = BufferTopology()
        cfg = ExperimentConfig(preset="t", eta_list=(1,), mode="analytic")
        sweep = run_retrieval_sweep(cfg, topo, DET)
        direct_pass_db = (topo.element_loss_db("input_path")
                          + topo.traversal_loss_db()
                          + topo.element_loss_db("circulator")
                          + topo.element_loss_db("output_path"))
        mu_direct = 0.1 * db_to_transmission(direct_pass_db)
        oracle = cfg.n_triggers * (
            1.0 - math.exp(-mu_direct * DET.efficiency)
            * math.exp(-DET.dark_rate_hz * cfg.count_window_s))
        assert sweep.rows[0].expected_counts == pytest.approx(oracle,
                                                              rel=1e-12)

    def test_unsafe_drive_aborts_with_diagnostics(self):
        topo = BufferTopology()
        cfg = ExperimentConfig(preset="t", eta_list=(2,), mode="analytic",
                               drive_width_s=1.2e-6)
        with pytest.raises(ScheduleError) as err:
            run_retrieval_sweep(cfg, topo, DET)
        assert any(v.code == "unintended-readout"
                   for v in err.value.violations)

    def test_monte_carlo_counts_near_expectation(self):
        topo = BufferTopology()
        cfg = ExperimentConfig(preset="t", n_triggers=20_000, seed=17)
        sweep = run_retrieval_sweep(cfg, topo, DET)
        for row in sweep.rows:
            p = row.expected_counts / cfg.n_triggers
            sigma = math.sqrt(cfg.n_triggers * p * (1 - p))
            assert abs(row.sampled_counts - row.expected_counts) < 5 * sigma
        assert sweep.histogram is not None
        assert sweep.histogram.total >= sum(
            r.sampled_counts for r in sweep.rows)


def merge_and_sort_histogram(clicksets, period, n_bins):
    """The fold as it was: a stable merge of all click sets by time, then a
    sort of the folded times."""
    times = np.concatenate([c.times for c in clicksets])
    order = np.argsort(times, kind="stable")
    merged = ClickSet(times[order], 0,
                      max(c.acquisition_s for c in clicksets))
    offsets = np.sort(np.mod(merged.times, period))
    folded = ClickSet(offsets, 0, period)
    return histogram(folded, 0.0, experiments.HIST_BIN_S, n_bins)


@st.composite
def click_dicts(draw):
    period = draw(st.sampled_from([1e-3, 1e-6, 3.7e-6]))
    time = st.one_of(
        st.floats(-2 * period, 40 * period),
        # period multiples fold onto bin edges; negative jitter wraps
        st.integers(-3, 40).map(lambda k: k * period),
        st.sampled_from([-1e-12, -0.0, 5e-8, 1e-7, period - 1e-12]),
    )
    sets = draw(st.lists(st.lists(time, max_size=30), min_size=1,
                         max_size=8))
    clicksets = [ClickSet(np.array(ts, dtype=np.float64), i, 40 * period)
                 for i, ts in enumerate(sets)]
    n_bins = draw(st.integers(1, int(period / experiments.HIST_BIN_S) + 2))
    return clicksets, period, n_bins


#: Block lengths patched into ``kernels._BLOCK_CLICKS``: tiny ones and a
#: prime put block edges everywhere in a short set; the last is the real one.
BLOCKS = (1, 2, 3, 7, kernels._BLOCK_CLICKS)


class TestFoldedHistogram:
    @settings(max_examples=300)
    @given(click_dicts(), st.sampled_from(BLOCKS))
    def test_equals_merge_and_sort(self, case, block):
        clicksets, period, n_bins = case
        with mock.patch.object(kernels, "_BLOCK_CLICKS", block):
            got = experiments._folded_histogram(clicksets, period, n_bins)
        want = merge_and_sort_histogram(clicksets, period, n_bins)
        assert got.counts.tolist() == want.counts.tolist()
        assert got.overflow == want.overflow
        assert (got.t0, got.bin_width) == (want.t0, want.bin_width)

    @pytest.mark.parametrize("block", BLOCKS[:-1])
    def test_block_edges(self, block):
        # Sets of 0, 1, B - 1, B, B + 1 and 2B + 3 clicks, each click in
        # its own bin of the folded period, and one past the bins.
        period = 1e-4
        lengths = sorted({0, 1, block - 1, block, block + 1, 2 * block + 3})
        clicksets = [ClickSet((np.arange(n) + 0.5) * 1e-6 + i * period, 0,
                              1.0)
                     for i, n in enumerate(lengths)]
        with mock.patch.object(kernels, "_BLOCK_CLICKS", block):
            got = experiments._folded_histogram(clicksets, period, 2 * block)
        want = merge_and_sort_histogram(clicksets, period, 2 * block)
        assert got.counts.tolist() == want.counts.tolist()
        assert got.overflow == want.overflow
        assert got.total == sum(lengths)

    def test_peak_memory_is_below_the_inputs(self):
        # numpy reports its buffers to tracemalloc. Concatenating every set
        # before binning peaks at about five times their click times, and
        # folding one whole set at a time at a few times one set's; folding
        # block by block peaks at one O(block) bound whatever the sets.
        rng = np.random.default_rng(2)
        for n in (20_000, 150_000):
            clicksets = [ClickSet(rng.random(n), i, 1.0)
                         for i in range(8)]
            experiments._folded_histogram(clicksets[:1], 1e-3, 10_000)
            tracemalloc.start()
            try:
                live, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                experiments._folded_histogram(clicksets, 1e-3, 10_000)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - live < 128 * kernels._BLOCK_CLICKS, n

    def test_sweep_histogram_equals_merge_and_sort(self):
        cfg = ExperimentConfig(preset="t", n_triggers=5000, seed=3)
        sets = {}
        sweep = run_retrieval_sweep(cfg, BufferTopology(), DET,
                                    on_clicks=sets.__setitem__)
        want = merge_and_sort_histogram(
            list(sets.values()), 1.0 / cfg.rep_rate_hz,
            sweep.histogram.counts.size)
        assert sweep.histogram.counts.tolist() == want.counts.tolist()
        assert sweep.histogram.overflow == want.overflow


class TestStreamedSweep:
    """The retrieval sweep hands each setting's clicks to ``on_clicks`` and
    keeps none of them."""

    def test_on_clicks_sees_each_eta_once_in_order(self):
        cfg = ExperimentConfig(preset="t", n_triggers=2000, seed=4,
                               eta_list=(3, 1, 8, 2))
        seen = []
        sweep = run_retrieval_sweep(
            cfg, BufferTopology(), DET,
            on_clicks=lambda eta, cs: seen.append((eta, len(cs))))
        assert [eta for eta, _ in seen] == [3, 1, 8, 2]
        assert all(n > 0 for _, n in seen)
        assert [r.eta for r in sweep.rows] == [3, 1, 8, 2]

    def test_sets_equal_a_direct_sample(self):
        cfg = ExperimentConfig(preset="t", n_triggers=2000, seed=4,
                               eta_list=(2, 5))
        sets = {}
        sweep = run_retrieval_sweep(cfg, BufferTopology(), DET,
                                    on_clicks=sets.__setitem__)
        for eta, sim in sweep.sim_results.items():
            want = sample_clicks(experiments._trigger_train(sim.retrieved,
                                                            cfg),
                                 DET, cfg.acquisition_s,
                                 experiments._substream(cfg.seed, 0, eta))
            assert sets[eta].times.tolist() == want.times.tolist()

    @settings(max_examples=200)
    @given(st.integers(0, 2 ** 70) | st.sampled_from([0, 2 ** 32 - 1,
                                                      2 ** 32, 2 ** 64]),
           st.lists(st.integers(0, 2 ** 40), max_size=5))
    def test_substream_is_the_seed_list_stream(self, seed, key):
        # Its state is that of SeedSequence([seed, *key]), also for
        # integers of more than one 32-bit word.
        got = experiments._substream(seed, *key).generate_state(8)
        want = np.random.SeedSequence([seed, *key]).generate_state(8)
        assert got.tolist() == want.tolist()

    def test_analytic_mode_calls_nothing(self):
        calls = []
        run_retrieval_sweep(analytic_config(), BufferTopology(), DET,
                            on_clicks=lambda *a: calls.append(a))
        assert calls == []

    def test_later_setting_fails_before_any_clicks(self):
        # Exit times grow by one storage period (about 5.9 us) per setting;
        # a 25 us trigger period holds eta = 1..4 but not eta = 5.
        cfg = ExperimentConfig(preset="t", n_triggers=200, rep_rate_hz=4e4)
        calls = []
        with pytest.raises(InputDomainError, match="eta=5"):
            run_retrieval_sweep(cfg, BufferTopology(), DET,
                                on_clicks=lambda *a: calls.append(a))
        assert calls == []

    def test_peak_memory_is_below_the_click_sets(self):
        # numpy reports its buffers to tracemalloc. A sweep that kept every
        # setting's clicks would peak above their summed times; a streamed
        # one holds one setting's at a time. The signal draw holds gaps for
        # the pulses that fire, so a high dark rate makes each setting's
        # clicks, mostly dark ones, the bulk of what it allocates.
        cfg = ExperimentConfig(preset="t", n_triggers=2000, seed=6)
        det = DetectorModel(dark_rate_hz=1e5)
        nbytes = []
        tracemalloc.start()
        try:
            live, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            run_retrieval_sweep(
                cfg, BufferTopology(), det,
                on_clicks=lambda eta, cs: nbytes.append(cs.times.nbytes))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(nbytes) == 8
        assert peak - live < sum(nbytes)


class TestExperimentConfigDomain:
    @pytest.mark.parametrize("field,value", [
        ("rep_rate_hz", math.nan), ("rep_rate_hz", math.inf),
        ("rep_rate_hz", 0.0), ("mu_source", math.nan),
        ("mu_source", math.inf), ("mu_source", -0.1),
        ("count_window_s", math.inf), ("count_window_s", math.nan),
        ("count_window_s", 0.0), ("drive_width_s", -1.0),
        ("drive_width_s", 0.0), ("drive_width_s", math.nan),
        ("drive_width_s", math.inf), ("pulse_width_s", math.nan),
        ("pulse_width_s", math.inf), ("pulse_width_s", -50e-9),
        ("drive_guard_s", math.nan), ("drive_guard_s", math.inf),
        ("drive_guard_s", -1e-9)])
    def test_rejected(self, field, value):
        with pytest.raises(InputDomainError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, 2.5, math.nan, math.inf])
    def test_trigger_count_rejected(self, value):
        with pytest.raises(InputDomainError, match="trigger count"):
            ExperimentConfig(n_triggers=value)

    @pytest.mark.parametrize("eta_list", [(1.5, 2.9), (1, 2.0), (0,), ()])
    def test_eta_list_rejected(self, eta_list):
        with pytest.raises(InputDomainError, match="eta"):
            ExperimentConfig(eta_list=eta_list)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf,
                                       1e308, -5e307])
    def test_hwp_angle_rejected(self, angle):
        with pytest.raises(InputDomainError, match="HWP"):
            ExperimentConfig(hwp_angles=(0.0, 0.5, 1.0, 1.6, angle))

    @pytest.mark.parametrize("seed", [math.nan, 7.0, 2.5, "7", -1])
    def test_seed_rejected(self, seed):
        with pytest.raises(InputDomainError, match="seed"):
            ExperimentConfig(seed=seed)

    def test_edges_accepted(self):
        cfg = ExperimentConfig(mu_source=0.0, drive_guard_s=0.0,
                               n_triggers=np.int64(1), seed=np.int64(0),
                               eta_list=(np.int64(2),),
                               hwp_angles=(4e307, -4e307))
        assert cfg.acquisition_s == pytest.approx(1e-3)
        assert cfg.eta_list == (2,) and type(cfg.eta_list[0]) is int


class TestHwpSweep:
    def test_needs_angle_coverage(self):
        topo = BufferTopology()
        with pytest.raises(InputDomainError):
            cfg = analytic_config(hwp_angles=(0.0, 0.2, 0.4, 0.6))
            run_hwp_sweep(cfg, topo, QUIET)
        with pytest.raises(InputDomainError):
            cfg = analytic_config(hwp_angles=(0.0, math.pi / 2))
            run_hwp_sweep(cfg, topo, QUIET)

    def test_ideal_system_reaches_unit_visibility(self):
        topo = BufferTopology()
        results = run_hwp_sweep(analytic_config(), topo, QUIET)
        assert len(results) == 6  # three settings, two bases
        for r in results:
            assert r.visibility == pytest.approx(1.0, abs=1e-9)

    def test_ideal_curves_are_malus_shaped(self):
        topo = BufferTopology()
        (r,) = run_hwp_sweep(analytic_config(eta_list=(1,),
                                             basis="computational"),
                             topo, QUIET)
        for angle, n0, n1 in r.curve:
            assert n0 == pytest.approx(math.cos(2 * angle) ** 2, abs=1e-9)
            assert n1 == pytest.approx(math.sin(2 * angle) ** 2, abs=1e-9)

    def test_port_curves_complementary(self):
        topo = BufferTopology()
        results = run_hwp_sweep(analytic_config(), topo, QUIET)
        for r in results:
            for _, n0, n1 in r.curve:
                assert n0 + n1 == pytest.approx(1.0, abs=1e-9)

    def test_basis_symmetry_with_depolarization(self):
        topo = BufferTopology(prep_error_depol=0.05, depol_per_cycle=0.02)
        results = run_hwp_sweep(analytic_config(), topo, QUIET)
        by_eta = {}
        for r in results:
            by_eta.setdefault(r.eta, {})[r.basis] = r.visibility
        for eta, pair in by_eta.items():
            assert pair["computational"] == pytest.approx(
                pair["logical"], abs=1e-12)

    def test_visibility_equals_net_bloch_shrink(self):
        topo = BufferTopology(prep_error_depol=0.045,
                              depol_per_cycle=0.03)
        results = run_hwp_sweep(analytic_config(basis="computational"),
                                topo, QUIET)
        for r in results:
            expected = 0.955 * 0.97 ** (r.eta - 1)
            assert r.visibility == pytest.approx(expected, rel=1e-9)

    def test_average_by_eta(self):
        topo = BufferTopology()
        results = run_hwp_sweep(analytic_config(eta_list=(1, 3)), topo,
                                QUIET)
        avg = average_visibility_by_eta(results)
        assert set(avg) == {1, 3}
        assert avg[1] == pytest.approx(1.0, abs=1e-9)


class TestPortDetectors:
    """Both ports are counted with the one detector model."""

    DETS = (DetectorModel(efficiency=0.9, dark_rate_hz=100.0),
            DetectorModel(efficiency=0.37, dark_rate_hz=5e3))

    def test_expected_counts_use_each_ports_detector(self):
        cfg = analytic_config(hwp_angles=default_hwp_grid(8))
        topo = BufferTopology(depol_per_cycle=0.01)
        runs = {}
        results = run_hwp_sweep(cfg, topo, self.DETS[0], runs=runs)
        other = run_hwp_sweep(cfg, topo, self.DETS[1], runs=runs)
        max_cycles = max(p.cycles for _, sim, _ in runs.values()
                         for p in sim.retrieved)
        table = share_table(topo, cfg.hwp_angles, max_cycles, cfg.bases)
        assert {r.basis for r in results} == set(cfg.bases) == set(BASES)
        for det, sweep in zip(self.DETS, (results, other)):
            for r in sweep:
                main = runs[r.eta][0]
                shares = table[r.basis][:, :, main.cycles]
                for i, port in np.ndindex(len(r.angles), 2):
                    assert r.expected[port, i] == cfg.n_triggers * \
                        click_probability(main.mu * float(shares[i, port]),
                                          det, cfg.count_window_s)
        for r, s in zip(results, other):
            assert not np.array_equal(r.expected, s.expected)

    def test_monte_carlo_samples_each_port_with_its_detector(
            self, monkeypatch):
        seen = []

        def recording(train, det, *args, detector_id=0, _run=sample_clicks):
            seen.append((detector_id, det))
            return _run(train, det, *args, detector_id=detector_id)

        monkeypatch.setattr(experiments, "sample_clicks", recording)
        cfg = analytic_config(mode="monte-carlo", n_triggers=2000,
                              eta_list=(1,), hwp_angles=default_hwp_grid(8))
        run_hwp_sweep(cfg, BufferTopology(), self.DETS[1])
        assert len(seen) == 2 * 8 * 2  # bases x angles x ports
        assert all(det is self.DETS[1] for _, det in seen)
        assert [port for port, _ in seen] == [0, 1] * 2 * 8

    @pytest.mark.parametrize("det", [DETS, list(DETS), None, "det"],
                             ids=["pair", "list", "none", "str"])
    def test_anything_but_one_model_rejected(self, det):
        with pytest.raises(InputDomainError) as info:
            run_hwp_sweep(analytic_config(), BufferTopology(), det)
        assert info.value.field == "det"


def closed_form_bloch(prep, table, cycles):
    """(1 - prep) * prod(1 - p_k) over ``cycles`` cycles of a per-cycle
    table whose last entry repeats."""
    return (1.0 - prep) * math.prod(
        1.0 - table[min(k, len(table)) - 1] for k in range(1, cycles + 1))


class TestReplayedSweep:
    """The fringe sweep propagates each setting once and projects the
    stored-state table of each HWP angle onto the retrieved records."""

    def test_expected_counts_match_closed_form(self):
        # Oracle: an H launch through a HWP at theta, shrunk to Bloch length
        # b_k = (1 - prep) * prod(1 - p_j) after k cycles, sends the shares
        # (1 +- b_k cos 4 theta) / 2 of the retrieved mu to the two ports.
        # A 40 ns drive switches only part of the pulse.
        prep, table, drive_width = 0.05, (0.1, 0.02, 0.3), 40e-9
        topo = BufferTopology(prep_error_depol=prep, depol_per_cycle=table)
        cfg = analytic_config(eta_list=(1, 2, 5), basis="computational",
                              drive_width_s=drive_width)
        results = run_hwp_sweep(cfg, topo, DET)
        assert [r.eta for r in results] == [1, 2, 5]
        angles = np.asarray(cfg.hwp_angles)
        for r in results:
            k = r.eta - 1
            source = generate_pulse_train(cfg.rep_rate_hz, cfg.pulse_width_s,
                                          cfg.mu_source, 1)
            sched = storage_retrieval_schedule(
                topo, source[0], k, drive_width=drive_width,
                guard=cfg.drive_guard_s)
            (main,) = simulate(topo, sched, source).retrieved_with_cycles(k)
            b = closed_form_bloch(prep, table, k)
            for port, sign in ((0, 1.0), (1, -1.0)):
                share = (1.0 + sign * b * np.cos(4.0 * angles)) / 2.0
                want = [cfg.n_triggers * click_probability(
                    main.mu * q, DET, cfg.count_window_s) for q in share]
                assert r.expected[port] == pytest.approx(want, rel=1e-12)

    def test_monte_carlo_trains_match_closed_form(self, monkeypatch):
        # Every retrieved record, the part a 40 ns drive leaves at zero
        # cycles included, enters each port's train with the share of its
        # own cycle count: mu * (1 +- b_k cos 4 theta) / 2. Enough
        # triggers that no port's gated counts are all zero at eta = 4
        # (about 1.6 expected over the four angles at 200 triggers), which
        # would make its visibility undefined before the trains are checked.
        prep, table = 0.05, (0.1, 0.02, 0.3)
        topo = BufferTopology(prep_error_depol=prep, depol_per_cycle=table)
        angles = (0.0, 0.3, 0.9, math.pi / 2)
        cfg = ExperimentConfig(preset="t", eta_list=(1, 4), hwp_angles=angles,
                               basis="computational", n_triggers=2000,
                               drive_width_s=40e-9)
        trains = []

        def recording(train, *args, **kwargs):
            trains.append(train)
            return sample_clicks(train, *args, **kwargs)

        monkeypatch.setattr(experiments, "sample_clicks", recording)
        run_hwp_sweep(cfg, topo, QUIET)

        want = []
        for eta in cfg.eta_list:
            source = generate_pulse_train(cfg.rep_rate_hz, cfg.pulse_width_s,
                                          cfg.mu_source, 1)
            sched = storage_retrieval_schedule(
                topo, source[0], eta - 1, drive_width=40e-9,
                guard=cfg.drive_guard_s)
            retrieved = simulate(topo, sched, source).retrieved
            for theta in angles:
                for sign in (1.0, -1.0):
                    want.append((tuple(p.t for p in retrieved), tuple(
                        p.mu * (1.0 + sign * math.cos(4.0 * theta)
                                * closed_form_bloch(prep, table, p.cycles))
                        / 2.0 for p in retrieved)))
        assert {p.cycles for p in retrieved} == {0, 3}
        got = sorted((t.offsets, t.mus) for t in trains)
        assert len(got) == len(want)
        for (offsets, mus), (want_offsets, want_mus) in zip(got,
                                                            sorted(want)):
            assert offsets == want_offsets
            assert mus == pytest.approx(want_mus, rel=1e-12)


def per_state_shares(topology, angles, max_cycles, basis):
    """The (angle, port, cycle) share table built one PolState at a time,
    as the sweep did before its table was batched: U rho U+ and Hermitize
    per launch state, (1 - p) rho + (p/2) I per cycle, u rho u+ and a clip
    per projection."""
    i2 = np.eye(2, dtype=np.complex128)
    b = BASES[basis].m
    table = []
    for theta in angles:
        u = hwp_matrix(float(theta)).m
        rho = u @ STATE_H.rho @ u.conj().T
        state = PolState(0.5 * (rho + rho.conj().T))
        states = []
        for k in range(max_cycles + 1):
            p = (topology.prep_error_depol if k == 0
                 else topology.depol_for_cycle(k))
            state = PolState((1.0 - p) * state.rho + (p / 2.0) * i2)
            states.append(state)
        p_h = [min(max(float((b @ s.rho @ b.conj().T)[0, 0].real), 0.0), 1.0)
               for s in states]
        table.append([p_h, [1.0 - p for p in p_h]])
    return np.array(table)


probability = st.floats(0.0, 1.0)
hwp_angle = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6),
                      st.sampled_from([0.0, -0.0, math.pi / 8, math.pi / 2,
                                       -math.pi / 4]))
# Some grids repeat their first angles.
angle_grid = st.tuples(st.lists(hwp_angle, min_size=1, max_size=8),
                       st.booleans()).map(
    lambda g: g[0] + g[0][:2] if g[1] else g[0])


class TestShareTable:
    """The sweep's batched share table against the per-state chain."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(probability,
                     st.lists(probability, min_size=1, max_size=6).map(tuple)),
           probability, angle_grid, st.integers(0, 40))
    def test_bit_equal_to_per_state_chain(self, depol, prep, angles,
                                          max_cycles):
        topo = BufferTopology(depol_per_cycle=depol, prep_error_depol=prep)
        table = share_table(topo, np.asarray(angles), max_cycles, BASES)
        for basis in BASES:
            assert table[basis].shape == (len(angles), 2, max_cycles + 1)
            assert np.array_equal(
                table[basis],
                per_state_shares(topo, angles, max_cycles, basis))

    @pytest.mark.parametrize("basis", BASES)
    def test_public_wrappers_give_the_same_shares(self, basis):
        topo = BufferTopology(depol_per_cycle=(0.1, 0.02, 0.3),
                              prep_error_depol=0.05)
        angles = (0.0, 0.3, -2.0, 0.3)
        table = share_table(topo, np.asarray(angles), 5, (basis,))[basis]
        for i, theta in enumerate(angles):
            launch = apply_unitary(STATE_H, hwp_matrix(theta))
            shares = [pbs_project(s, BASES[basis])
                      for s in stored_states(topo, launch, 5)]
            assert table[i].T.tolist() == [list(s) for s in shares]

    @pytest.mark.parametrize("bad", [
        np.array([[math.nan, 0.0], [0.0, 1.0]]),
        np.eye(2),
        np.array([[0.5, 0.5], [-0.5, 0.5]]),
        np.array([[1.5, 0.0], [0.0, -0.5]]),
    ], ids=["nan", "trace", "hermitian", "eigenvalue"])
    def test_domain_check_names_the_entry_as_polstate_does(self, bad):
        with pytest.raises(InputDomainError) as single:
            PolState(bad)
        stack = np.broadcast_to(STATE_D.rho, (3, 4, 2, 2)).copy()
        stack[1, 2] = bad
        with pytest.raises(InputDomainError) as batched:
            check_density(stack)
        assert str(batched.value) == str(single.value)


class TestOneTablePerSweep:
    """The sweep checks its stored states as one stack: the number of
    eigenvalue solves does not grow with the angle grid or the settings."""

    @pytest.mark.parametrize("n_angles", [16, 64])
    @pytest.mark.parametrize("n_etas", [3, 12])
    def test_eigvalsh_calls_do_not_scale(self, monkeypatch, n_angles, n_etas):
        calls = []

        def counted(*args, _run=np.linalg.eigvalsh, **kwargs):
            calls.append(1)
            return _run(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        cfg = analytic_config(eta_list=tuple(range(1, n_etas + 1)),
                              hwp_angles=default_hwp_grid(n_angles))
        run_hwp_sweep(cfg, BufferTopology(depol_per_cycle=0.01), QUIET)
        # One for the launch stack, one for the stored stack.
        assert len(calls) == 2


class TestOnePropagationPerSetting:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts every engine run; validate_schedule must not start one of
        its own."""
        calls = []
        for module in (experiments, engine):
            def counted(*args, _run=module.simulate, **kwargs):
                calls.append(1)
                return _run(*args, **kwargs)
            monkeypatch.setattr(module, "simulate", counted)
        return calls

    def test_hwp_sweep(self, calls):
        run_hwp_sweep(analytic_config(), BufferTopology(), QUIET)
        assert len(calls) == 3

    def test_retrieval_sweep(self, calls):
        run_retrieval_sweep(analytic_config(eta_list=(1, 2, 3, 4)),
                            BufferTopology(), QUIET)
        assert len(calls) == 4

    def test_calibrate(self, calls):
        calibrate(PAPER_TARGETS, BufferTopology(), analytic_config(), DET)
        assert len(calls) == 3

    def test_calibrated_cli_run(self, calls, tmp_path):
        # Calibration and sweep share one run per setting of fig2-insets.
        assert cli.main(["run", "--preset", "fig2-insets", "--set",
                         "experiment.mode=analytic", "--out",
                         str(tmp_path)]) == 0
        assert len(calls) == 3

    def test_shared_runs_match_fresh_ones(self):
        topo, cfg = BufferTopology(), analytic_config()
        cal = calibrate(PAPER_TARGETS, topo, cfg, DET)
        shared = {}
        assert calibrate(PAPER_TARGETS, topo, cfg, DET, runs=shared) == cal
        topo_cal = apply_calibration(topo, cal)
        fresh = run_hwp_sweep(cfg, topo_cal, DET)
        reused = run_hwp_sweep(cfg, topo_cal, DET, runs=shared)
        assert [(r.eta, r.basis, r.visibility) for r in reused] == \
            [(r.eta, r.basis, r.visibility) for r in fresh]


def reference_visibility_of_bloch(b, mu_ret, config, det):
    """The calibration's analysis for Bloch length ``b`` as first written:
    one click_probability call per (port, angle) and a fit built anew."""
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
        if float(beta[0]) <= 0:
            raise InputDomainError("visibility undefined for zero counts")
        vis.append(min(1.0, float(math.hypot(beta[1], beta[2]))
                       / float(beta[0])))
    return float(np.mean(vis))


class TestBlochVisibility:
    """The hoisted calibration evaluator against the per-call reference."""

    B_GRID = np.concatenate([np.linspace(0.0, 1.0, 41),
                             [1e-300, 0.5 ** 53, 0.8357, 0.99999999,
                              1.0 - 2 ** -52]]).tolist()

    @pytest.mark.parametrize("n_angles", [16, 4, 5, 6, 7])
    @pytest.mark.parametrize("det", [DET, QUIET,
                                     DetectorModel(dark_rate_hz=3e6,
                                                   efficiency=0.37)])
    @pytest.mark.parametrize("mu_ret", [0.0, 0.0123, 0.08, 2.5])
    def test_equals_reference_bit_for_bit(self, n_angles, det, mu_ret):
        cfg = analytic_config(hwp_angles=default_hwp_grid(n_angles),
                              n_triggers=54_321)
        f = experiments._bloch_visibility(mu_ret, cfg, det)
        for b in self.B_GRID:
            try:
                want = reference_visibility_of_bloch(b, mu_ret, cfg, det)
            except InputDomainError:
                with pytest.raises(InputDomainError):
                    f(b)
                continue
            assert f.__wrapped__(b) == want
            assert f(b) == want

    def test_checks_arguments_once(self):
        with pytest.raises(InputDomainError):
            experiments._bloch_visibility(math.nan, analytic_config(), DET)

    @pytest.mark.parametrize("mode", ["table", "physical"])
    def test_memo_changes_no_result(self, monkeypatch, mode):
        args = (PAPER_TARGETS, BufferTopology(), analytic_config(), DET)
        build = experiments._bloch_visibility
        memoized, evaluations = [], []

        def with_memo(*a):
            memoized.append(build(*a))
            return memoized[-1]

        def without_memo(*a):
            evaluate = build(*a).__wrapped__
            return lambda b: evaluations.append(b) or evaluate(b)

        monkeypatch.setattr(experiments, "_bloch_visibility", with_memo)
        cal = calibrate(*args, mode=mode)
        monkeypatch.setattr(experiments, "_bloch_visibility", without_memo)
        assert calibrate(*args, mode=mode) == cal
        # 60 bisection steps, the f(1) bound and the residual per target;
        # the memo answers the steps after the bisection stops moving.
        assert len(evaluations) == 3 * 62
        assert sum(f.cache_info().currsize for f in memoized) < \
            len(evaluations)


class TestCalibration:
    def test_perfect_targets_need_no_depolarization(self):
        topo = BufferTopology()
        cfg = analytic_config()
        cal = calibrate({1: 1.0, 3: 1.0, 5: 1.0}, topo, cfg, QUIET)
        assert cal.prep_error_depol == pytest.approx(0.0, abs=1e-12)
        assert all(p == pytest.approx(0.0, abs=1e-12)
                   for p in cal.depol_per_cycle)

    def test_table_mode_reproduces_reference_targets(self):
        topo = BufferTopology()
        cfg = analytic_config()
        cal = calibrate(PAPER_TARGETS, topo, cfg, DET, mode="table")
        results = run_hwp_sweep(cfg, apply_calibration(topo, cal), DET)
        avg = average_visibility_by_eta(results)
        for eta, target in PAPER_TARGETS.items():
            assert avg[eta] == pytest.approx(target, rel=1e-6)

    def test_table_residuals_are_tiny(self):
        topo = BufferTopology()
        cal = calibrate(PAPER_TARGETS, topo, analytic_config(), DET)
        assert all(abs(r) < 1e-9 for r in cal.residuals.values())

    def test_physical_mode_recovers_constant_rate(self):
        # Forward-generate self-consistent targets from a known constant
        # per-cycle probability, then invert them.
        p_true = 1.0 - (0.835 / 0.955) ** 0.25
        topo = BufferTopology(prep_error_depol=0.045,
                              depol_per_cycle=p_true)
        cfg = analytic_config()
        results = run_hwp_sweep(cfg, topo, QUIET)
        targets = average_visibility_by_eta(results)
        cal = calibrate(targets, BufferTopology(), cfg, QUIET,
                        mode="physical")
        assert cal.depol_per_cycle[0] == pytest.approx(p_true, abs=1e-9)
        assert cal.prep_error_depol == pytest.approx(0.045, abs=1e-9)
        assert all(abs(r) < 1e-9 for r in cal.residuals.values())

    def test_physical_mode_reports_residuals_for_reference_targets(self):
        topo = BufferTopology()
        cal = calibrate(PAPER_TARGETS, topo, analytic_config(), DET,
                        mode="physical")
        # The flat-then-steep sequence cannot fit one exponential: the
        # middle target must miss.
        assert abs(cal.residuals[3]) > 0.01

    def test_growing_targets_are_infeasible(self):
        topo = BufferTopology()
        with pytest.raises(CalibrationError):
            calibrate({1: 0.90, 3: 0.99}, topo, analytic_config(), DET,
                      mode="table")

    def test_eta_one_anchor_required(self):
        with pytest.raises(InputDomainError):
            calibrate({3: 0.9}, BufferTopology(), analytic_config(), DET)

    def test_targets_domain(self):
        with pytest.raises(InputDomainError):
            calibrate({1: 0.0}, BufferTopology(), analytic_config(), DET)

    @pytest.mark.parametrize("targets, field", [
        ({1: 0.9, "1": 0.8}, "targets.1"),
        ({1: 0.9, False: 0.8}, "targets.False"),
        ({1: 0.9, 3.0: 0.8}, "targets.3.0"),
        ({1: 0.9, "\u00b2": 0.8}, "targets.\u00b2"),
        ({1: 0.9, 0: 0.8}, "targets.0"),
        ({1: 0.9, "9" * 5000: 0.8}, "targets." + "9" * 5000),
        ({1: 1.5}, "targets.1"),
        ({1: "0.9"}, "targets.1"),
        ([0.9], "targets"),
    ])
    def test_section_domain_names_the_field(self, targets, field):
        with pytest.raises(InputDomainError) as info:
            Calibration("physical", targets)
        assert info.value.field == field

    def test_section_keys_become_integers(self):
        cal = Calibration("table", {"1": 0.9, "05": 1})
        assert cal.targets == {1: 0.9, 5: 1.0}
        # Mode none needs no eta=1 anchor.
        assert Calibration("none", {"3": 0.9}).targets == {3: 0.9}

    def test_mode_none_is_not_a_calibration(self):
        with pytest.raises(InputDomainError, match="table or physical"):
            calibrate(PAPER_TARGETS, BufferTopology(), analytic_config(), DET,
                      mode="none")

    @pytest.mark.parametrize("angles", [(), (0.0, 0.5, math.pi / 2)])
    def test_hwp_grid_checked_first(self, angles):
        with pytest.raises(InputDomainError, match="HWP angles"):
            calibrate(PAPER_TARGETS, BufferTopology(),
                      analytic_config(hwp_angles=angles), DET)


def reference_sweep_rows(results):
    """The fringe-sweep rows one tuple per (eta, basis, angle, port), each
    count read as its own numpy scalar."""
    for r in results:
        raw = r.counts if np.any(r.counts) else r.expected
        for i, (angle, n0, n1) in enumerate(r.curve):
            for port, norm in ((0, n0), (1, n1)):
                yield r.eta, r.basis, angle, port, float(raw[port, i]), norm


def reference_sweep_csv(results) -> bytes:
    """The sweep file as a header plus one f-string per row."""
    lines = ["eta,basis,angle_rad,port,counts,normalized_counts\n"]
    for eta, basis, angle, port, counts, norm in reference_sweep_rows(
            results):
        lines.append(f"{eta},{basis},{angle!r},{port},{counts!r},{norm!r}\n")
    return "".join(lines).encode()


class TestSweepWriters:
    """``write_sweep_csv`` and ``sweep_rows`` write one string, or one
    list of dicts, per (eta, basis) result; the bytes and values are those
    of one row at a time."""

    @staticmethod
    def sweeps():
        topo = BufferTopology(prep_error_depol=0.03,
                              depol_per_cycle=(0.02, 0.01))
        analytic = run_hwp_sweep(analytic_config(), topo, DET)
        sampled = run_hwp_sweep(
            analytic_config(mode="monte-carlo", n_triggers=3000,
                            eta_list=(1, 2), hwp_angles=default_hwp_grid(8)),
            topo, DET)
        # A sampled result whose counts are all zero writes its expected
        # counts, as an analytic one does.
        zeroed = sampled[:1] + [dataclasses.replace(
            sampled[1], counts=np.zeros_like(sampled[1].counts))] \
            + sampled[2:]
        return {"analytic": analytic, "monte-carlo": sampled,
                "zero-counts": zeroed}

    def test_csv_bytes_equal_per_row_reference(self, tmp_path):
        for name, results in self.sweeps().items():
            path = tmp_path / f"{name}.csv"
            write_sweep_csv(results, path)
            assert path.read_bytes() == reference_sweep_csv(results), name

    def test_rows_equal_per_row_reference(self):
        cols = ("eta", "basis", "angle_rad", "port", "counts",
                "normalized_counts")
        for name, results in self.sweeps().items():
            rows = sweep_rows(results)
            want = [dict(zip(cols, row))
                    for row in reference_sweep_rows(results)]
            assert rows == want, name
            assert [[type(v) for v in row.values()] for row in rows] == \
                [[type(v) for v in row.values()] for row in want], name

    def test_zero_counts_write_the_expected_column(self, tmp_path):
        results = self.sweeps()["zero-counts"]
        write_sweep_csv(results, tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()[1:]
        n = len(results[0].angles) * 2
        written = [float(line.split(",")[4]) for line in lines[n:2 * n]]
        r = results[1]
        assert written == [r.expected[port, i]
                           for i in range(len(r.angles)) for port in (0, 1)]
        assert written != [r.counts[port, i] for i in range(len(r.angles))
                           for port in (0, 1)]


class TestMonteCarloInsets:
    def test_calibrated_sweep_within_two_points(self):
        topo = BufferTopology()
        cfg_cal = analytic_config()
        cal = calibrate(PAPER_TARGETS, topo, cfg_cal, DET)
        topo_cal = apply_calibration(topo, cal)
        cfg = ExperimentConfig(preset="t", eta_list=(1, 3, 5),
                               mode="monte-carlo", n_triggers=20_000,
                               seed=5)
        results = run_hwp_sweep(cfg, topo_cal, DET)
        avg = average_visibility_by_eta(results)
        for eta, target in PAPER_TARGETS.items():
            assert avg[eta] == pytest.approx(target, abs=0.03)

    def test_sampled_counts_within_five_sigma(self):
        topo = BufferTopology()
        cfg = ExperimentConfig(preset="t", eta_list=(1,), n_triggers=10_000,
                               seed=11)
        results = run_hwp_sweep(cfg, topo, DET)
        for r in results:
            for port in (0, 1):
                for exp, got in zip(r.expected[port], r.counts[port]):
                    p = exp / cfg.n_triggers
                    sigma = math.sqrt(cfg.n_triggers * p * (1 - p))
                    assert abs(got - exp) <= 5 * sigma + 1e-9
