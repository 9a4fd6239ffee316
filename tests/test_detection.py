import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbuffer import detection, experiments, kernels
from qbuffer.components import BufferTopology
from qbuffer.detection import (
    ClickSet,
    DetectorModel,
    Histogram,
    TriggerTrain,
    click_probability,
    count_triggered,
    histogram,
    sample_clicks,
)
from qbuffer.errors import InputDomainError

QUIET = DetectorModel(efficiency=0.9, dark_rate_hz=0.0, dead_time_s=50e-9,
                      jitter_sigma_s=0.0)

#: Block lengths patched into ``kernels._BLOCK_CLICKS``: tiny ones and a
#: prime put block edges everywhere in a short set; the last is the real one.
BLOCKS = (1, 2, 3, 7, kernels._BLOCK_CLICKS)


def edge_lengths(block):
    """Set lengths at a block length's edges: 0, 1, B - 1, B, B + 1 and a
    set longer than two blocks."""
    return sorted({0, 1, block - 1, block, block + 1, 2 * block + 3})


def traced_peak(fn):
    """fn's result and the peak of the memory numpy and Python allocate
    while it runs, above what was live when it started."""
    tracemalloc.start()
    try:
        live, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - live


class TestClickProbability:
    def test_vacuum_without_darks(self):
        assert click_probability(0.0, QUIET, 1e-7) == 0.0

    def test_reference_point(self):
        # Oracle: direct evaluation of 1 - exp(-mu * eff).
        p = click_probability(0.1, QUIET, 0.0)
        assert p == pytest.approx(1.0 - math.exp(-0.09), rel=1e-12)
        assert p == pytest.approx(0.086069, abs=1e-6)

    def test_small_mu_ratio_is_linear(self):
        mu = 1e-4
        ratio = (click_probability(0.5 * mu, QUIET, 0.0)
                 / click_probability(mu, QUIET, 0.0))
        # Saturation correction is O(mu * eff / 2) ~ 5e-5 here.
        assert ratio == pytest.approx(0.5, rel=2e-4)

    def test_saturation(self):
        assert click_probability(1e6, QUIET, 0.0) == pytest.approx(1.0)

    def test_dark_contribution_combines(self):
        det = DetectorModel(efficiency=0.9, dark_rate_hz=100.0)
        p = click_probability(0.1, det, 1e-4)
        ps = 1 - math.exp(-0.09)
        pd = 1 - math.exp(-100.0 * 1e-4)
        assert p == pytest.approx(1 - (1 - ps) * (1 - pd), rel=1e-12)

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_monotone_in_mu(self, mu1, mu2):
        lo, hi = sorted((mu1, mu2))
        assert click_probability(lo, QUIET, 0.0) <= \
            click_probability(hi, QUIET, 0.0)

    def test_domain(self):
        with pytest.raises(InputDomainError):
            click_probability(-0.1, QUIET, 0.0)
        with pytest.raises(InputDomainError):
            click_probability(0.1, QUIET, -1.0)


class TestClickProbabilityArray:
    """An array of mean photon numbers is the scalar call per element."""

    #: The edge cases, then a grid on which numpy's own exp can differ in
    #: the last bit.
    MUS = [0.0, 1e-300, 2.5, 1e6] + np.linspace(0.0, 5.0, 201).tolist()

    @pytest.mark.parametrize("dark", [0.0, 3e6])
    def test_elements_equal_scalar_calls_bit_for_bit(self, dark):
        det = DetectorModel(efficiency=0.37, dark_rate_hz=dark)
        mu = np.array([self.MUS, self.MUS[::-1]])
        got = click_probability(mu, det, 1e-7)
        want = np.array([[click_probability(m, det, 1e-7) for m in row]
                         for row in mu.tolist()])
        assert got.shape == mu.shape
        assert got.tobytes() == want.tobytes()
        assert type(click_probability(2.5, det, 1e-7)) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -5e-324])
    @pytest.mark.parametrize("at", [0, 3])
    def test_any_bad_element_raises(self, bad, at):
        mu = np.array(self.MUS)
        mu[at] = bad
        with pytest.raises(InputDomainError):
            click_probability(mu, QUIET, 1e-7)


class TestExpectedCounts:
    # The expected click count of n repetitions is n * click_probability.
    def test_reference_point(self):
        n = 100_000
        expected = n * click_probability(0.1, QUIET, 0.0)
        assert expected == pytest.approx(n * (1 - math.exp(-0.09)),
                                         rel=1e-12)
        assert expected == pytest.approx(8606.9, abs=0.1)
        # A sampled train of n triggers lands within 5 sigma of it.
        cs = sample_clicks(TriggerTrain(1e-3, n, (0.0,), (0.1,)), QUIET,
                           n * 1e-3, seed=4)
        sigma = math.sqrt(expected * (1 - expected / n))
        assert abs(len(cs) - expected) < 5 * sigma


class TestSampleClicks:
    def test_seed_determinism(self):
        train = TriggerTrain(1e-3, 500, (0.0,), (0.2,))
        det = DetectorModel()
        a = sample_clicks(train, det, 0.5, seed=99)
        b = sample_clicks(train, det, 0.5, seed=99)
        np.testing.assert_array_equal(a.times, b.times)
        assert a.detector_id == b.detector_id

    def test_dead_detector_sees_nothing(self):
        det = DetectorModel(efficiency=0.0, dark_rate_hz=0.0)
        cs = sample_clicks(TriggerTrain(1.0, 1, (0.0,), (10.0,)), det, 1.0,
                           seed=1)
        assert len(cs) == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_binomial_agreement_at_1e6(self, seed):
        n = 1_000_000
        train = TriggerTrain(1e-3, n, (0.0,), (0.1,))
        cs = sample_clicks(train, QUIET, n * 1e-3, seed=seed)
        p = 1 - math.exp(-0.09)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(len(cs) - n * p) < 5 * sigma

    def test_dead_time_enforced(self):
        det = DetectorModel(efficiency=0.0, dark_rate_hz=20_000.0,
                            dead_time_s=1e-4, jitter_sigma_s=0.0)
        cs = sample_clicks(TriggerTrain(1.0, 1, (0.0,), (0.0,)), det, 1.0,
                           seed=5)
        assert len(cs) > 0
        assert np.diff(cs.times).min() >= 1e-4

    def test_jitter_statistics(self):
        det = DetectorModel(efficiency=1.0, dark_rate_hz=0.0,
                            dead_time_s=0.0, jitter_sigma_s=50e-12)
        n = 20_000
        train = TriggerTrain(1e-6, n, (1e-7,), (50.0,))
        cs = sample_clicks(train, det, n * 1e-6, seed=8)
        offsets = cs.times - (np.round((cs.times - 1e-7) / 1e-6) * 1e-6
                              + 1e-7)
        assert np.std(offsets) == pytest.approx(50e-12, rel=0.1)

    def test_acquisition_must_cover_pulses(self):
        with pytest.raises(InputDomainError):
            sample_clicks(TriggerTrain(4.0, 1, (2.0,), (0.1,)), QUIET, 1.0,
                          seed=1)

    @pytest.mark.parametrize("pulses", [
        [(0.5, 0.1)], [], [(math.nan, 0.1)],
        (np.array([0.5]), np.array([0.1])),
        (np.array([0.1, -math.inf]), np.full(2, 0.1))])
    def test_non_finite_pulses_rejected(self, pulses):
        # Only a TriggerTrain is sampled; a list or a (times, mus) pair is
        # rejected whatever its values.
        with pytest.raises(InputDomainError, match="TriggerTrain"):
            sample_clicks(pulses, QUIET, 1.0, seed=1)

    @pytest.mark.parametrize("acquisition", [math.nan, math.inf])
    def test_non_finite_acquisition_rejected(self, acquisition):
        with pytest.raises(InputDomainError, match="finite"):
            sample_clicks(TriggerTrain(1.0, 1, (0.5,), (0.1,)), QUIET,
                          acquisition, seed=1)

    def test_train_draw_peak_rss_is_below_one_whole_draw(self):
        # The resident peak of a fresh process. One draw of 1e6 uniforms
        # would touch 8 MB; the gaps between fired triggers, about 1e4
        # here, touch well under 1 MB, which numpy's transparent huge pages
        # may round up by one 2 MB page.
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status (VmRSS, VmHWM)")
        script = textwrap.dedent("""\
            from qbuffer.detection import (DetectorModel, TriggerTrain,
                                           sample_clicks)

            def status(key):
                with open("/proc/self/status") as fh:
                    for line in fh:
                        if line.startswith(key + ":"):
                            return int(line.split()[1]) * 1024

            det = DetectorModel(dark_rate_hz=0.0, jitter_sigma_s=0.0)
            sample_clicks(TriggerTrain(1e-6, 1000, (0.0,), (0.01,)), det,
                          1.0, 1)
            before = status("VmRSS")
            clicks = sample_clicks(TriggerTrain(1e-6, 10**6, (0.0,),
                                                (0.01,)), det, 1.0, 1)
            assert 0 < len(clicks) < 20_000
            print(status("VmHWM") - before)
            """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
            detection.__file__))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 4_000_000

    @pytest.mark.parametrize("mu, dark_rate_hz", [(0.07, 100.0), (0.7, 0.0)],
                             ids=["retrieval", "signal-only"])
    def test_peak_memory_is_within_its_click_set(self, mu, dark_rate_hz):
        # A retrieval setting, 40 % signal clicks and 60 % darks, and a
        # train of signal clicks only. The fired pulses' gaps, times and
        # slots, then the signal times beside the one times array, are the
        # largest transients; the sort, the dead-time mask and the
        # compaction add one byte a click and O(block).
        train = TriggerTrain(1e-3, 200_000, (2.35e-5,), (mu,))
        det = DetectorModel(dark_rate_hz=dark_rate_hz)
        sample_clicks(TriggerTrain(1e-3, 10, (0.0,), (0.1,)), det, 1.0, 1)
        clicks, peak = traced_peak(lambda: sample_clicks(train, det, 200.0, 3))
        assert len(clicks) > 25_000
        assert peak < 2.5 * clicks.times.nbytes

    @pytest.mark.parametrize("mus", [(0.7, 0.3), (0.7, 0.01)])
    def test_multi_slot_peak_is_within_its_click_set(self, mus):
        # Each slot draws its gaps into an array of its own, so a
        # slot that fires rarely beside a busy one adds its own fires, not
        # a row as wide as the busy slot's.
        train = TriggerTrain(1e-3, 200_000, (2.35e-5, 5e-5), mus)
        det = DetectorModel(dark_rate_hz=0.0)
        sample_clicks(TriggerTrain(1e-3, 10, (0.0, 1e-4), (0.1, 0.1)), det,
                      1.0, 1)
        clicks, peak = traced_peak(lambda: sample_clicks(train, det, 200.0, 3))
        assert len(clicks) > 80_000
        assert peak < 2.5 * clicks.times.nbytes

    def test_detector_id_tagging(self):
        det = DetectorModel(efficiency=1.0, dark_rate_hz=0.0)
        cs = sample_clicks(TriggerTrain(1e-3, 1, (0.0,), (50.0,)), det, 1e-3,
                           seed=1, detector_id=3)
        assert (len(cs), cs.detector_id) == (1, 3)


class TestHistogram:
    def test_caller_counts_stay_writeable(self):
        counts = np.array([3, 0, 1], dtype=np.int64)
        h = Histogram(0.0, 0.1, counts)
        assert counts.flags.writeable
        assert not h.counts.flags.writeable
        assert np.shares_memory(h.counts, counts)
        with pytest.raises(ValueError, match="read-only"):
            h.counts[0] = 1

    def test_boundary_lands_left_closed(self):
        cs = ClickSet(np.array([0.75]), 0, 1.0)
        h = histogram(cs, 0.0, 0.25, 8)
        assert h.counts.tolist() == [0, 0, 0, 1, 0, 0, 0, 0]

    def test_empty_clicks(self):
        cs = ClickSet(np.array([]), 0, 1.0)
        h = histogram(cs, 0.0, 0.1, 4)
        assert h.counts.tolist() == [0, 0, 0, 0]
        assert h.overflow == 0

    @given(st.integers(0, 2 ** 32 - 1))
    def test_conservation(self, seed):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(-0.5, 1.5, 200))
        cs = ClickSet(times, 0, 1.5)
        h = histogram(cs, 0.0, 0.1, 10)
        assert h.total == 200

    def test_retrieval_peak_spacing_in_bins(self):
        # Clicks one storage period apart with 100 ns bins land 58 or 59
        # bins apart (period / bin = 58.76).
        period = 5.876065101010647e-06
        times = np.arange(8) * period + 1e-6
        cs = ClickSet(times, 0, 1.0)
        h = histogram(cs, 0.0, 100e-9, 600)
        nz = np.nonzero(h.counts)[0]
        assert set(np.diff(nz).tolist()) <= {58, 59}

    def test_negative_counts_rejected(self):
        with pytest.raises(InputDomainError):
            Histogram(0.0, 0.1, np.array([1, -1]))

    def test_csv_export(self, tmp_path):
        cs = ClickSet(np.array([0.05, 0.15, 0.15]), 0, 1.0)
        h = histogram(cs, 0.0, 0.1, 2)
        path = tmp_path / "h.csv"
        h.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_start_s,counts"
        assert lines[1] == "0.0,1"
        assert lines[2] == "0.1,2"


class TestClickSetPlumbing:
    def test_caller_arrays_stay_writeable(self):
        t = np.array([0.1, 0.2])
        cs = ClickSet(t, 1, 1.0)
        assert t.flags.writeable
        assert not cs.times.flags.writeable
        # No copy: the set views the caller's buffer.
        assert np.shares_memory(cs.times, t)
        t[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            cs.times[0] = 0.5

    def test_csv_export(self, tmp_path):
        cs = ClickSet(np.array([0.25]), 1, 1.0)
        path = tmp_path / "c.csv"
        cs.write_csv(path)
        assert path.read_text() == "time_ps,detector_id\n250000000000,1\n"

    def test_count_triggered_dedupes_triggers(self):
        # Two clicks inside the same trigger gate count once.
        cs = ClickSet(np.array([1e-5, 1.00001e-5, 1e-3 + 1e-5]), 0, 1.0)
        assert count_triggered(cs, 1e-3, 1e-5, 1e-6) == 2

    @pytest.mark.parametrize("times, want", [
        ([], 0), ([0.5], 1), ([0.2], 0), ([-0.5], 1), ([0.375], 1),
        ([0.625], 0)])
    def test_count_triggered_few_clicks(self, times, want):
        cs = ClickSet(np.array(times, dtype=float), 0, 1.0)
        assert count_triggered(cs, 1.0, 0.5, 0.25) == want

    def test_detector_model_domain(self):
        with pytest.raises(InputDomainError):
            DetectorModel(efficiency=1.2)
        with pytest.raises(InputDomainError):
            DetectorModel(dark_rate_hz=-1.0)
        with pytest.raises(InputDomainError):
            DetectorModel(efficiency=math.nan)

    @pytest.mark.parametrize("field", [
        "dark_rate_hz", "dead_time_s", "jitter_sigma_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_detector_model_rejects_non_finite(self, field, value):
        with pytest.raises(InputDomainError, match=field):
            DetectorModel(**{field: value})


#: The largest time whose picosecond tag fits in int64, and the next float.
TAG_MAX_S = 9223372.036854774
TAG_OVER_S = 9223372.036854776

click_time = st.one_of(
    st.floats(-1e-3, 1.0),
    st.floats(-TAG_MAX_S, TAG_MAX_S),
    # half-picosecond ties, and the edges of the int64 tag range
    st.integers(-40, 40).map(lambda k: (k + 0.5) / 1e12),
    st.sampled_from([0.0, -0.0, 9e6, -9e6, TAG_MAX_S, -TAG_MAX_S]),
)


#: Every decimal digit-count boundary, +-(10**k - 1) and +-10**k, with 0
#: and both ends of int64.
DIGIT_EDGES = sorted({sign * m for k in range(19)
                      for m in (10 ** k - 1, 10 ** k) for sign in (1, -1)}
                     | {-2 ** 63, 2 ** 63 - 1})

int64 = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                  st.sampled_from(DIGIT_EDGES))

#: Times whose tags sit on the digit-count boundaries a ClickSet can hold.
edge_time = st.sampled_from([tag / 1e12 for tag in DIGIT_EDGES
                             if abs(tag) <= 10 ** 18])


def sort_path_count(times, period, offset, window):
    """count_triggered by gathering the gated triggers and sorting them."""
    t = np.asarray(times, dtype=np.float64)
    trigger = np.floor(t / period)
    rel = t - trigger * period
    hit = (rel >= offset - window / 2.0) & (rel < offset + window / 2.0)
    return experiments._n_distinct(trigger[hit])


class TestOrderAwareCount:
    """The run count over time-ordered clicks against the sort path."""

    #: With period 1 these fractions are exact, so clicks land on both gate
    #: edges 0.375 and 0.625 of (offset 0.5, window 0.25), and next to them.
    FRACTIONS = (0.375, 0.625, 0.0, 0.5, 0.375 - 2 ** -40, 0.625 - 2 ** -40)
    #: (period, offset, window): a narrow gate, one wider than the period
    #: (every click is gated, so adjacent hits change trigger), an empty one.
    GATES = ((1.0, 0.5, 0.25), (1e-3, 2.3e-5, 1e-7), (1.0, 0.5, 3.0),
             (1.0, 0.5, 0.0))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_sort_path(self, data):
        period, offset, window = data.draw(st.sampled_from(self.GATES))
        on_grid = st.builds(lambda k, f: (k + f) * period, st.integers(-4, 6),
                            st.sampled_from(self.FRACTIONS))
        anywhere = st.floats(-4 * period, 7 * period)
        times = data.draw(st.lists(st.one_of(on_grid, anywhere),
                                   max_size=40))
        want = sort_path_count(times, period, offset, window)
        # Small blocks put runs of hits across block boundaries.
        block = data.draw(st.sampled_from(BLOCKS))
        with mock.patch.object(kernels, "_BLOCK_CLICKS", block):
            for order in (sorted(times), data.draw(st.permutations(times))):
                cs = ClickSet(np.array(order, dtype=np.float64), 0, 1.0)
                assert count_triggered(cs, period, offset, window) == want

    @pytest.mark.parametrize("times", [
        [0.1, 0.2, 0.2, 0.3], [-0.3, 0.0, 2.0], [0.2, 0.1],
        [0.1, 0.3, 0.2, 0.4], [], [0.5], [-TAG_MAX_S, TAG_MAX_S],
        # Trigger 0's two hits are split by trigger 1's, so the set is
        # counted right only once it is sorted.
        [0.5, 1.5, 0.55]])
    def test_listed_sets(self, times):
        cs = ClickSet(np.array(times), 0, 1.0)
        for gate in self.GATES:
            assert count_triggered(cs, *gate) == \
                sort_path_count(times, *gate)

    @pytest.mark.parametrize("block", BLOCKS[:-1])
    def test_block_edges(self, block):
        # Every click is a hit and each trigger holds three, so runs of
        # hits cross every block edge; the falling copy falls just across
        # the first edge and is counted after a sort.
        for n in edge_lengths(block):
            times = (np.arange(n) // 3 + 0.5 + np.arange(n) % 3 * 0.01)
            streams = [times]
            if n > block:
                fall = times.copy()
                fall[[block - 1, block]] = fall[[block, block - 1]]
                streams.append(fall)
            for t in streams:
                want = sort_path_count(t, 1.0, 0.5, 0.25)
                cs = ClickSet(t, 0, 1.0)
                with mock.patch.object(kernels, "_BLOCK_CLICKS", block):
                    assert count_triggered(cs, 1.0, 0.5, 0.25) == want
                assert want == -(-n // 3)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_sets_equal_sort_path(self, block, seed):
        # sample_clicks draws a set in time order, which count_triggered
        # counts without sorting. Three slots, the last two within the
        # dead time of each other, with jitter and darks; the wide gates
        # hold two or three hits of one trigger, which are adjacent only
        # in time order.
        train = TriggerTrain(1.0, 200, (0.2, 0.5, 0.505), (2.0, 1.5, 0.8))
        det = DetectorModel(efficiency=0.9, dark_rate_hz=5.0,
                            dead_time_s=0.01, jitter_sigma_s=0.002)
        gates = ((1.0, 0.2, 0.05), (1.0, 0.35, 0.4), (1.0, 0.5, 3.0))
        with mock.patch.object(kernels, "_BLOCK_CLICKS", block):
            cs = sample_clicks(train, det, 200.0, seed)
            assert (np.diff(cs.times) >= 0).all()
            assert len(cs) > 2 * max(BLOCKS[:-1])
            for gate in gates:
                assert count_triggered(cs, *gate) == \
                    sort_path_count(cs.times, *gate)


class TestBlockedPassMemory:
    """Counting and writing a click set add O(block) memory to it, with
    one bound whatever its size."""

    @pytest.mark.parametrize("n", [20_000, 200_000])
    def test_peak_is_one_block(self, tmp_path, n):
        times = np.sort(np.random.default_rng(5).random(n)) * n * 1e-3
        cs = ClickSet(times, 0, n * 1e-3)
        passes = {
            "write_csv": lambda: cs.write_csv(tmp_path / "c.csv"),
            "count_triggered": lambda: count_triggered(cs, 1e-3, 2.35e-5,
                                                       1e-7)}
        for name, run in passes.items():
            run()  # the first call's one-off allocations
            _, peak = traced_peak(run)
            assert peak < 128 * kernels._BLOCK_CLICKS, name


def per_line_oracle(times, detector_id):
    """The click file as one f-string per row, ties rounded to even."""
    return ("time_ps,detector_id\n" + "".join(
        f"{round(t * 1e12)},{detector_id}\n"
        for t in times.tolist())).encode()


class TestClickCsvProperty:
    @settings(max_examples=300)
    @given(st.lists(click_time, max_size=40), int64, st.sampled_from(BLOCKS))
    def test_bytes_equal_per_line_oracle(self, tmp_path_factory, rows,
                                         detector_id, block):
        times = np.array(rows, dtype=np.float64)
        path = tmp_path_factory.mktemp("clicks") / "c.csv"
        with mock.patch.object(kernels, "_BLOCK_CLICKS", block):
            ClickSet(times, detector_id, 1.0).write_csv(path)
        want = "time_ps,detector_id\n" + "".join(
            f"{int(np.rint(t * 1e12))},{detector_id}\n" for t in rows)
        assert path.read_bytes() == want.encode()

    @settings(max_examples=300)
    @given(st.lists(int64, max_size=40), int64)
    @example([-2 ** 63, 2 ** 63 - 1, 0, -1], -2 ** 63)
    @example([2 ** 63 - 1, -9, 10 ** 18], 2 ** 63 - 1)
    def test_rows_equal_per_line_oracle_over_int64(self, rows, detector_id):
        tags = np.array(rows, dtype=np.int64)
        suffix = f",{detector_id}\n"
        want = "".join(f"{t}{suffix}" for t in rows).encode()
        assert detection._csv_rows(tags, suffix.encode()).tobytes() == want

    @settings(max_examples=15, deadline=None)
    @given(st.integers(kernels._BLOCK_CLICKS + 1,
                       3 * kernels._BLOCK_CLICKS),
           st.lists(st.tuples(st.integers(0, 3 * kernels._BLOCK_CLICKS),
                              st.one_of(click_time, edge_time)),
                    max_size=30), int64)
    def test_sets_longer_than_a_block(self, tmp_path_factory, n, rows,
                                      detector_id):
        # Zero rows with a few drawn ones scattered among them, so blocks
        # differ in how many digits their widest value needs.
        times = np.zeros(n)
        for pos, t in rows:
            times[pos % n] = t
        path = tmp_path_factory.mktemp("clicks") / "c.csv"
        ClickSet(times, detector_id, 1.0).write_csv(path)
        assert path.read_bytes() == per_line_oracle(times, detector_id)

    @pytest.mark.parametrize("block", BLOCKS[:-1])
    def test_block_edges(self, tmp_path, block):
        # Tags of growing width, negative every fourth row, so blocks
        # differ in sign and digit count on each side of every edge.
        for n, detector_id in itertools.product(edge_lengths(block),
                                                (0, 5, -10)):
            k = np.arange(n)
            times = 7.0 ** k * np.where(k % 4 == 3, -1, 1) / 1e12
            path = tmp_path / f"c{n}_{detector_id}.csv"
            with mock.patch.object(kernels, "_BLOCK_CLICKS", block):
                ClickSet(times, detector_id, 1.0).write_csv(path)
            assert path.read_bytes() == per_line_oracle(times, detector_id)

    def test_sampled_clicks_equal_per_line_oracle(self, tmp_path):
        train = TriggerTrain(1e-3, 100_000, (2e-5, 5e-5), (5.0, 0.05))
        cs = sample_clicks(train, DetectorModel(), 100.0, 11, detector_id=3)
        assert 90_000 < len(cs) < 200_000
        path = tmp_path / "c.csv"
        cs.write_csv(path)
        assert path.read_bytes() == per_line_oracle(cs.times, 3)

    def test_ties_round_to_even(self, tmp_path):
        # k/2 ps for odd k: keep the values whose product is an exact tie.
        ties = [t for t in (k / 2e12 for k in range(-41, 42, 2))
                if (t * 1e12) % 1 == 0.5]
        assert len(ties) > 20
        path = tmp_path / "c.csv"
        ClickSet(np.array(ties), 0, 1.0).write_csv(path)
        tags = [int(line.split(",")[0])
                for line in path.read_text().splitlines()[1:]]
        assert all(tag % 2 == 0 for tag in tags)
        assert all(abs(tag - t * 1e12) == 0.5 for tag, t in zip(tags, ties))


#: Detector ids whose suffixes, ",0\n" to ",-9223372036854775808\n", take
#: every length from 3 to 22 bytes, so rows of each digit width take every
#: length mod 4: each alignment of the rows' 4-byte digit groups.
GRID_IDS = sorted({0, -2 ** 63} | {sign * 10 ** k for k in range(19)
                                   for sign in (1, -1)})


def grid_blocks(width):
    """Blocks of tags whose widest has ``width`` digits: one width with
    and without a negative row, all negative, one row, and (from two
    digits) ones that cross 10**(width - 1), either sign."""
    lo = 10 ** (width - 1) if width > 1 else 0
    hi = min(10 ** width - 1, 2 ** 63 - 1)
    same = [lo, lo + 1, (lo + hi) // 2, hi]
    blocks = [same, same[:-1] + [-hi], [-v for v in same if v] + [-hi],
              [hi], [-hi]]
    if width == 19:
        blocks.append([-2 ** 63, 0, 2 ** 63 - 1, -2 ** 63 + 1])
    if width > 1:
        crossing = [lo - 2, lo - 1, lo, lo + 1]
        blocks += [crossing, [-v for v in crossing], crossing + [-lo + 1]]
    return blocks


class TestClickCsvGrid:
    @pytest.mark.parametrize("width", range(1, 20))
    def test_rows_equal_per_line_oracle(self, width):
        suffixes = [f",{i}\n" for i in GRID_IDS]
        assert sorted({len(s) for s in suffixes}) == list(range(3, 23))
        for rows, suffix in itertools.product(grid_blocks(width), suffixes):
            assert max(len(str(abs(r))) for r in rows) == width
            want = "".join(f"{r}{suffix}" for r in rows).encode()
            got = detection._csv_rows(np.array(rows, np.int64),
                                      suffix.encode())
            assert got.tobytes() == want, (rows, suffix)


class TestClickCsvBlockWidths:
    """Whole blocks whose rows differ in width, one block per kind, each
    block as long as the writer's."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 15), st.integers(1, kernels._BLOCK_CLICKS - 1),
           st.integers(1, kernels._BLOCK_CLICKS - 2),
           st.integers(0, 2 ** 32 - 1))
    def test_mixed_width_blocks_equal_per_line_oracle(
            self, tmp_path_factory, power, cross, middle, seed):
        rng = np.random.default_rng(seed)
        n = kernels._BLOCK_CLICKS
        one_width = 10 ** power + np.arange(n)
        # Sorted tags that reach 10**power at row ``cross``.
        crossing = one_width - cross
        first_negative = one_width.copy()
        first_negative[0] *= -1
        middle_negative = one_width.copy()
        middle_negative[middle] *= -1
        # Unsorted: the first and last rows come from the larger width
        # class of ``crossing``, every row of the other class lies between.
        shuffled = rng.permutation(crossing)
        wide = shuffled >= 10 ** power
        ends = np.flatnonzero(wide == (2 * wide.sum() >= n))[[0, -1]]
        permuted = shuffled[np.r_[ends[0], np.delete(np.arange(n), ends),
                                  ends[1]]]
        tags = np.concatenate([crossing, first_negative, middle_negative,
                               rng.permutation(one_width), permuted])
        times = tags / 1e12
        # The tags survive the round trip, so each block keeps its widths.
        assert np.array_equal(np.rint(times * 1e12), tags)
        path = tmp_path_factory.mktemp("clicks") / "c.csv"
        ClickSet(times, 10, 1.0).write_csv(path)
        assert path.read_bytes() == per_line_oracle(times, 10)


class TestClickSetDomain:
    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, TAG_OVER_S, -TAG_OVER_S, 1e300])
    def test_untaggable_times_rejected(self, bad):
        with pytest.raises(InputDomainError, match="finite"):
            ClickSet(np.array([0.1, bad, 0.2]), 0, 1.0)

    def test_range_edge_accepted(self, tmp_path):
        for detector_id in (0, -2 ** 63, 2 ** 63 - 1):
            cs = ClickSet(np.array([-TAG_MAX_S, TAG_MAX_S]), detector_id, 1.0)
            path = tmp_path / f"c{detector_id}.csv"
            cs.write_csv(path)
            assert path.read_text() == (
                "time_ps,detector_id\n"
                f"-9223372036854773760,{detector_id}\n"
                f"9223372036854773760,{detector_id}\n")

    def test_empty_set_writes_header_only(self, tmp_path):
        path = tmp_path / "c.csv"
        ClickSet(np.array([]), 0, 1.0).write_csv(path)
        assert path.read_text() == "time_ps,detector_id\n"

    @pytest.mark.parametrize("times, in_order", [
        ([0.1, 0.2, 0.2, 0.3], True), ([-0.3, 0.0, 2.0], True),
        ([0.2, 0.1], False), ([0.1, 0.3, 0.2, 0.4], False),
        ([], True), ([0.5], True), ([-TAG_MAX_S, TAG_MAX_S], True)])
    def test_order_flag(self, times, in_order):
        # The order scan count_triggered makes to decide whether to sort.
        cs = ClickSet(np.array(times), 0, 1.0)
        assert kernels._never_falls(cs.times) is in_order

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, TAG_OVER_S, -TAG_OVER_S, 1e300])
    @pytest.mark.parametrize("where", ["alone", "first", "last"])
    def test_untaggable_ends_rejected(self, bad, where):
        # A bad value is refused also where a sorted set holds its
        # extremes, and alone.
        times = {"alone": [bad], "first": [bad, 0.1, 0.2],
                 "last": [0.1, 0.2, bad]}[where]
        with pytest.raises(InputDomainError, match=re.escape(
                "click times must be finite with |t| < 2**63 ps "
                "(~9.22e6 s)")):
            ClickSet(np.array(times), 0, 1.0)


@pytest.fixture
def two_clicks():
    return ClickSet(np.array([1e-5, 2e-3]), 0, 1.0)


#: Each call, and the field its InputDomainError names (None for the
#: element check of click_probability, which names no field).
DOMAIN_CASES = {
    "histogram-width-nan": (lambda cs: Histogram(0.0, math.nan, [1]),
                            "bin_width"),
    "histogram-t0-inf": (lambda cs: Histogram(math.inf, 1.0, [1]), "t0"),
    "histogram-overflow-negative": (
        lambda cs: Histogram(0.0, 1.0, [1], overflow=-5), "overflow"),
    "histogram-fractional-counts": (lambda cs: Histogram(0.0, 1.0, [1.5]),
                                    "counts"),
    "histogram-nan-counts": (lambda cs: Histogram(0.0, 1.0, [math.nan]),
                             "counts"),
    "histogram-2d-counts": (lambda cs: Histogram(0.0, 1.0, [[1, 2]]),
                            "counts"),
    "histogram-str-counts": (lambda cs: Histogram(0.0, 1.0, ["a"]),
                             "counts"),
    "histogram-bool-counts": (lambda cs: Histogram(0.0, 1.0, [True]),
                              "counts"),
    "histogram-negative-counts": (lambda cs: Histogram(0.0, 1.0, [1, -1]),
                                  "counts"),
    "histogram-counts-beyond-int64": (lambda cs: Histogram(
        0.0, 1.0, np.array([2 ** 63], np.uint64)), "counts"),
    "clickset-2d-times": (lambda cs: ClickSet(np.zeros((2, 2)), 0, 1.0),
                          "times"),
    "clickset-str-times": (lambda cs: ClickSet(["a"], 0, 1.0), "times"),
    "clickset-id-array": (lambda cs: ClickSet(cs.times, np.zeros(2, int),
                                              1.0), "detector_id"),
    "clickset-id-bool": (lambda cs: ClickSet(cs.times, True, 1.0),
                         "detector_id"),
    "clickset-id-str": (lambda cs: ClickSet(cs.times, "0", 1.0),
                        "detector_id"),
    "clickset-id-beyond-int64": (lambda cs: ClickSet(cs.times, 2 ** 63, 1.0),
                                 "detector_id"),
    "binning-width-nan": (lambda cs: histogram(cs, 0.0, math.nan, 4),
                          "bin_width"),
    "binning-t0-nan": (lambda cs: histogram(cs, math.nan, 0.1, 4), "t0"),
    "binning-fractional-bins": (lambda cs: histogram(cs, 0.0, 0.1, 2.5),
                                "n_bins"),
    "gate-period-nan": (lambda cs: count_triggered(cs, math.nan, 0.0, 1e-7),
                        "period"),
    "gate-offset-nan": (lambda cs: count_triggered(cs, 1e-3, math.nan, 1e-7),
                        "offset"),
    "gate-window-nan": (lambda cs: count_triggered(cs, 1e-3, 0.0, math.nan),
                        "window"),
    "gate-period-bool": (lambda cs: count_triggered(cs, True, 0.0, 1e-7),
                         "period"),
    "gate-window-str": (lambda cs: count_triggered(cs, 1e-3, 0.0, "x"),
                        "window"),
    "probability-mu-nan": (lambda cs: click_probability(math.nan, QUIET,
                                                        1e-7), None),
    "probability-mu-str": (lambda cs: click_probability("a", QUIET, 1e-7),
                           "mu"),
    "probability-window-nan": (lambda cs: click_probability(0.1, QUIET,
                                                            math.nan),
                               "window"),
    "probability-window-none": (lambda cs: click_probability(0.1, QUIET,
                                                             None),
                                "window"),
    "sample-id-beyond-int64": (lambda cs: sample_clicks(
        TriggerTrain(1.0, 1, (0.5,), (0.1,)), QUIET, 1.0, 1,
        detector_id=2 ** 70), "detector_id"),
    "sample-id-fractional": (lambda cs: sample_clicks(
        TriggerTrain(1.0, 1, (0.5,), (0.1,)), QUIET, 1.0, 1,
        detector_id=1.5), "detector_id"),
    "sample-train-list": (lambda cs: sample_clicks([(0.5, 0.1)], QUIET, 1.0,
                                                   1), "train"),
    "sample-det-str": (lambda cs: sample_clicks(
        TriggerTrain(1.0, 1, (0.5,), (0.1,)), "QUIET", 1.0, 1), "det"),
    "retrieval-det-str": (lambda cs: experiments.run_retrieval_sweep(
        experiments.ExperimentConfig(eta_list=(1,)), BufferTopology(),
        "QUIET"), "det"),
    "sample-acquisition-str": (lambda cs: sample_clicks(
        TriggerTrain(1.0, 1, (0.5,), (0.1,)), QUIET, "x", 0),
        "acquisition"),
    "clickset-acquisition-nan": (lambda cs: ClickSet(cs.times,
                                                     cs.detector_id,
                                                     math.nan),
                                 "acquisition_s"),
    "sample-seed-negative": (lambda cs: sample_clicks(
        TriggerTrain(1.0, 1, (0.5,), (0.1,)), QUIET, 1.0, -1), "seed"),
    "sample-seed-fractional": (lambda cs: sample_clicks(
        TriggerTrain(1.0, 1, (0.5,), (0.1,)), QUIET, 1.0, 1.5), "seed"),
    "sample-seed-nan": (lambda cs: sample_clicks(
        TriggerTrain(1.0, 1, (0.5,), (0.1,)), QUIET, 1.0, math.nan), "seed"),
    "sample-seed-bool": (lambda cs: sample_clicks(
        TriggerTrain(1.0, 1, (0.5,), (0.1,)), QUIET, 1.0, True), "seed"),
    "dead-time-numeric-str": (
        lambda cs: kernels.dead_time_filter(cs.times, "5e-8"), "dead_time"),
    "dead-time-bool": (lambda cs: kernels.dead_time_filter(cs.times, True),
                       "dead_time"),
    "dead-time-str": (lambda cs: kernels.dead_time_filter(cs.times, "x"),
                      "dead_time"),
}


@pytest.mark.parametrize("call, field", DOMAIN_CASES.values(),
                         ids=DOMAIN_CASES)
def test_entry_points_reject_nan_and_out_of_range(two_clicks, call, field):
    with pytest.raises(InputDomainError) as info:
        call(two_clicks)
    assert info.value.field == field


@pytest.mark.parametrize("name", [k for k in DOMAIN_CASES
                                  if k.startswith("sample-seed-")])
def test_bad_seed_is_named(two_clicks, name):
    with pytest.raises(InputDomainError) as info:
        DOMAIN_CASES[name][0](two_clicks)
    assert info.value.field == "seed"
