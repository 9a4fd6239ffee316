import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbuffer import kernels
from qbuffer.components import PulseRecord
from qbuffer.errors import InputDomainError
from qbuffer.experiments import ExperimentConfig, _trigger_pulses
from qbuffer.polarization import STATE_H


def reference_dead_time(times, dead):
    """Independent O(n) reference with explicit kept-click bookkeeping."""
    kept = []
    mask = []
    for t in times:
        ok = not kept or t - kept[-1] >= dead
        mask.append(ok)
        if ok:
            kept.append(t)
    return np.array(mask, dtype=bool)


class TestDeadTimeSemantics:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0, 1e-3, 500))
        dead = rng.uniform(0, 5e-6)
        got = kernels.dead_time_filter(times, dead)
        np.testing.assert_array_equal(got, reference_dead_time(times, dead))

    def test_zero_dead_time_keeps_everything(self):
        times = np.array([0.0, 0.0, 1e-9])
        assert kernels.dead_time_filter(times, 0.0).all()

    def test_suppressed_click_does_not_extend_window(self):
        # Non-paralyzable: the click at 1.5 dt after a kept click survives
        # even though a suppressed click sits between them.
        times = np.array([0.0, 0.5, 1.5])
        got = kernels.dead_time_filter(times, 1.0)
        assert got.tolist() == [True, False, True]

    def test_empty(self):
        assert kernels.dead_time_filter(np.array([]), 1.0).size == 0

    def test_negative_dead_time_rejected(self):
        with pytest.raises(InputDomainError):
            kernels.dead_time_filter(np.array([0.0]), -1.0)

    def test_nan_dead_time_rejected(self):
        with pytest.raises(InputDomainError):
            kernels.dead_time_filter(np.array([0.0, 1.0]), math.nan)


class TestBinCountsSemantics:
    def test_matches_numpy_histogram_in_range(self):
        rng = np.random.default_rng(3)
        times = rng.uniform(0.0, 1.0, 10_000)
        counts, overflow = kernels.bin_counts(times, 0.0, 0.01, 100)
        ref, _ = np.histogram(times, bins=100, range=(0.0, 1.0))
        assert overflow == 0
        np.testing.assert_array_equal(counts, ref)

    def test_overflow_counts_out_of_range(self):
        times = np.array([-0.1, 0.05, 0.95, 1.5])
        counts, overflow = kernels.bin_counts(times, 0.0, 0.1, 10)
        assert counts.sum() == 2
        assert overflow == 2

    def test_domain(self):
        with pytest.raises(InputDomainError):
            kernels.bin_counts(np.array([0.0]), 0.0, 0.0, 10)
        with pytest.raises(InputDomainError):
            kernels.bin_counts(np.array([0.0]), 0.0, 0.1, 0)


# Gaps in units of the dead time: equal times, close gaps, the boundary
# itself and its float neighbours, and far gaps.
GAPS = (0.0, 0.25, 0.5, 0.999999, 1.0, 1.000001, 1.5, 4.0)


@st.composite
def click_streams(draw):
    """(times, dead_time) streams built to stress the dead-time filter."""
    dead = draw(st.sampled_from([0.0, 50e-9, 1.0])
                | st.floats(0.0, 10.0, allow_nan=False))
    unit = dead if dead > 0 else 1.0
    shape = draw(st.sampled_from(["pool", "runs", "alternating"]))
    if shape == "pool":  # many equal times
        body = sorted(draw(st.lists(
            st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), max_size=40)))
        body = [unit * b for b in body]
    else:
        if shape == "runs":
            gaps = draw(st.lists(st.sampled_from(GAPS), max_size=60))
        else:
            close, far = draw(st.sampled_from(GAPS[:4])), \
                draw(st.sampled_from(GAPS[4:]))
            gaps = [close, far] * draw(st.integers(0, 30))
        start = draw(st.floats(-1e3, 1e3, allow_nan=False))
        body = (start + unit * np.cumsum(gaps)).tolist()
    # Where np.sort puts non-finite values: -inf first, +inf then NaN last.
    times = ([-math.inf] * draw(st.integers(0, 2)) + body
             + [math.inf] * draw(st.integers(0, 2))
             + [math.nan] * draw(st.integers(0, 2)))
    if draw(st.booleans()):
        times = draw(st.permutations(times))
    return np.array(times, dtype=np.float64), dead


class TestDeadTimeProperty:
    @settings(max_examples=400)
    @given(click_streams())
    def test_equals_reference_loop(self, stream):
        times, dead = stream
        got = kernels.dead_time_filter(times, dead)
        np.testing.assert_array_equal(
            got, reference_dead_time(times.tolist(), dead))


def concat_argsort_pulses(retrieved, config):
    """The trigger stream as built before broadcasting: one block per
    retrieved pulse, then a stable argsort of the whole stream."""
    period = 1.0 / config.rep_rate_hz
    triggers = np.arange(config.n_triggers, dtype=np.float64) * period
    times = np.concatenate([triggers + p.t for p in retrieved])
    mus = np.concatenate([np.full(config.n_triggers, p.mu)
                          for p in retrieved])
    order = np.argsort(times, kind="stable")
    return times[order], mus[order]


@st.composite
def trigger_cases(draw):
    rate = draw(st.sampled_from([1000.0, 3.0, 1e5]))
    period = 1.0 / rate
    offset = st.one_of(
        st.floats(0.0, period, exclude_max=True),
        # equal offsets, sums that round together, and the period edge
        st.sampled_from([0.0, 1e-17, 2e-17, period / 3, period / 2,
                         period * (1 - 1e-15), period]),
        # a trigger period or more
        st.floats(period, 3.5 * period),
    )
    pulses = draw(st.lists(st.tuples(offset, st.floats(0.0, 2.0)),
                           min_size=1, max_size=6))
    retrieved = [PulseRecord(id=i, t=t, width=50e-9, mu=mu, pol=STATE_H)
                 for i, (t, mu) in enumerate(pulses)]
    config = ExperimentConfig(rep_rate_hz=rate,
                              n_triggers=draw(st.integers(1, 12)))
    return retrieved, config


class TestTriggerPulsesProperty:
    @settings(max_examples=400)
    @given(trigger_cases())
    def test_equals_concatenate_and_argsort(self, case):
        retrieved, config = case
        times, mus = _trigger_pulses(retrieved, config)
        want_times, want_mus = concat_argsort_pulses(retrieved, config)
        assert times.dtype == want_times.dtype == np.float64
        assert mus.dtype == want_mus.dtype == np.float64
        assert times.tobytes() == want_times.tobytes()
        assert mus.tobytes() == want_mus.tobytes()
