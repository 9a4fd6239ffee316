import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbuffer import detection, kernels
from qbuffer.detection import DetectorModel, TriggerTrain, sample_clicks
from qbuffer.errors import InputDomainError


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


def trigger_pulses(train):
    """The materialized stream the sweeps sampled before ``TriggerTrain``:
    (times, mus, broadcast), where ``broadcast`` tells whether the
    trigger-major broadcast of the sorted offsets passed its order check
    (otherwise the stream was argsorted)."""
    period, n = train.period, train.n_triggers
    triggers = np.arange(n, dtype=np.float64) * period
    offsets = np.array(train.offsets, dtype=np.float64)
    mus = np.array(train.mus, dtype=np.float64)
    order = np.argsort(offsets, kind="stable")
    times = (triggers[:, None] + offsets[order]).ravel()
    if (times[1:] >= times[:-1]).all():
        # At a tie the earlier pulse in ``retrieved`` must come first.
        tie = np.flatnonzero(times[1:] == times[:-1])
        if (order[tie % order.size] <= order[(tie + 1) % order.size]).all():
            return times, np.tile(mus[order], n), True
    times = (offsets[:, None] + triggers).ravel()
    order = np.argsort(times, kind="stable")
    return times[order], np.repeat(mus, n)[order], False


@st.composite
def trains(draw):
    """(train, detector, seed): 1-4 slots with equal offsets, sums that
    round together, the period edge, zero mus and partial-drive splits."""
    period = 1.0 / draw(st.sampled_from([1000.0, 3.0, 1e5]))
    offset = st.one_of(
        st.floats(0.0, period, exclude_max=True),
        st.sampled_from([0.0, 1e-17, 2e-17, period / 3, period / 2,
                         period * (1 - 1e-15)]))
    mu = st.sampled_from([0.0, 0.1]) | st.floats(0.0, 5.0)
    slots = draw(st.lists(st.tuples(offset, mu), min_size=1, max_size=4))
    if len(slots) < 4 and draw(st.booleans()):
        # A partial drive splits one pulse into two, a storage period apart.
        (t, m), share = slots.pop(), draw(st.floats(0.0, 1.0))
        later = min(t + 5.876e-6, period * (1 - 1e-15))
        slots += [(t, m * share), (later, m * (1.0 - share))]
    train = TriggerTrain(period, draw(st.integers(1, 12)),
                         tuple(t for t, _ in slots),
                         tuple(m for _, m in slots))
    det = DetectorModel(
        efficiency=draw(st.sampled_from([0.9, 1.0])),
        dark_rate_hz=draw(st.sampled_from([0.0, 100.0, 3.0 / period])),
        dead_time_s=draw(st.sampled_from([0.0, 50e-9, period / 7])),
        jitter_sigma_s=draw(st.sampled_from([0.0, 50e-12, period / 100])))
    return train, det, draw(st.integers(0, 2 ** 32))


def same_clicks(a, b, directory):
    for name, cs in (("a.csv", a), ("b.csv", b)):
        cs.write_csv(directory / name)
    return (np.array_equal(a.times, b.times)
            and np.array_equal(a.detector_ids, b.detector_ids)
            and (directory / "a.csv").read_bytes()
            == (directory / "b.csv").read_bytes())


def single_draw_signal(train, det, acquisition, rng):
    """The train's signal times from one draw of all its uniforms, as
    ``detection._train_signal`` drew them before its block draw."""
    offsets, mus = train._slots()
    n, k = int(train.n_triggers), offsets.size
    p_click = 1.0 - np.exp(-mus * det.efficiency)
    fired = np.flatnonzero(rng.random(n * k).reshape(n, k) < p_click)
    trigger, slot = np.divmod(fired, k)
    return trigger.astype(np.float64) * train.period + offsets[slot]


class TestTriggerTrainProperty:
    @settings(max_examples=400, deadline=None)
    @given(trains(), st.integers(1, 5))
    def test_equals_materialized_stream(self, tmp_path_factory, case, block):
        train, det, seed = case
        acquisition = (train.n_triggers + 0.5) * train.period
        got = sample_clicks(train, det, acquisition, seed, detector_id=1)
        assert (np.diff(got.times) >= 0).all()
        listed = list(train)
        assert len(listed) == len(train)
        directory = tmp_path_factory.mktemp("clicks")
        assert same_clicks(
            got, sample_clicks(listed, det, acquisition, seed, 1), directory)
        times, mus, broadcast = trigger_pulses(train)
        if broadcast:
            assert same_clicks(got, sample_clicks(
                (times, mus), det, acquisition, seed, 1), directory)
        # Blocks of a few pulses cross trigger edges, and hold one whole
        # trigger when the train has more slots than a block has pulses.
        with mock.patch.object(detection, "_DRAW_BLOCK_PULSES", block):
            blocked = sample_clicks(train, det, acquisition, seed, 1)
        assert same_clicks(got, blocked, directory)

    @pytest.mark.parametrize("offsets", [(5e-6,), (5e-6, 2e-5, 2e-5)])
    def test_block_draw_equals_one_draw(self, offsets):
        # Three slots split the 2**16-pulse block into whole triggers of
        # 65535 pulses. Equal times after the block draw also mean equal
        # jitter and dark draws, which follow it from the same generator.
        train = TriggerTrain(1e-3, 3 * detection._DRAW_BLOCK_PULSES + 5,
                             offsets, (0.3,) * len(offsets))
        det = DetectorModel(dark_rate_hz=100.0)
        acquisition = train.n_triggers * 1e-3
        got = sample_clicks(train, det, acquisition, 5)
        with mock.patch.object(detection, "_train_signal",
                               single_draw_signal):
            want = sample_clicks(train, det, acquisition, 5)
        assert len(got) > 0
        assert np.array_equal(got.times, want.times)


class TestTriggerTrainDomain:
    @pytest.mark.parametrize("kwargs", [
        dict(offsets=(-1e-9,)), dict(offsets=(1e-3,)),
        dict(offsets=(0.0, 2e-3), mus=(0.1, 0.1)), dict(offsets=(math.nan,)),
        dict(mus=(math.nan,)), dict(mus=(-0.1,)), dict(mus=(math.inf,)),
        dict(n_triggers=2.5), dict(n_triggers=0), dict(n_triggers=math.nan),
        dict(period=0.0), dict(period=math.nan), dict(period=math.inf),
        dict(offsets=(), mus=()), dict(mus=(0.1, 0.2))])
    def test_rejected(self, kwargs):
        fields = dict(period=1e-3, n_triggers=10, offsets=(5e-6,),
                      mus=(0.1,))
        with pytest.raises(InputDomainError):
            TriggerTrain(**{**fields, **kwargs})

    def test_acquisition_must_cover_last_pulse(self):
        train = TriggerTrain(1e-3, 10, (0.0, 5e-4), (0.1, 0.1))
        last = 9 * 1e-3 + 5e-4
        sample_clicks(train, DetectorModel(), last, seed=1)
        with pytest.raises(InputDomainError, match="cover"):
            sample_clicks(train, DetectorModel(), np.nextafter(last, 0),
                          seed=1)

    def test_time_order_and_len(self):
        train = TriggerTrain(1e-3, 3, (5e-4, 0.0, 5e-4), (0.3, 0.1, 0.2))
        assert len(train) == 9
        assert list(train)[:4] == [(0.0, 0.1), (5e-4, 0.3), (5e-4, 0.2),
                                   (1e-3, 0.1)]
