import math
from dataclasses import replace
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


#: Block lengths patched into ``kernels._BLOCK_CLICKS``: tiny ones and a
#: prime put block edges everywhere in a short set; the last is the real one.
BLOCKS = (1, 2, 3, 7, kernels._BLOCK_CLICKS)


def edge_lengths(block):
    """Set lengths at a block length's edges: 0, 1, B - 1, B, B + 1 and a
    set longer than two blocks."""
    return sorted({0, 1, block - 1, block, block + 1, 2 * block + 3})


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

    def test_all_kept(self):
        # Every gap at least the dead time, one exactly equal: no click is
        # scanned and every click is kept.
        times = np.array([-2.0, 0.0, 1.0, 2.5, 2.5 + 1e-9 + 1.0])
        got = kernels.dead_time_filter(times, 1.0)
        assert got.all()
        np.testing.assert_array_equal(got, reference_dead_time(times, 1.0))

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


#: Each kernel call outside its domain, and the field its InputDomainError
#: names: a period that is not > 0, and times that are not a 1-D array of
#: numbers.
KERNEL_DOMAIN_CASES = {
    "fold-period-zero": (lambda: kernels.fold([0.1], 0.0), "period"),
    "fold-period-nan": (lambda: kernels.fold([0.1], math.nan), "period"),
    "fold-period-negative": (lambda: kernels.fold([0.1], -1.0), "period"),
    "fold-str-times": (lambda: kernels.fold(["x"], 1.0), "times"),
    "dead-time-str-times": (lambda: kernels.dead_time_filter(["a"], 0.1),
                            "times"),
    "dead-time-2d-times": (
        lambda: kernels.dead_time_filter([[0.0, 1.0]], 0.1), "times"),
    "bin-counts-2d-times": (
        lambda: kernels.bin_counts([[0.1]], 0.0, 1.0, 4), "times"),
}


@pytest.mark.parametrize("call, field", KERNEL_DOMAIN_CASES.values(),
                         ids=KERNEL_DOMAIN_CASES)
def test_kernels_reject_out_of_domain(call, field):
    with pytest.raises(InputDomainError) as info:
        call()
    assert info.value.field == field


@st.composite
def fold_cases(draw):
    """(times, period): times on, beside and between multiples of the
    period, with quotients on both sides of 2**26, and sometimes a
    negative time. Quotients from 2**26 and negative times send their
    block to np.mod; the fast path would get some of them wrong."""
    period = draw(st.sampled_from([1e-3, 1e-6, 3.7e-6, 1 / 3, 2.0 ** -20,
                                   math.nextafter(2.0, 0), 2.0 ** -899,
                                   2.0 ** -901])
                  | st.floats(1e-12, 1e6))
    k = (st.integers(0, 60) | st.integers(0, 2 ** 26 + 2)
         | st.integers(2 ** 26, 2 ** 40))
    near = st.tuples(k, st.sampled_from([-math.inf, 0.0, math.inf])).map(
        lambda kd: math.nextafter(kd[0] * period, kd[1]))
    between = st.tuples(k, st.floats(0.0, 1.0)).map(
        lambda kf: (kf[0] + kf[1]) * period)
    times = draw(st.lists(near | between | st.sampled_from([0.0, -0.0]),
                          min_size=1, max_size=40))
    if draw(st.booleans()):
        times.append(-draw(st.floats(0.0, 40 * period)))
    return np.array([t for t in times if math.isfinite(t)]), period


class TestFold:
    @settings(max_examples=500)
    @given(fold_cases())
    def test_equals_np_mod_bit_for_bit(self, case):
        times, period = case
        got = kernels.fold(times, period)
        want = np.mod(times, period)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("period", [1e-3, 5.876065101010647e-06, 0.7])
    def test_grid_of_quotients(self, period):
        # Every multiple k * period up to 2**26 in coarse steps, and its
        # two float neighbours, where the quotient rounds either way.
        k = np.unique(np.r_[np.arange(0, 2 ** 26, 4099), 2 ** 26 - 1])
        base = k * period
        times = np.concatenate([base, np.nextafter(base, -np.inf),
                                np.nextafter(base, np.inf)])
        times = times[times >= 0]
        got = kernels.fold(times, period)
        want = np.mod(times, period)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("period", [1e-3, 1 / 3])
    def test_negative_times(self, period):
        # np.mod rounds period - |t| mod period once; the fast path's last
        # two steps would round it twice (about 2 % of these at 1/3).
        times = np.random.default_rng(4).random(10_000) * -period
        got = kernels.fold(times, period)
        want = np.mod(times, period)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def reference_bin_counts(times, t0, width, n_bins):
    """(counts, overflow), one click at a time: bin floor((t - t0) / w)."""
    counts, overflow = [0] * n_bins, 0
    for t in times:
        x = (t - t0) / width
        if math.isfinite(x) and 0 <= math.floor(x) < n_bins:
            counts[math.floor(x)] += 1
        else:
            overflow += 1
    return counts, overflow


@st.composite
def binned_streams(draw):
    """(times, t0, bin_width, n_bins): times on and around every bin edge
    (t0 + n_bins * w among them), anywhere in the float range, and NaN,
    +-inf and negative, binned with tiny to huge widths."""
    t0 = draw(st.sampled_from([0.0, -1.0, 1e-3])
              | st.floats(-1e6, 1e6, allow_nan=False))
    width = draw(st.sampled_from([5e-324, 1e-300, 100e-9, 0.1, 1e300])
                 | st.floats(1e-12, 1e6))
    n_bins = draw(st.integers(1, 40))
    edges = [t0 + k * width for k in range(-1, n_bins + 2)]
    near = st.sampled_from(edges).flatmap(lambda e: st.sampled_from(
        [e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]))
    times = draw(st.lists(
        near | st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([-0.0, -1e-300, math.nan, math.inf, -math.inf]),
        max_size=60))
    return np.array(times, dtype=np.float64), t0, width, n_bins


class TestBinCountsProperty:
    @settings(max_examples=500)
    @given(binned_streams())
    def test_equals_reference_loop(self, stream):
        times, t0, width, n_bins = stream
        with np.errstate(invalid="ignore", over="ignore"):
            counts, overflow = kernels.bin_counts(times, t0, width, n_bins)
        want_counts, want_overflow = reference_bin_counts(
            times.tolist(), t0, width, n_bins)
        assert counts.dtype == np.int64
        assert counts.tolist() == want_counts
        assert overflow == want_overflow

    def test_edges_and_non_finite(self):
        # The left edge of every bin is in it; t0 + n_bins * w, anything
        # before t0, NaN and +-inf overflow.
        t0, width, n_bins = 1.0, 0.25, 4
        edges = [t0 + k * width for k in range(n_bins + 1)]
        times = np.array(edges + [0.999, -5.0, math.nan, math.inf,
                                  -math.inf])
        counts, overflow = kernels.bin_counts(times, t0, width, n_bins)
        assert counts.tolist() == [1, 1, 1, 1]
        assert overflow == 6


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
    @given(click_streams(), st.sampled_from(BLOCKS))
    def test_equals_reference_loop(self, stream, block):
        times, dead = stream
        with mock.patch.object(kernels, "_BLOCK_CLICKS", block):
            got = kernels.dead_time_filter(times, dead)
        np.testing.assert_array_equal(
            got, reference_dead_time(times.tolist(), dead))


class TestDeadTimeBlockEdges:
    """The order and gap tests go block by block: sets at each block edge
    length, runs of short gaps across the edges, and one fall exactly on
    an edge, against the reference loop."""

    #: Gaps in dead times, repeated: all far; runs of two short gaps; and
    #: a short gap then one that is far only from the kept click.
    PATTERNS = ((1.5,), (0.4, 0.4, 2.0), (0.3, 0.8))

    @pytest.mark.parametrize("block", BLOCKS[:-1])
    def test_equals_reference_loop(self, block):
        for n in edge_lengths(block):
            for pattern in self.PATTERNS:
                times = np.cumsum(np.resize(pattern, n))
                streams = [times]
                if n > block:  # the one fall is the pair across an edge
                    fall = times.copy()
                    fall[[block - 1, block]] = fall[[block, block - 1]]
                    streams.append(fall)
                for t in streams:
                    with mock.patch.object(kernels, "_BLOCK_CLICKS", block):
                        got = kernels.dead_time_filter(t, 1.0)
                    np.testing.assert_array_equal(
                        got, reference_dead_time(t.tolist(), 1.0))


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


def reference_fired(n, lam, rng):
    """``detection._fired`` one scalar draw at a time, in its documented
    order, with Python-int positions."""
    sigmas = detection._FIRE_BLOCK_SIGMAS
    p = [-math.expm1(-x) for x in lam]
    last = [-1 if x > 0 else n - 1 for x in lam]
    pairs = []
    while any(pos < n - 1 for pos in last):
        blocks = []
        for s, pos in enumerate(last):
            if pos < n - 1:
                r = n - 1 - pos
                blocks.append((s, min(r, math.ceil(
                    r * p[s] + sigmas * math.sqrt(r * p[s])))))
        for s, size in blocks:
            pos = last[s]
            for _ in range(size):
                gap = rng.standard_exponential() / lam[s]
                pos = pos + math.floor(gap) + 1 if gap < n else math.inf
                if pos < n:
                    pairs.append((float(pos), s))
            last[s] = min(pos, n - 1)
    return pairs


def run_slots(runs):
    """The slot of each position that ``detection._fired`` returns with
    its (slot, start, stop) runs, which must tile the positions."""
    stops = [stop for _, _, stop in runs]
    assert [start for _, start, _ in runs] == [0, *stops][:len(runs)]
    return np.array([s for s, _, _ in runs], np.intp).repeat(
        np.array([stop - start for _, start, stop in runs], np.intp))


def reference_sample(train, det, acquisition, seed):
    """``sample_clicks``'s times from full-length arrays: one normal draw
    for the jitter, one uniform draw for the darks, a sorted concatenation
    and the reference dead-time loop."""
    rng = np.random.default_rng(seed)
    offsets, mus = train._slots()
    trigger, runs = detection._fired(train.n_triggers, mus * det.efficiency,
                                     rng)
    slot = run_slots(runs)
    signal = trigger * train.period + offsets[slot]
    if det.jitter_sigma_s > 0 and signal.size:
        signal = signal + rng.normal(0.0, det.jitter_sigma_s, signal.size)
    n_dark = rng.poisson(det.dark_rate_hz * acquisition) \
        if det.dark_rate_hz > 0 else 0
    times = np.sort(np.concatenate([signal,
                                    rng.random(n_dark) * acquisition]))
    return times[reference_dead_time(times.tolist(), det.dead_time_s)]


def plain_sample(train, det, acquisition, seed, block):
    """``sample_clicks``'s times in its documented draw order, one scalar
    at a time: :func:`reference_fired`'s rounds, each time ``pos * period
    + offset``, the jitter ``sigma * z`` drawn ``block`` clicks at a time,
    a Poisson count of darks and their uniforms times the acquisition,
    then a sort and the reference dead-time loop."""
    rng = np.random.default_rng(seed)
    order = sorted(range(len(train.offsets)), key=train.offsets.__getitem__)
    lam = [train.mus[s] * det.efficiency for s in order]
    times = [pos * train.period + train.offsets[order[s]]
             for pos, s in reference_fired(train.n_triggers, lam, rng)]
    if det.jitter_sigma_s > 0:
        for start in range(0, len(times), block):
            z = rng.standard_normal(len(times[start:start + block]))
            for k, zk in enumerate(z.tolist(), start):
                times[k] += det.jitter_sigma_s * zk
    if det.dark_rate_hz > 0:
        n_dark = rng.poisson(det.dark_rate_hz * acquisition)
        times += [u * acquisition for u in rng.random(n_dark).tolist()]
    times.sort()
    keep = reference_dead_time(times, det.dead_time_s)
    return [t for t, kept in zip(times, keep) if kept]


@st.composite
def sample_cases(draw):
    """(train, detector, seed) of :func:`trains`, with a dead time of 0,
    within the period or longer than it."""
    train, det, seed = draw(trains())
    dead = draw(st.sampled_from([0.0, 50e-9, train.period / 7,
                                 1.5 * train.period]))
    return train, replace(det, dead_time_s=dead), seed


def fired_pairs(n, lam, seed):
    trigger, runs = detection._fired(n, np.asarray(lam, dtype=np.float64),
                                     np.random.default_rng(seed))
    slot = run_slots(runs)
    assert trigger.dtype == np.float64
    return list(zip(trigger.tolist(), slot.tolist()))


class TestTriggerTrainProperty:
    @settings(max_examples=400, deadline=None)
    @given(trains(), st.sampled_from([0.0, 0.5, 4.0]))
    def test_fired_equals_reference_loop(self, case, sigmas):
        # Blocks below the expected fires (sigmas 0 and 0.5) run extra
        # rounds for some slots and not others.
        train, det, seed = case
        lam = (train._slots()[1] * det.efficiency).tolist()
        with mock.patch.object(detection, "_FIRE_BLOCK_SIGMAS", sigmas):
            got = fired_pairs(train.n_triggers, lam, seed)
            want = reference_fired(train.n_triggers, lam,
                                   np.random.default_rng(seed))
        assert got == want
        # Each slot is drawn as its own train, and fires each trigger once.
        assert len(set(got)) == len(got)

    @settings(max_examples=300, deadline=None)
    @given(trains(), st.sampled_from(BLOCKS))
    def test_equals_full_length_reference(self, case, block):
        # The jitter and the dead-time compaction go block by block; the
        # times must keep every bit and the draw order of full arrays.
        train, det, seed = case
        acquisition = (train.n_triggers + 0.5) * train.period
        with mock.patch.object(kernels, "_BLOCK_CLICKS", block):
            got = sample_clicks(train, det, acquisition, seed)
        want = reference_sample(train, det, acquisition, seed)
        assert got.times.view(np.int64).tolist() \
            == want.view(np.int64).tolist()

    @settings(max_examples=300, deadline=None)
    @given(sample_cases(), st.sampled_from(BLOCKS),
           st.sampled_from([0.0, 4.0]))
    def test_equals_plain_reference(self, case, block, sigmas):
        # Bit for bit, in the documented draw order; sigmas 0 makes some
        # slots draw more rounds than others.
        train, det, seed = case
        acquisition = (train.n_triggers + 0.5) * train.period
        with mock.patch.object(kernels, "_BLOCK_CLICKS", block), \
                mock.patch.object(detection, "_FIRE_BLOCK_SIGMAS", sigmas):
            got = sample_clicks(train, det, acquisition, seed)
            want = plain_sample(train, det, acquisition, seed, block)
        assert got.times.view(np.int64).tolist() \
            == np.array(want).view(np.int64).tolist()

    @settings(max_examples=200, deadline=None)
    @given(trains())
    def test_equals_materialized_stream(self, case):
        train, det, seed = case
        acquisition = (train.n_triggers + 0.5) * train.period
        got = sample_clicks(train, det, acquisition, seed, detector_id=1)
        assert (np.diff(got.times) >= 0).all()
        assert len(list(train)) == len(train)

    @pytest.mark.parametrize("lam", [
        (0.63, 0.27), (0.63, 0.009), (0.009, 0.63), (2.0, 0.0, 1e-4, 0.3),
        (1e-300, 0.5, 5e-324), (0.1,) * 6, (30.0, 0.02, 0.02)])
    @pytest.mark.parametrize("sigmas", [0.0, 4.0])
    def test_fired_equals_padded_block(self, lam, sigmas):
        # Edge rates (subnormal, zero, every trigger firing) on a fixed
        # grid: the pairs and their order are the scalar reference's, and
        # the positions float64 (``fired_pairs``), also when blocks fall
        # short (sigmas 0) and some slots draw more rounds than others.
        with mock.patch.object(detection, "_FIRE_BLOCK_SIGMAS", sigmas):
            for n in (1, 2, 37, 20_000):
                for seed in range(4):
                    assert fired_pairs(n, lam, seed) == reference_fired(
                        n, lam, np.random.default_rng(seed))

    @pytest.mark.parametrize("layout", ["one-slot", "four-slot"])
    def test_fired_counts_match_rate(self, layout):
        # Fires per slot within 5 sigma of n * p over 20 seeds, from rates
        # far below the fig2 sweeps' to every trigger firing.
        lams = np.array([1e-3, 0.025, 0.3, 5.0])
        n = 60_000
        p = -np.expm1(-lams)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if layout == "one-slot":
                counts = [detection._fired(n, lams[[s]], rng)[0].size
                          for s in range(lams.size)]
            else:
                trigger, runs = detection._fired(n, lams, rng)
                slot = run_slots(runs)
                counts = np.bincount(slot, minlength=lams.size)
                for s in range(lams.size):
                    t = trigger[slot == s]
                    assert (np.diff(t) >= 1).all() and t.max() < n
            assert (np.abs(np.asarray(counts) - n * p)
                    <= 5 * np.sqrt(n * p * (1 - p))).all(), counts

    @pytest.mark.parametrize("n", [10 ** 15, 2 ** 53])
    @pytest.mark.parametrize("lam_n", [3.0, 1e-280])
    def test_huge_train_tiny_mu(self, n, lam_n):
        # Gaps of about n / 3 triggers or far beyond n: positions stay
        # whole numbers below n, as Python ints give them.
        lam = [lam_n / n]
        for seed in range(5):
            got = fired_pairs(n, lam, seed)
            assert got == reference_fired(n, lam, np.random.default_rng(seed))
            assert all(0 <= t < n and t == int(t) for t, _ in got)
        det = DetectorModel(efficiency=1.0, dark_rate_hz=0.0)
        train = TriggerTrain(1e-9, n, (5e-10,), (lam_n / n,))
        clicks = sample_clicks(train, det, n * 1e-9, 1)
        assert len(clicks) < 40
        assert ((clicks.times >= 0) & (clicks.times < n * 1e-9)).all()


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
