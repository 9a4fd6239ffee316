"""Click statistics for weak coherent pulses on single-photon detectors.

A coherent pulse of mean photon number mu seen by a detector of efficiency
eta clicks with probability 1 - exp(-mu * eta) (Poisson photon statistics);
dark counts contribute 1 - exp(-rate * window) over a counting window, and
the two are combined as the complement of no click from either source.
Monte Carlo sampling realizes the same model per trigger, adding Gaussian
timing jitter and non-paralyzable dead time.

All randomness flows through one seed per call; identical (inputs, seed)
give identical click sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InputDomainError, _array, _checked


@dataclass(frozen=True)
class DetectorModel:
    """Efficiency, dark rate, dead time and timing jitter of one detector."""

    efficiency: float = 0.90
    dark_rate_hz: float = 100.0
    dead_time_s: float = 50e-9
    jitter_sigma_s: float = 50e-12

    def __post_init__(self):
        _checked("efficiency", self.efficiency, ge=0, le=1)
        for name in ("dark_rate_hz", "dead_time_s", "jitter_sigma_s"):
            _checked(name, getattr(self, name), ge=0)


#: Picosecond tags are int64; |t| * 1e12 must stay below 2**63 (~9.22e6 s).
_TAG_LIMIT_PS = 2.0 ** 63

#: An array of 8-byte click times holds fewer than 2**60 elements.
_MAX_CLICKS = 2.0 ** 60

#: Standard deviations of a slot's fire count that its gap block adds to
#: the expected count: a second round is drawn for about 3e-5 of slots.
_FIRE_BLOCK_SIGMAS = 4.0

#: 10**1 .. 10**19: a magnitude below 10**k has at most k decimal digits,
#: so a column no wider than k digits searches only the first k - 1.
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


@functools.cache
def _digit_groups() -> np.ndarray:
    """uint32 entry i holds the four ASCII digits of i (0000-9999) as bytes.

    Built on first use, so a run that writes no click file never pays for
    it, not even at import.
    """
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    table = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"),
                     axis=-1).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


def _kept_columns(width: int) -> np.ndarray:
    """``[negative, n_digits]`` -> which of [sign, ``width`` digits] print."""
    kept = np.empty((2, width + 1, width + 1), bool)
    kept[..., 0] = np.array([False, True])[:, None]
    kept[..., 1:] = np.arange(width) >= width - np.arange(width + 1)[:, None]
    return kept


def _csv_rows(ps: np.ndarray, suffix: bytes) -> np.ndarray:
    """ASCII bytes of the rows ``f"{p}"`` + ``suffix`` for int64 ``ps``.

    The time column is laid out at the width of its widest value, with a
    sign column only if a value is negative, in one flat buffer of rows.
    Its zero-padded digits come four at a time from the digit-group table
    (the trick of the {fmt} library's integer formatter): one ``// 10000``
    pass and one row-strided, unaligned uint32 store per group. The
    leading group may overhang the previous row's suffix (or a lead-in
    before the first row) by up to three bytes, so the sign and suffix
    columns are written after the digits. A block whose rows all
    print at that width (one sign and one digit count, read from its
    extremes, as in nearly every block of a sorted click set) is returned
    as laid out. Otherwise one boolean mask drops the unused sign and
    leading-zero columns of the narrower rows. The mask's rows are
    gathered from a table of every (sign, digit count) combination, which
    is several times faster than comparing short rows.
    """
    if not ps.size:
        return np.empty(0, np.uint8)
    lo, hi = int(ps.min()), int(ps.max())
    sign = lo < 0
    n_lo, n_hi = len(str(abs(lo))), len(str(abs(hi)))
    width = max(n_lo, n_hi)
    wt = sign + width
    n, row_bytes = ps.size, wt + len(suffix)
    lead = max(0, -width % 4 - sign)  # the first row's overhang
    flat = np.empty(lead + n * row_bytes, np.uint8)
    table = _digit_groups()
    u = np.abs(ps).view(np.uint64)  # -2**63 wraps to itself, read as 2**63
    q = u
    for at in range(lead + wt - 4, lead + sign - 4, -4):  # low group first
        d = q // 10_000
        np.ndarray(n, np.uint32, flat, at, (row_bytes,))[...] = \
            table.take(q - d * 10_000)
        q = d
    if sign:
        flat[lead::row_bytes] = ord("-")
    for k, byte in enumerate(suffix):  # 3x faster than broadcasting it
        flat[lead + wt + k::row_bytes] = byte
    rows = flat[lead:]
    if (hi < 0) == sign and n_lo == n_hi:
        return rows
    n_digits = np.searchsorted(_POW10[:width - 1], u, side="right") + 1
    kept = np.ones((2, width + 1, row_bytes), bool)
    kept[..., :wt] = _kept_columns(width)[..., not sign:]
    row = (ps < 0) * (width + 1) + n_digits
    return rows.reshape(n, row_bytes)[
        kept.reshape(-1, row_bytes).take(row, axis=0)]


@dataclass(frozen=True, eq=False)
class ClickSet:
    """One detector's clicks: their times in seconds and its integer id.

    ``sample_clicks`` returns them in time order; counting and binning do
    not need any order. Every time must be finite and have an int64
    picosecond tag, and the id must fit in int64, so :meth:`write_csv`
    can never wrap.
    """

    times: np.ndarray
    detector_id: int
    acquisition_s: float
    #: Whether no time is below the one before it.
    _in_order: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        # A view, so freezing it below leaves the caller's array writeable.
        t = kernels._clean_times(self.times).view()
        _checked("detector_id", self.detector_id, ge=-2 ** 63, lt=2 ** 63,
                 integer=True, label="detector id")
        _checked("acquisition_s", self.acquisition_s, ge=0)
        in_order = kernels._never_falls(t)
        if t.size:
            # In order, the ends are the extremes; min and max propagate
            # NaN, which fails both comparisons.
            lo, hi = (t[0], t[-1]) if in_order else (t.min(), t.max())
            if not (-_TAG_LIMIT_PS < float(lo) * 1e12
                    and float(hi) * 1e12 < _TAG_LIMIT_PS):
                raise InputDomainError("click times must be finite with "
                                       "|t| < 2**63 ps (~9.22e6 s)")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "_in_order", in_order)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def write_csv(self, path) -> None:
        """``time_ps,detector_id`` rows, as a hardware time tagger reports
        them: each time rounded to the nearest picosecond, ties to even.
        Rows are tagged and formatted one block at a time."""
        step = kernels._BLOCK_CLICKS
        suffix = f",{self.detector_id}\n".encode()
        with open(path, "wb") as fh:
            fh.write(b"time_ps,detector_id\n")
            for start in range(0, len(self), step):
                ps = np.rint(self.times[start:start + step] * 1e12)
                fh.write(_csv_rows(ps.astype(np.int64), suffix))


@dataclass(frozen=True, eq=False)
class Histogram:
    """Fixed-width time-tag histogram; bin k is [t0 + k*w, t0 + (k+1)*w)."""

    t0: float
    bin_width: float
    counts: np.ndarray
    overflow: int = 0

    def __post_init__(self):
        _checked("t0", self.t0)
        _checked("bin_width", self.bin_width, gt=0, label="bin width")
        _checked("overflow", self.overflow, ge=0, integer=True)
        raw = _array("counts", np.asarray, self.counts)
        if raw.ndim != 1:
            raise InputDomainError("counts must be a 1-D array", "counts")
        # Integers pass; floats must be whole (NaN fails both comparisons,
        # and 2**63 and beyond would wrap); bools and the rest never do.
        if raw.dtype.kind not in "iu" and not (raw.dtype.kind == "f" and (
                (raw == np.trunc(raw)) & (np.abs(raw) < 2.0**63)).all()):
            raise InputDomainError("counts must be whole numbers", "counts")
        if raw.dtype.kind == "u" and (raw >= 2**63).any():  # would wrap
            raise InputDomainError("counts must be below 2**63", "counts")
        c = np.ascontiguousarray(raw, dtype=np.int64).view()
        if (c < 0).any():
            raise InputDomainError("counts must be non-negative", "counts")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + int(self.overflow)

    def bin_start(self, k: int) -> float:
        return self.t0 + k * self.bin_width

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("bin_start_s,counts\n")
            for k, c in enumerate(self.counts.tolist()):
                fh.write(f"{self.bin_start(k)!r},{c}\n")


def click_probability(mu, det: DetectorModel, window: float):
    """Probability of at least one click from a pulse of mean photon number
    ``mu`` within a counting window: a float for a number, one per element
    for a float64 array. Each element takes its own scalar ``math.exp``, so
    it has the bits of the call on that element alone."""
    x = _array("mu", np.asarray, mu, dtype=np.float64)
    ok = (x >= 0) & (x < math.inf)  # both False for NaN
    if not ok.all():
        raise InputDomainError(
            f"mean photon number {x[~ok][0]} must be finite and >= 0")
    _checked("window", window, ge=0)
    p = _click_probability(x, det, window)
    return float(p) if p.ndim == 0 else p


def _click_probability(x: np.ndarray, det: DetectorModel,
                       window: float) -> np.ndarray:
    """:func:`click_probability` of a float64 array it has checked."""
    no_signal = map(math.exp, (x * -det.efficiency).ravel().tolist())
    return 1.0 - np.fromiter(no_signal, np.float64, x.size).reshape(x.shape) \
        * math.exp(-det.dark_rate_hz * window)


@dataclass(frozen=True)
class TriggerTrain:
    """The same pulse slots repeated over a train of triggers.

    Trigger j (0 <= j < n_triggers) carries slot s at time
    ``j * period + offsets[s]`` with mean photon number ``mus[s]``. Every
    offset lies in [0, period), so the pulses of one trigger precede the
    next trigger. Pulses are ordered trigger-major, and within a trigger by
    offset (a stable sort, so equal offsets keep their slot order); a train
    iterates its ``(t, mu)`` pulses in that order, and
    :func:`sample_clicks` draws its slots in that offset order.
    """

    period: float
    n_triggers: int
    offsets: tuple
    mus: tuple

    def __post_init__(self):
        _checked("n_triggers", self.n_triggers, ge=1, integer=True,
                 label="trigger count")
        _checked("period", self.period, gt=0)
        offsets = _array("offsets", tuple, self.offsets)
        mus = _array("mus", tuple, self.mus)
        if not offsets or len(offsets) != len(mus):
            raise InputDomainError(
                "a train needs one or more slots, each with an offset and "
                "an amplitude", "offsets")
        for i, (offset, mu) in enumerate(zip(offsets, mus)):
            _checked(f"offsets[{i}]", offset, ge=0, lt=self.period)
            _checked(f"mus[{i}]", mu, ge=0)
        object.__setattr__(self, "offsets", tuple(float(o) for o in offsets))
        object.__setattr__(self, "mus", tuple(float(m) for m in mus))

    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, mus) of the slots in draw order."""
        order = sorted(range(len(self.offsets)), key=self.offsets.__getitem__)
        return (np.array([self.offsets[s] for s in order]),
                np.array([self.mus[s] for s in order]))

    def __len__(self) -> int:
        return int(self.n_triggers) * len(self.offsets)

    def __iter__(self):
        offsets, mus = self._slots()
        triggers = np.arange(self.n_triggers, dtype=np.float64) * self.period
        times = (triggers[:, None] + offsets).ravel()
        return zip(times.tolist(), itertools.cycle(mus.tolist()))


def _fired(n: int, lam: np.ndarray, rng) -> tuple[np.ndarray, list]:
    """(positions, runs): the triggers, of ``n``, at which slot s fires with
    probability ``1 - exp(-lam[s])``, and runs of (slot, start, stop), each
    slot's positions ``positions[start:stop]``.

    A slot fires at the partial sums, from -1, of geometric gaps
    ``floor(E / lam) + 1``, E standard exponential (L. Devroye, *Non-Uniform
    Random Variate Generation*, Springer 1986, ch. X): O(slots + fired
    pulses) draws, not one per pulse. In each round, every slot whose last
    position is below n - 1 (at first, each with lam > 0) draws in turn
    its expected fires and a few standard deviations, ``min(r, ceil(r*p +
    _FIRE_BLOCK_SIGMAS * sqrt(r*p)))`` gaps for r triggers left and p = 1 -
    exp(-lam), in one ``standard_exponential`` draw. Runs come by round,
    then slot; positions, float64 and exact below 2**53, by trigger.
    """
    p = (-np.expm1(-lam)).tolist()
    end = float(n - 1)  # as numpy compares an int with float64
    live = [(s, x, p[s], -1.0) for s, x in enumerate(lam.tolist()) if x > 0]
    parts, runs, size = [], [], 0
    with np.errstate(over="ignore"):  # a gap past 1e308 is still past n
        while live:
            drawing, live = live, []
            for s, lam_s, p_s, last in drawing:
                rp = (end - last) * p_s
                seg = np.empty(int(min(end - last, math.ceil(
                    rp + _FIRE_BLOCK_SIGMAS * math.sqrt(rp)))))
                rng.standard_exponential(out=seg)
                seg /= lam_s
                np.floor(seg, out=seg)
                seg += 1.0
                seg[0] += last
                seg.cumsum(out=seg)
                f = int(seg.searchsorted(n))
                parts.append(seg[:f])
                runs.append((s, size, size + f))
                size += f
                last = float(seg[-1])  # positions never fall
                if last < end:
                    live.append((s, lam_s, p_s, last))
    if len(parts) == 1:  # a sole run is a view of its draw
        return parts[0], runs
    return np.concatenate(parts or [np.empty(0)]), runs


def sample_clicks(train: TriggerTrain, det: DetectorModel,
                  acquisition: float, seed,
                  detector_id: int = 0) -> ClickSet:
    """Monte Carlo click times for a :class:`TriggerTrain` on one detector.

    The train is sampled from its slots without building the whole pulse
    stream. Signal clicks are the pulses that fire (:func:`_fired`, with
    lam = mu * efficiency) at their arrival time plus Gaussian jitter; dark
    clicks are Poisson-distributed uniformly over the acquisition; clicks
    within the dead time of a prior kept click on this detector are
    suppressed. Draw order is fixed, so a given seed, an integer >= 0 or a
    ``np.random.SeedSequence``, always yields the same click set.

    Memory: the signal times are built in :func:`_fired`'s output and
    jittered block by block; the dark times are drawn into the tail of one
    times array, sorted and compacted in place. Above the click set, a
    call holds its fired pulses' positions and O(block) temporaries.
    """
    if not isinstance(train, TriggerTrain):
        raise InputDomainError(
            f"train must be a TriggerTrain, not {type(train).__name__}",
            "train")
    if not isinstance(det, DetectorModel):
        raise InputDomainError(
            f"det must be a DetectorModel, not {type(det).__name__}", "det")
    _checked("acquisition", acquisition, ge=0)
    if not isinstance(seed, np.random.SeedSequence):
        _checked("seed", seed, ge=0, integer=True)
    if not det.dark_rate_hz * acquisition < _MAX_CLICKS:
        raise InputDomainError(
            f"{det.dark_rate_hz * acquisition} expected dark clicks exceed "
            "the 2**60 click times one array can hold")
    rng = np.random.default_rng(seed)
    offsets, mus = train._slots()
    n, period = int(train.n_triggers), train.period
    if not n * offsets.size < _MAX_CLICKS:
        raise InputDomainError(
            f"{n} triggers x {offsets.size} slots: {n * offsets.size} "
            "pulses exceed the 2**60 click times one array can hold")
    if (n - 1) * period + offsets.max() > acquisition:
        raise InputDomainError("acquisition must cover all pulse times")
    signal, runs = _fired(n, mus * det.efficiency, rng)
    # The float operations of arange(n) * period + offsets, fired pulses
    # only, one slot's run at a time, plus normal(0, sigma) = 0.0 + sigma *
    # standard_normal, whose draws come in the same order block by block.
    signal *= period
    for s, start, stop in runs:
        signal[start:stop] += offsets[s]
    step = kernels._BLOCK_CLICKS
    if det.jitter_sigma_s > 0:
        for start in range(0, signal.size, step):
            block = signal[start:start + step]
            block += det.jitter_sigma_s * rng.standard_normal(block.size)

    n_dark = rng.poisson(det.dark_rate_hz * acquisition) \
        if det.dark_rate_hz > 0 else 0
    times = np.empty(signal.size + n_dark)
    times[:signal.size] = signal
    dark = rng.random(out=times[signal.size:])
    del signal
    dark *= acquisition

    # One detector for every click, so a plain value sort is enough.
    times.sort()
    keep = kernels.dead_time_filter(times, det.dead_time_s)
    if not keep.all():  # move the survivors forward, block by block
        n_kept = 0
        for start in range(0, times.size, step):
            kept = times[start:start + step][keep[start:start + step]]
            times[n_kept:n_kept + kept.size] = kept
            n_kept += kept.size
        times = times[:n_kept]
    return ClickSet(times, detector_id, acquisition)


def _substream(seed: int, *key: int) -> np.random.SeedSequence:
    """``SeedSequence([seed, *key])`` of one sampling task, given the uint32
    words numpy splits it into (low first), which convert faster."""
    words = [k >> w & 0xFFFFFFFF for k in (int(seed), *map(int, key))
             for w in range(0, max(k.bit_length(), 1), 32)]
    return np.random.SeedSequence(np.array(words, np.uint32))


def histogram(clicks: ClickSet, t0: float, bin_width: float,
              n_bins: int) -> Histogram:
    """Bin click times; out-of-range clicks land in the overflow tally."""
    counts, overflow = kernels.bin_counts(clicks.times, t0, bin_width, n_bins)
    return Histogram(t0, bin_width, counts, overflow)


def count_triggered(clicks: ClickSet, period: float, offset: float,
                    window: float) -> int:
    """Number of distinct trigger periods with a click inside the gate
    [offset - window/2, offset + window/2) relative to the trigger. The
    clicks are counted in time order; a set out of order is sorted
    first."""
    _checked("period", period, gt=0)
    _checked("offset", offset)
    _checked("window", window, ge=0)
    t = clicks.times
    if not clicks._in_order:
        t = np.sort(t)
    lo, hi = offset - window / 2.0, offset + window / 2.0
    # In time order the trigger never falls, nor rel within a trigger, so
    # a trigger's hits are adjacent: a hit counts unless it follows a hit
    # of the same trigger. Blocks bound the in-place temporaries.
    count, last = 0, math.nan  # trigger of a hit ending the last block
    step = kernels._BLOCK_CLICKS
    for start in range(0, t.size, step):
        block = t[start:start + step]
        trigger = block / period
        np.floor(trigger, out=trigger)
        rel = trigger * period
        np.subtract(block, rel, out=rel)
        hit = rel >= lo
        hit &= rel < hi
        repeat = trigger[1:] == trigger[:-1]
        repeat &= hit[1:]
        repeat &= hit[:-1]
        count += (np.count_nonzero(hit) - np.count_nonzero(repeat)
                  - bool(hit[0] and trigger[0] == last))
        last = trigger[-1] if hit[-1] else math.nan
    return int(count)
