"""Hot detection kernels: dead-time filtering, folding and time-tag binning.

All are exact numpy implementations. The dead-time filter follows the
non-paralyzable model (J. W. Müller, "Dead-time problems", Nucl. Instrum.
Methods 112, 1973): a click is kept iff no earlier click is kept, or it
falls at least the dead time after the previous kept click; suppressed
clicks do not extend the dead window.
"""

from __future__ import annotations

import numpy as np

from .errors import _checked

#: Clicks per block of every full-length pass over a click set: enough to
#: amortize numpy's per-call cost, few enough that a block's temporaries
#: stay in cache. A pass needs the click set plus O(block) memory.
_BLOCK_CLICKS = 1 << 13


def _clean_times(times) -> np.ndarray:
    return np.ascontiguousarray(times, dtype=np.float64)


def _never_falls(t: np.ndarray) -> bool:
    """Whether no element of ``t`` is below the one before it (a NaN
    compares as a fall), checked one block of neighbours at a time."""
    step = _BLOCK_CLICKS
    return all((w[1:] >= w[:-1]).all() for w in (
        t[s:s + step + 1] for s in range(0, t.size - 1, step)))


def dead_time_filter(times, dead_time: float) -> np.ndarray:
    """Boolean keep-mask for sorted click times under non-paralyzable
    dead time.

    In a sorted stream, a click at least ``dead_time`` after the previous
    *raw* click is also that far from the previous kept click, so it is
    kept without a scan. Only clicks after a shorter (or NaN) gap go
    through the sequential scan. Unsorted input is scanned click by click,
    so the mask is the same as the plain loop for any input. The order and
    gap tests go block by block, so they add O(block) memory to the mask.
    """
    _checked("dead_time", dead_time, ge=0, label="dead time")
    dead_time = float(dead_time)
    t = _clean_times(times)
    keep = np.ones(t.shape[0], dtype=bool)
    if _never_falls(t):
        step = _BLOCK_CLICKS
        with np.errstate(invalid="ignore"):  # inf - inf is a short gap
            for s in range(1, t.size, step):
                w = t[s - 1:s + step]
                np.greater_equal(w[1:] - w[:-1], dead_time,
                                 out=keep[s:s + step])
        if keep.all():  # no gap shorter than the dead time: nothing to scan
            return keep
    else:
        keep[1:] = False
    scan = np.flatnonzero(~keep)
    # Each run of consecutive scanned clicks follows a kept click.
    run_start = np.ones(scan.size, dtype=bool)
    run_start[1:] = scan[1:] != scan[:-1] + 1
    bounds = np.flatnonzero(run_start).tolist() + [scan.size]
    values = t[scan].tolist()
    kept = []
    for r, last in enumerate(t[scan[run_start] - 1].tolist()):
        for k in range(bounds[r], bounds[r + 1]):
            if values[k] - last >= dead_time:
                last = values[k]
                kept.append(k)
    keep[scan[kept]] = True
    return keep


def fold(times, period: float) -> np.ndarray:
    """``np.mod(times, period)`` for a period > 0, equal to it bit for bit.

    np.mod's ``fmod`` divides bit by bit. For times >= 0 whose quotients
    are below 2**26, k = floor(t / period) is the quotient or one more,
    and with ``period = hi + lo`` split by Veltkamp's method (T. J.
    Dekker, Numer. Math. 18, 1971) k * hi, k * lo and t - k * hi are
    exact, so ``(t - k * hi) - k * lo`` is the exact remainder or it
    minus the period, which adding the period back makes exact. Other
    times, and a period out of [2**-900, 2**900], go through np.mod.
    """
    t = _clean_times(times)
    k = t / period
    np.floor(k, out=k)
    if not (t.size and t.min() >= 0.0 and k.max() < 2.0 ** 26
            and 2.0 ** -900 < period < 2.0 ** 900):
        return np.mod(t, period)
    c = 134217729.0 * period  # 2**27 + 1: hi is period to 26 bits
    hi = c - (c - period)
    r = k * hi
    np.subtract(t, r, out=r)
    k *= period - hi
    r -= k
    np.add(r, period, out=r, where=r < 0.0)
    return r


def bin_counts(times, t0: float, bin_width: float, n_bins: int):
    """(counts, overflow) for left-closed bins [t0 + k*w, t0 + (k+1)*w).

    Each index ``floor((t - t0) / w)`` is clamped in place to [-1, n_bins],
    a NaN to n_bins; read as unsigned, -1 clamps to n_bins too, so one
    bincount of n_bins + 1 counts the bins and the overflow.
    """
    _checked("t0", t0)
    _checked("bin_width", bin_width, gt=0, label="bin width")
    _checked("n_bins", n_bins, ge=1, integer=True, label="bin count")
    n = int(n_bins)
    idx = _clean_times(times) - float(t0)
    idx /= float(bin_width)
    np.floor(idx, out=idx)
    np.fmin(idx, n, out=idx)  # a NaN becomes n
    np.fmax(idx, -1.0, out=idx)  # so that the cast below is defined
    bins = idx.astype(np.intp)
    wrapped = bins.view(np.uintp)
    np.minimum(wrapped, n, out=wrapped)
    counts = np.bincount(bins, minlength=n + 1)
    return counts[:n], int(counts[n])
