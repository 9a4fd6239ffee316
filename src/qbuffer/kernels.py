"""Hot detection kernels: dead-time filtering and time-tag binning.

Both are exact numpy implementations. The dead-time filter follows the
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


def bin_counts(times, t0: float, bin_width: float, n_bins: int):
    """(counts, overflow) for left-closed bins [t0 + k*w, t0 + (k+1)*w)."""
    _checked("t0", t0)
    _checked("bin_width", bin_width, gt=0, label="bin width")
    _checked("n_bins", n_bins, ge=1, integer=True, label="bin count")
    t = _clean_times(times)
    idx = np.floor((t - float(t0)) / float(bin_width))
    in_range = (idx >= 0.0) & (idx < int(n_bins))
    counts = np.bincount(idx[in_range].astype(np.int64),
                         minlength=int(n_bins)).astype(np.int64)
    overflow = int(t.shape[0] - np.count_nonzero(in_range))
    return counts, overflow
