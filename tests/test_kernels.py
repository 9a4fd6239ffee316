import os
import subprocess
import sys

import numpy as np
import pytest

from qbuffer import kernels
from qbuffer.errors import InputDomainError

BACKENDS = kernels.available_backends()
needs_compiled = pytest.mark.skipif(
    "compiled" not in BACKENDS, reason="compiled kernels not built")


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


@needs_compiled
class TestBackendParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_dead_time_bit_identical(self, seed):
        rng = np.random.default_rng(100 + seed)
        times = np.sort(rng.uniform(0, 1.0, 20_000))
        dead = rng.uniform(0, 1e-4)
        masks = [impl.dead_time_filter(
            np.ascontiguousarray(times), float(dead))
            for impl in BACKENDS.values()]
        np.testing.assert_array_equal(masks[0], masks[1])

    @pytest.mark.parametrize("seed", range(8))
    def test_bin_counts_bit_identical(self, seed):
        rng = np.random.default_rng(200 + seed)
        times = rng.uniform(-0.2, 1.2, 20_000)
        results = [impl.bin_counts(np.ascontiguousarray(times), 0.0,
                                   1e-3, 1000)
                   for impl in BACKENDS.values()]
        np.testing.assert_array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]


class TestBackendSelection:
    def test_active_backend_is_known(self):
        assert kernels.BACKEND in BACKENDS

    def test_env_forces_python(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "from qbuffer import kernels; print(kernels.BACKEND)"],
            env=dict(os.environ, QBUF_KERNELS="python"),
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "python"

    def test_env_unknown_backend_rejected(self):
        out = subprocess.run(
            [sys.executable, "-c", "from qbuffer import kernels"],
            env=dict(os.environ, QBUF_KERNELS="bogus"),
            capture_output=True, text=True)
        assert out.returncode != 0
        assert "unknown kernel backend" in out.stderr
