"""Host-speed calibration for timings taken on a shared machine.

On a VM whose cores are shared with other tenants, the speed of one core
swings by up to 2x over a few seconds, and a slow phase can last longer
than a whole run: the spread of a 10-second window's median over a
4-minute trace was about 50%.  The benchmark therefore runs a fixed
reference kernel (:func:`calibrate`) right after every timed operation
and scales each operation's time by how slow the kernel ran around it.
A scaled time reads as "seconds on a core running the kernel in
``REFERENCE_S``".  Program changes move scaled times exactly as they move
raw ones; co-tenant load moves both the operation and the kernel, and
cancels.  Raw times are printed beside the scaled ones in the report.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import resource
import time
from typing import Tuple

import numpy as np

#: Kernel time on an unloaded core of a 2-vCPU x86 VM (lower decile).
REFERENCE_S = 0.0030

_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
#: Larger than a last-level cache, so copying it tracks memory bandwidth.
_BUFFER = np.ones(1 << 20)


def _kernel() -> float:
    began = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i
    table = {}
    for i in range(4_000):
        table[i % 97] = i
    for _ in range(16):
        _MATRIX @ _MATRIX
    for _ in range(2):
        _BUFFER.copy()
    return time.perf_counter() - began


def calibrate() -> float:
    """Seconds the reference kernel takes now: interpreter loop, dict
    churn, small matrix products and a cache-busting copy, the mix the
    package itself runs.  Best of three, because the first run after an
    operation competes with the operation's idling helper threads (BLAS
    workers spin for a few milliseconds after their last product)."""
    return min(_kernel() for _ in range(3))


try:
    _LIBC = ctypes.CDLL(ctypes.util.find_library("c"))
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc
    _LIBC = None


def _reset_peak_rss() -> None:
    """Return freed heap pages to the system, then restart the kernel's
    resident-set high-water mark (Linux >= 4.0).

    Without the trim, heap fragmentation left by earlier operations
    raises every later peak, so a run's peaks would depend on how many
    operations it did before.
    """
    if _LIBC is not None:
        _LIBC.malloc_trim(0)
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """Resident-set high-water mark since the last reset, in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stopwatch:
    """Times consecutive operations, each bracketed by two calibrations,
    and records the peak resident set of each."""

    def __init__(self) -> None:
        self._cal = calibrate()
        self.resume()

    def resume(self) -> None:
        """Start the next operation now (after untimed benchmark work)."""
        _reset_peak_rss()
        self._mark = time.perf_counter()

    def lap(self) -> Tuple[float, float, float]:
        """``(raw s, scaled s, peak MiB)`` of the operation since the last
        lap or resume; the next operation starts when this returns."""
        raw = time.perf_counter() - self._mark
        peak = _peak_rss_mb()
        cal = calibrate()
        scaled = raw * REFERENCE_S / ((self._cal + cal) / 2)
        self._cal = cal
        self.resume()
        return raw, scaled, peak
