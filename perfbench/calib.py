"""Speed calibration for a shared machine.

Neighbouring load on a shared VM slows this process by up to a factor of
two for seconds at a time.  The benchmark times a fixed kernel next to
every measured window and reports times and rates scaled to reference
speed.  The kernels mimic the workloads' hot loops, because slow phases
slow pure-Python byte and integer work and numpy calls on tiny arrays by
different factors; a workload whose loop mixes both is calibrated with
both.  numpy is imported only by its kernel, so a setup measurement that
calibrates first still pays for its own numpy import.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter


def _python_kernel() -> None:
    data = bytes(range(256)) * 8
    s = list(range(256))
    j = acc = 0
    for _ in range(4):
        for i in range(256):
            j = (j + s[i] + data[i]) & 0xFF
            s[i], s[j] = s[j], s[i]
        for b in data:
            acc = ((acc << 1) ^ b ^ s[acc & 0xFF]) & 0xFFFFFFFF


@functools.cache
def _points():
    import numpy as np

    return np.random.default_rng(0).uniform(0.0, 500.0, size=(49, 2))


def _numpy_kernel() -> None:
    import numpy as np

    points = _points()
    acc = 0.0
    for i in range(800):
        acc += float(np.hypot(*(points[i % 49] - points[i * 7 % 49])))


# kernel -> its time at reference speed: about what it takes on a 2-vCPU
# x86-64 VM with Python 3.11 and numpy 2.4 when neighbours are quiet
KERNELS = {"python": (_python_kernel, 0.0014), "numpy": (_numpy_kernel, 0.0019)}


def calibrate(kinds: "tuple[str, ...]") -> float:
    """Machine speed now relative to reference speed: the kernels' summed
    reference time over their summed mean time in five runs after a
    warm-up run."""
    ref_s = mean_s = 0.0
    for kind in kinds:
        kernel, ref = KERNELS[kind]
        kernel()
        times = []
        for _ in range(5):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        ref_s += ref
        mean_s += statistics.fmean(times)
    return ref_s / mean_s
