"""Machine-speed calibration for a shared, noisy host.

On a host whose cores are shared with other tenants, the same code runs up to
about 1.7x slower while a neighbour is busy, in phases of seconds to minutes.
The benchmark times a fixed kernel that does not touch qclab right before and
after each measured interval and rescales the interval to the kernel's speed
on an uncontended core:

    normalized = wall * reference / mean(kernel before, kernel after)

A change to qclab moves the normalized time exactly as it moves the wall
time; a busy neighbour slows the kernel and the interval together and cancels.
A workload whose code suffers less from a busy neighbour than the kernel
raises the factor to a power below 1 (its SPEED_EXPONENT).
The study kernel mixes interpreted `Fraction` arithmetic (like the
certificate and the classification loops) with array passes larger than L2
(like assembly and the solver). The start-up kernel is interpreter-only and
imports nothing, so it can run before `import qclab`.
"""

from __future__ import annotations

import time

# Kernel times on an uncontended core of the reference machine
# (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.029
STARTUP_REFERENCE_S = 0.021


def startup_kernel_s() -> float:
    """Wall time of an interpreter-only kernel that imports nothing, so it
    can bracket process start-up and `import qclab`."""
    t = time.perf_counter()
    acc, table = 0, {}
    for i in range(160000):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    sorted(table.values())
    return time.perf_counter() - t


def kernel_s() -> float:
    """Wall time of one pass of the study calibration kernel."""
    from fractions import Fraction

    import numpy as np

    t = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 7500):
        s += Fraction(1, i % 97 + 1)
    a = np.arange(1 << 18, dtype=float)
    for k in range(18):
        a = a + np.roll(a, k) * 1e-3
    return time.perf_counter() - t


def scale(before: float, after: float, reference: float = REFERENCE_S) -> float:
    """Factor that maps a wall interval bracketed by two kernel timings to the
    reference speed."""
    return reference / (0.5 * (before + after))
