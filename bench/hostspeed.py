"""Host speed reference for timings taken on a shared machine.

On shared virtual machines the same code runs up to ~1.5x slower for
seconds to minutes at a time, because of neighbours we cannot see or
control. `kernel_s` times a fixed piece of work that does not touch
entclone (Python integer arithmetic, dict and tuple churn like the Fock
layer's, and small dense linear algebra like qmath's and the MLE's). The
benchmark runs it between requests; dividing a request's time by the
kernel's slowdown at that moment (``speed``) reports the request as it
would run on the unloaded reference host. Raw times are reported as well.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# kernel_s() on the reference host, an unloaded 2-CPU x86-64 (Xeon) virtual
# machine with Python 3.11 and numpy 2.4; sets the scale of the reported
# seconds, not their ratios
REFERENCE_S = 0.0033

_MATS = np.random.default_rng(0).standard_normal((2, 64, 64))
_SYM = _MATS[0] @ _MATS[0].T
_SMALL = np.eye(4) + 0.1


def _work() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    table: dict[tuple, float] = {}
    for i in range(1_500):
        key = tuple(sorted(((i * 7) % 13, (i * 3) % 11, i % 5)))
        table[key] = table.get(key, 0.0) + 1.5
    m = _SMALL
    for _ in range(60):
        m = m @ m.T
        m /= np.trace(m)
        np.linalg.eigvalsh(m)
    for _ in range(2):
        np.linalg.eigvalsh(_SYM)


def kernel_s() -> float:
    """Seconds taken by the fixed reference work: the faster of two runs,
    so that caches left cold by a wait do not count as host load."""
    times = []
    for _ in range(2):
        t0 = perf_counter()
        _work()
        times.append(perf_counter() - t0)
    return min(times)


def speed(before: float, after: float) -> float:
    """Slowdown of the host around a request, from the kernel times just
    before and just after it (1.0 = the reference host)."""
    return (before + after) / (2.0 * REFERENCE_S)
