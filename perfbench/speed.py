"""Host-speed calibration, so that times compare across a noisy shared host.

The cores of the host are shared with other tenants, and the speed of
pure-Python code on them drifts by tens of percent over seconds to
minutes, in CPU time as much as in wall time.  A pass therefore runs a
fixed kernel of the same character as the workload (code of the
benchmark's own, which no change to popsort can alter) in bursts: before
its first operation, between operations at least every `EVERY_S` seconds,
and after its last.  Each call's time is then reported in reference
seconds: measured seconds times the kernel's reference time over its mean
time in the two bursts around the call, i.e. the time the call would take
at the speed where the kernel runs in its reference time.  The raw
figures and the factor are kept in the output.
"""
from __future__ import annotations

import time
from fractions import Fraction

EVERY_S = 0.5
BURST = 3


def tuple_kernel(rounds: int = 50) -> int:
    """Memoised walks over tuple states: calls, hashing, set lookups, slicing."""
    total = 0
    for r in range(rounds):
        seen: set[tuple[int, ...]] = set()

        def walk(state: tuple[int, ...], budget: int) -> int:
            if budget == 0 or state in seen:
                return 0
            seen.add(state)
            return (1 + walk(state[1:] + state[:1], budget - 1)
                    + walk(tuple(sorted(state[:3])) + state[3:], budget - 1))

        total += walk(tuple((r * 7 + j * 3) % 11 for j in range(9)), 12)
    return total


def fraction_kernel(order: int = 65) -> Fraction:
    """Truncated products of exact rational series, as in PowerSeries."""
    a = [Fraction(k + 1, 2 * k + 3) for k in range(order)]
    total = Fraction(0)
    for k in range(order):
        total += sum((a[t] * a[k - t] for t in range(k + 1)), Fraction(0))
    return total


# name: (kernel, its median run time in seconds on the reference host, a
# 2-vCPU x86-64 VM with Python 3.11).  Series arithmetic on big rationals
# slows differently from the searches, so it gets a kernel of its kind.
KERNELS = {
    "tuples": (tuple_kernel, 0.0105),
    "fractions": (fraction_kernel, 0.0095),
}


class Speedometer:
    """Kernel timings taken through a pass, in bursts of `BURST` runs."""

    def __init__(self, kernel: str = "tuples") -> None:
        self._run, self._ref_s = KERNELS[kernel]
        self.bursts: list[float] = []    # mean kernel time of each burst

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(BURST):
            self._run()
        self.bursts.append((time.perf_counter() - t0) / BURST)

    @property
    def factor(self) -> float:
        """Reference seconds per measured second, over all bursts."""
        return self._ref_s * len(self.bursts) / sum(self.bursts)

    def between(self, j: int) -> float:
        """Reference seconds per measured second between bursts j and j + 1."""
        return 2 * self._ref_s / (self.bursts[j] + self.bursts[j + 1])
