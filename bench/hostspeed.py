"""Host speed, sampled inside the timed process on the core it runs on.

The machine is a 2-vCPU KVM guest whose host is shared with other tenants;
their load slows a vCPU by up to 2x, for seconds or for minutes, so raw times
of one commit drift between sets of runs by more than any useful bound.
``Sampler`` measures that speed where and when the workload runs: a timer
signal every ``PERIOD_S`` interrupts the process, which then times one
``kernel()`` call, a fixed piece of pure-Python work (tuple keys, dict
updates, float arithmetic; the shape of the DP and of the PDE's per-step
dispatch) that never touches sublexp, with the cyclic garbage collector
held off so that the program's heap does not set the kernel's cost.
``scaled`` turns a duration measured over an interval into one at the
reference speed, the speed at which a kernel call takes ``REF_KERNEL_S``: it
subtracts the kernel calls made in the interval and multiplies the rest by
``REF_KERNEL_S`` over their mean duration, without the slowest ``TRIM`` of
them.  Those few calls were hit by an interrupt or a preemption; one of
several milliseconds among some 250 would move the mean by 10%.
"""

from __future__ import annotations

import gc
import math
import signal
import time

#: Seconds between samples; a sample costs about 1.5% of that at reference speed.
PERIOD_S = 0.02
#: Kernel seconds at reference speed, a round figure within the 0.2-0.36 ms
#: its trimmed mean took over runs on the machine of ``context.json``.  It
#: only sets the scale of the reported times.
REF_KERNEL_S = 0.0003
#: Share of the slowest kernel calls of an interval left out of its mean.
TRIM = 0.1


def kernel() -> float:
    acc: dict[tuple[int, float], float] = {}
    x = 0.0
    for i in range(200):
        key = (i % 23, x)
        acc[key] = acc.get(key, 0.0) + math.fsum(key)
        x = round(x * 0.5 + i * 0.25, 6)
    return x


class Sampler:
    """Times one ``kernel()`` call on every SIGALRM; ``samples`` holds (start, end)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        kernel()
        self.samples.append((start, time.monotonic()))
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._sample(signal.SIGALRM, None)


def _inside(samples: list[list[float]], start: float, end: float) -> list[float]:
    return [e - s for s, e in samples if start <= s and e <= end]


def factor(samples: list[list[float]], start: float, end: float) -> float:
    """Reference kernel time over the trimmed mean kernel time in
    ``[start, end]``: 1 at reference speed, 0.5 on a host running at half of
    it.  An interval shorter than the sampling period may hold no kernel
    call; it gets the mean over all of ``samples``, which ``Sampler.stop``
    makes non-empty."""
    inside = sorted(_inside(samples, start, end) or [e - s for s, e in samples])
    kept = inside[:len(inside) - int(TRIM * len(inside))]
    return REF_KERNEL_S * len(kept) / math.fsum(kept)


def scaled(samples: list[list[float]], start: float, end: float, seconds: float | None = None
           ) -> float:
    """``seconds`` (default ``end - start``) measured over ``[start, end]``, less
    the kernel calls made there, at reference speed."""
    measured = end - start if seconds is None else seconds
    return (measured - math.fsum(_inside(samples, start, end))) * factor(samples, start, end)
