"""Host-speed reference: a fixed unit of work timed during a batch.

On a shared host the CPU's speed drifts by 20% or more over minutes, and
a spin loop drifts as much as rdsim does, so no raw throughput figure is
steadier than the host. ``Reference`` times a fixed unit of work that uses
no rdsim code every ``PERIOD_S`` seconds of a 1-process batch. It runs in
a ``SIGALRM`` handler, so on the same core and between the program's
bytecodes. The mean unit time tracks the host's speed over the batch, and
``run.py`` scales the batch's throughput by it. A change to rdsim moves the
batch's wall time but not the unit's, so it still shows in full.

The unit does the same kinds of work as a replicate: a float sort, a
stable integer argsort and a bincount over edge-list-sized arrays (about
60% of its time, 1.3 MB), then an interpreted loop of dict and list
updates like the sampler's bookkeeping. Host drift moves the two parts
differently: measured against the three workloads' unscaled rates, the
array part moved 0.6-0.8 times as much as the rate and the loop part
1.35-1.6 times as much. By those figures the 60/40 mix moves 0.9-1.1
times as much as the rate on every workload.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2


class Reference:
    """Time the unit every ``PERIOD_S`` seconds inside a ``with`` block.

    Time the batch inside the block: entering runs one unrecorded warm-up
    unit. ``unit_s`` is the mean unit time; ``spent_s`` is the wall time
    the samples took from the block, which the caller subtracts from its
    own. The timer is one-shot and re-armed after each sample, so samples
    never nest on a host slow enough for a unit to outlast the period.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.random(60_000)
        self._edges = rng.integers(0, 1000, size=(50_000, 2))
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _unit(self) -> float:
        start = time.perf_counter()
        np.sort(self._values)
        np.argsort(self._edges[:, 0], kind="stable")
        np.bincount(self._edges[:, 1], minlength=1000)
        counts: dict[int, int] = {}
        stack: list[int] = []
        for i in range(15_000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
            stack.append(i)
            if stack[-1] in counts:
                stack.pop()
        return time.perf_counter() - start

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self._unit())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "Reference":
        self._unit()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a batch shorter than one period; not in its wall time
            self.samples.append(self._unit())

    @property
    def unit_s(self) -> float:
        return statistics.fmean(self.samples)
