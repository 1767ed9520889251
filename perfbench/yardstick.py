"""Host-speed yardstick: a fixed chunk of CPU work timed between statements.

The benchmark runs on a shared virtual machine with two kinds of noise
that have nothing to do with the engine:

* the host steals the vCPU for 5-15 ms at a time, hitting about 1% of
  the short ``lookup-serve`` statements and swinging their p99 by 30%
  from run to run.  The engine is single-threaded computation with no
  I/O, so the benchmark reads every time on the process CPU clock
  (``time.process_time``), which does not run while the vCPU is stolen;
* the effective CPU speed drifts by +-25% over seconds to minutes, the
  same for every process.  The yardstick measures it: every
  ``interval_s`` the client loop runs the same chunk of interpreter work
  and scattered memory reads and times it.  A pass's times are scaled by
  ``REFERENCE_CHUNK_S`` over the median chunk time seen during that
  pass, which reports them at the reference host speed.  Over 10 runs
  per workload this cut the spread of ``warm_qps`` (quartile distance
  over median) from 0.26 to 0.09 on ``lookup-serve`` and from 0.31 to
  0.10 on ``paper-row``.

The chunk runs between statements, never inside one, and its own time is
excluded from every metric.  Both corrections assume the engine does its
work in this process: work moved to a child process or spent waiting
would not be counted.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

import numpy as np

from stats import median

#: Median chunk time on the reference box (2-core shared VM, CPython 3.11).
REFERENCE_CHUNK_S = 0.0047
#: Chunks taken around each set-up, which is one uninterruptible call.
SETUP_CHUNKS = 5


class _Item:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str):
        self.key = key
        self.name = name


class Chunk:
    """The fixed work: interpreter object traffic plus scattered memory reads.

    The engine's time follows host contention on both the interpreter
    loop and memory.  Over five ``tpch-olap`` processes the ratio of pass
    time to chunk time stayed within about +-4% for either half alone and
    +-3% for both together, against +-9% for the raw pass time.
    """

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.values = rng.random(1 << 20)
        self.gather = rng.integers(0, 1 << 20, 100_000)
        chain = list(range(100_000))
        random.Random(seed).shuffle(chain)
        self.chain = chain

    def __call__(self) -> float:
        total = 0
        for i in range(1500):
            item = _Item(i, str(i))
            total += item.key + len(item.name) + sum((i, i + 1))
        chain = self.chain
        at = 0
        for _ in range(2500):
            at = chain[at]
        return total + at + float(self.values[self.gather].sum())


class Yardstick:
    def __init__(self, clock: Callable[[], float], interval_s: float = 0.1):
        self.clock = clock
        self.interval_s = interval_s
        self.samples: List[float] = []
        self._chunk = Chunk()
        self._last = clock()

    def measure(self, times: int = 1) -> None:
        for _ in range(times):
            start = self.clock()
            self._chunk()
            self.samples.append(self.clock() - start)
        self._last = self.clock()

    def tick(self) -> None:
        """Measure once if ``interval_s`` has passed since the last chunk."""
        if self.clock() - self._last >= self.interval_s:
            self.measure()

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int, until: Optional[int] = None) -> float:
        """Reference speed over the host speed seen in ``samples[since:until]``."""
        return REFERENCE_CHUNK_S / median(self.samples[since:until])
