"""A fixed pure-Python kernel that measures how fast the machine runs right now.

The benchmark shares a 2-core sandbox with other tenants, whose load changes
its speed by a factor of up to 1.7 over seconds to minutes.  Over five seeds
of 30-second runs, raw pass times spread 14-23% between quartiles.  Timing
this kernel before, during and after each unit of program work, and
rescaling the unit's wall time by the kernel's speed, cut that spread to
1-5%.

The kernel is the solver's hot loop in miniature (stage-by-stage forward
reachability over int bitmasks, as ``msplab.operators._forward_reach`` does)
on a fixed graph, so contention slows both alike.  It never calls msplab: a
change to the program cannot move the yardstick.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time

# About the median slice time on an uncontended core of the sandbox; a speed
# factor of 1 means the machine ran the kernel this fast.
NOMINAL_SLICE_S = 0.0025
SLICES = 7
SAMPLE_EVERY_S = 0.25
STAGES = 10
WIDTH = 6


class Yardstick:
    """Forward reachability on a fixed random 10-stage, width-6 staged graph."""

    def __init__(self):
        rng = random.Random(12345)
        self.rows: list[list[int]] = []
        count = 0
        for stage in range(STAGES + 1):
            row_width = 1 if stage in (0, STAGES) else WIDTH
            self.rows.append(list(range(count, count + row_width)))
            count += row_width
        self.stage = [s for s, row in enumerate(self.rows) for _ in row]
        self.in_mask = [0] * count
        self.out_mask = [0] * count
        edges = 0
        for stage in range(1, STAGES + 1):
            for u in self.rows[stage - 1]:
                for v in self.rows[stage]:
                    if rng.random() < 0.6:
                        self.out_mask[u] |= 1 << edges
                        self.in_mask[v] |= 1 << edges
                        edges += 1
        self.masks = [rng.getrandbits(edges) | rng.getrandbits(edges) for _ in range(64)]
        self.sink = count - 1
        self.slice()  # let the interpreter specialise the loop before timing it

    def _reach(self, mask: int, ui: int) -> tuple[int, int]:
        stage, rows, in_mask, out_mask = self.stage, self.rows, self.in_mask, self.out_mask
        reach = 1 << ui
        acc = out_mask[ui]
        for k in range(stage[ui] + 1, stage[self.sink] + 1):
            avail = mask & acc
            if not avail:
                break
            hit = False
            for wi in rows[k]:
                if avail & in_mask[wi]:
                    reach |= 1 << wi
                    acc |= out_mask[wi]
                    hit = True
            if not hit:
                break
        return reach, acc

    def slice(self, reps: int = 300) -> int:
        total = 0
        for i in range(reps):
            mask = self.masks[i & 63]
            reach, acc = self._reach(mask, i % WIDTH + 1)
            total += ((reach >> self.sink) & 1) + (mask & acc).bit_count()
        return total

    def slice_s(self) -> float:
        """Median time of one kernel slice, now."""
        times = []
        for _ in range(SLICES):
            t0 = time.perf_counter()
            self.slice()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def speed_factor(slices: list[float]) -> float:
    """Multiplier that rescales a stretch of wall time to nominal machine speed,
    from slice times sampled evenly across it."""
    return statistics.fmean(NOMINAL_SLICE_S / s for s in slices)


class Sampler:
    """Times one yardstick slice every ``SAMPLE_EVERY_S`` seconds of wall time.

    A unit of program work can last seconds, longer than the machine keeps
    one speed, so slices taken only before and after it miss what happened
    during it.  The SIGALRM handler runs between bytecodes of the program;
    ``stolen_s`` sums the time it took, which callers subtract from the
    program's wall time.
    """

    def __init__(self, stick: Yardstick):
        self.stick = stick
        self.slices: list[float] = []
        self.stolen_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.stick.slice()
        t1 = time.perf_counter()
        self.slices.append(t1 - t0)
        self.stolen_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
