"""The machine's pace, sampled while timed work runs.

The speed of the reference machine (a shared 2-core VM) drifts by up to
1.8x within seconds, in CPU time as much as in wall time.  The benchmark
therefore reports times in reference seconds: a wall time divided by the
pace, the time of a fixed calibration loop over its reference time
CAL_REF_S, measured while the timed work ran.
"""

import bisect
import os
import select
import signal
import statistics
import time

CAL_REF_S = 0.0003
SAMPLE_EVERY = 0.01


def _calibration_loop() -> int:
    table = list(range(97))
    acc = 0
    for i in range(3000):
        acc = table[(acc * 31 + i) % 97] + (acc >> 3)
    return acc


def pace(reps: int = 3) -> float:
    """The best of reps calibration loops over CAL_REF_S (about 0.85 on the
    reference machine at rest; larger when the machine runs slower)."""
    best = float("inf")
    for _ in range(reps):
        t = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t)
    return best / CAL_REF_S


class PaceLog:
    """Pace samples taken while operations run, and the operations' times.

    In-process work is sampled by a SIGALRM timer every SAMPLE_EVERY
    seconds: the handler runs between bytecodes of the timed operation, on
    its own thread and core, and the time it takes is taken out of the
    operation's time.  A child process is sampled by its parent while it
    waits (`wait_child`)."""

    def __init__(self):
        self.times: list[float] = []
        self.paces: list[float] = []
        self.spent = 0.0  # seconds spent sampling so far

    def sample(self) -> None:
        t = time.perf_counter()
        self.paces.append(pace(reps=1))
        self.times.append(t)
        self.spent += time.perf_counter() - t

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def wait_child(self, pid: int):
        """os.wait4 for a child, sampling the pace while it runs."""
        fd = os.pidfd_open(pid)
        try:
            while not select.select([fd], [], [], SAMPLE_EVERY)[0]:
                self.sample()
        finally:
            os.close(fd)
        return os.wait4(pid, 0)

    def run(self, fn):
        """Run fn; return its result and (start, end, seconds sampling,
        pace before, pace after)."""
        before = pace()
        spent = self.spent
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            timing = (t0, t1, self.spent - spent, before, pace())
        return result, timing

    def reference_seconds(self, timing) -> float:
        """An operation's own wall time over the median pace of the samples
        taken while it ran and the two taken just before and after it (all
        a short operation has).  The median drops samples that a preempted
        calibration loop inflated."""
        t0, t1, spent, before, after = timing
        lo, hi = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        return (t1 - t0 - spent) / statistics.median([before, after, *self.paces[lo:hi]])
