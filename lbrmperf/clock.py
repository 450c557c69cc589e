"""Calibrated seconds: program time corrected for the machine's momentary speed.

The benchmark's home is a shared 2-core virtual machine. There, the speed
of a vCPU swings by up to ~1.7x within seconds, as the host's other
tenants come and go: a fixed pure-Python loop took anywhere from 27 ms to
46 ms. The raw wall time of a repetition therefore says as much about the
neighbours as about the program.

:class:`CalibratedClock` samples the speed while the program runs. A
``SIGALRM`` interval timer interrupts the main thread every
:data:`INTERVAL` seconds and runs :func:`reference_loop`, a fixed unit of
work (random reads from a 16 MB array, so it feels cache and memory
contention as the program does), and records how long it took.
``calibrated(a, b)`` takes the program time in ``[a, b]`` (wall time minus
the reference loops inside it) and scales it by ``(NOMINAL / mean
reference time) ** SENSITIVITY`` over the interval. A *calibrated second*
is a second the program would have spent had the reference loop run at
its nominal speed.

The program feels contention more than the reference loop does: when
the loop slows by x, the program slows by about x ** 1.45. That
exponent is :data:`SENSITIVITY`. It was fitted on the machine described
above, by regressing log program time on log reference time over the
repetitions of twenty runs per workload (two sets of ten seeds;
reference times from 0.54 to 0.89 ms). The slopes were 1.44 for
``repair_train``, 1.65 for ``tree_outage`` and 1.24 for
``aggregate_scale``, with r = 0.89 to 0.96; 1.45 is about their mean.
With an exponent of 1, the median of ten runs still moved by up to 24%
when the machine got slower between two sets of runs.
``live_loopback`` samples the loop only between chunks (below). Its
chunk times fit a slope near 1, but its recovery latencies follow the
machine's speed more steeply: over eight seeds, the spread of live p50
was 1.9–4.4% with 1.45 and 8.4–17% with 1. It uses 1.45 as well.

:meth:`CalibratedClock.sample` times the loop on demand. The live
workload uses it instead of the timer: it samples between chunks, so no
reference loop runs inside the event loop while a chunk streams, and no
live latency contains one.

The reference loop is benchmark code, identical for every commit, so
calibration leaves a change to the program in place as long as the
change does not move the loop's own time. Injected extra work and a
64 MB memory ballast in the program did not (README.md, "Calibrated
seconds"). Each run's detail line keeps the raw wall times.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time
from array import array

__all__ = [
    "CalibratedClock", "INTERVAL", "NOMINAL", "REFERENCE_BYTES", "SENSITIVITY", "reference_loop",
]

INTERVAL = 0.025  # seconds between speed samples
NOMINAL = 0.0006  # seconds the reference loop takes at nominal speed
SENSITIVITY = 1.45  # program slowdown = reference slowdown ** SENSITIVITY

# Plain arrays are not tracked by the garbage collector: the reference
# data adds nothing to the program's collection work.
_VALUES = array("q", range(2_000_000))
_INDEX = array("q", (random.Random(0).randrange(len(_VALUES)) for _ in range(6000)))
# Resident for the whole run: the runner takes it off the process's peak RSS.
REFERENCE_BYTES = len(_VALUES) * _VALUES.itemsize + len(_INDEX) * _INDEX.itemsize


def reference_loop() -> int:
    """The fixed unit of work whose duration measures the machine's speed."""
    values = _VALUES
    total = 0
    for i in _INDEX:
        total += values[i]
    return total


class CalibratedClock:
    """Samples the machine's speed: on a timer while active (a context
    manager), or on demand with :meth:`sample`.

    Only one clock may be active per process: it owns ``SIGALRM``.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # time.perf_counter() at each sample
        self.ends: list[float] = []
        self.loop_s: list[float] = []  # mean reference loop time of each sample
        self._previous = None

    def sample(self, loops: int = 1) -> None:
        """Time ``loops`` reference loops, back to back, as one sample."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for _ in range(loops):
            reference_loop()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.loop_s.append((end - start) / loops)

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> "CalibratedClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _window(self, a: float, b: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)

    def program_time(self, a: float, b: float) -> float:
        """Wall seconds in ``[a, b]`` minus the reference loops inside it."""
        lo, hi = self._window(a, b)
        inside = sum(min(self.ends[k], b) - self.starts[k] for k in range(lo, hi))
        return (b - a) - inside

    def speed(self, a: float, b: float) -> float:
        """Calibrated seconds per program second around ``[a, b]``:
        ``NOMINAL`` over the mean reference time sampled there and in
        the samples just before and after, raised to ``SENSITIVITY``."""
        lo, hi = self._window(a, b)
        lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        durations = self.loop_s[lo:hi]
        return (NOMINAL * len(durations) / sum(durations)) ** SENSITIVITY

    def calibrated(self, a: float, b: float) -> float:
        """Calibrated seconds of program time in ``[a, b]``."""
        return self.program_time(a, b) * self.speed(a, b)
