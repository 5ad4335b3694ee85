"""How fast the host runs the measured code right now.

The benchmark shares a few cores of a busy host.  There a core runs the
same Python code up to half again slower in bursts of a fraction of a
second, and the share of time spent in such bursts changes from one
minute to the next, so raw timings of one commit spread from run to
run by more than the regressions the ledger has to catch.  The slowdown
belongs to the core the code runs on (CPU time grows with wall time,
and a probe on the other core does not see it), so it has to be
sampled on the measuring thread itself, while the measured work runs.

:class:`Speedometer` does that: a ``SIGALRM`` interval timer makes the
measured thread run a short, fixed piece of pure-Python work
(:func:`probe`) every :data:`INTERVAL_S` seconds.  The work done in a
stretch of wall time ``T`` is ``T * mean(REFERENCE_S / p)`` seconds at
the reference speed, ``p`` being the probe times sampled in the
stretch; the probes' own time is taken off ``T`` first.  The probe
shares no code with the program, so a change to the program moves a
scaled time exactly as much as a raw one.

:class:`Sampler` probes from a background thread instead, for work that
runs in other processes pinned to the same core (the daemon of
``service_mix``).
"""

from __future__ import annotations

import signal
import statistics
import threading
import time
from typing import List, Optional, Sequence, Tuple

#: The probe's time on the host the bounds were set on (a 2-vCPU Xeon
#: VM at 2.1 GHz, CPython 3.11) in a quiet moment: scaled times are
#: seconds on that host when no neighbour slows it.
REFERENCE_S = 0.0016

#: Seconds between two probes; each probe takes about REFERENCE_S, so
#: probing costs a few percent of the measured time.
INTERVAL_S = 0.025


def _work() -> int:
    """Tuple hashing and dict churn: the interpreter operations the
    chase and the homomorphism search spend their time in."""
    table = {}
    for i in range(6000):
        table[(i % 97, i)] = i
    total = 0
    for key, value in table.items():
        total += key[0] ^ value
    return total


def probe() -> float:
    """Wall time of one run of the fixed work, in s."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def speed_factor(samples: Sequence[float]) -> float:
    """Reference seconds per wall second over a stretch in which the
    probe took *samples*: the mean of ``REFERENCE_S / p``."""
    return statistics.fmean(REFERENCE_S / p for p in samples)


class Speedometer:
    """Samples the speed of the calling (main) thread while it works.

    Use as a context manager around the measured work; :meth:`start`
    opens a stretch and :meth:`scaled` closes it, turning its raw wall
    time into seconds at the reference speed."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self._interval = interval
        self._samples: List[float] = []
        self._started = 0.0
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        self._samples.append(probe())

    def __enter__(self) -> "Speedometer":
        self.start()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        self._samples = []
        self._started = time.perf_counter()

    def stretch(self) -> Tuple[float, float]:
        """Close the stretch opened by :meth:`start` (or on entry):
        (seconds its probes took, speed factor).  A stretch shorter
        than the interval is scaled by a probe taken now."""
        samples, self._samples = self._samples, []
        if not samples:
            return 0.0, speed_factor([probe()])
        return sum(samples), speed_factor(samples)

    def scaled(self) -> float:
        """Reference seconds of the work since :meth:`start`."""
        raw = time.perf_counter() - self._started
        probing, factor = self.stretch()
        return (raw - probing) * factor


class Sampler:
    """Probes from a background thread every ``interval`` seconds while
    the work runs in other processes on the thread's core."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.samples: List[Tuple[float, float]] = []  # (taken at, probe time)
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.samples.append((time.perf_counter(), probe()))

    def __enter__(self) -> "Sampler":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, window: Optional[Tuple[float, float]] = None) -> float:
        """The speed factor over the samples taken in *window* (a span
        of ``time.perf_counter``, which is system-wide), or over all."""
        start, end = window or (float("-inf"), float("inf"))
        inside = [p for taken, p in self.samples if start <= taken <= end]
        return speed_factor(inside or [probe()])
