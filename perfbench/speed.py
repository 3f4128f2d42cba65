"""Speed normalization: a fixed kernel timed around and during every op.

The cores of the machine this benchmark was tuned on (2 vCPUs of an Intel
Xeon) are shared with other tenants, and its speed drifts by up to 1.8x over
minutes: the wall time of one fixed op moves by 20-25% between 20-second
windows, and 60-second windows do no better.  Longer runs cannot average
that out, so every op is timed against a reference kernel that lives in the
benchmark's own code, which no change to snoidal can alter.

The kernel is sampled before and after every op and, outside the traced
run, every PERIOD_S seconds during it (from a SIGALRM handler; the time the
handler spends is taken out of the op's latency).  Every op runs in the
client's process, so the kernel sees the same CPU the op does.  An
op's normalized time is its wall time x NOMINAL / (mean of the samples
taken from WINDOW_S before it started to WINDOW_S after it ended): the time
it would take on a machine where the kernel runs in NOMINAL seconds.  The
mean, not the median, because an op slows down with the average contention
over its run; on the tuning machine the mean cut the run-to-run spread of
ops_per_s from 13-19% (wall) to 2-4%, where the median left 5-15%.  The
run's wall times are reported beside the normalized ones.

"loop" is a Python loop of small real FFTs, the shape of Strang stepping,
orbit distances and the scalar sn/cn/dn loops; "blas" is one dense symmetric
eigensolve, the shape of the spectral report.  NOMINAL is roughly each
kernel's time on the tuning machine, so normalized times read close to wall
times there.  Set-up time (process start-up and imports) does not drift in
step with either kernel; run.measure_setup normalizes it to a fresh process
that imports numpy alone.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy


class SpeedReference:
    NOMINAL = {"loop": 2.0e-3, "blas": 2.5e-3}
    REPEATS = 3
    PERIOD_S = 0.5
    WINDOW_S = 0.5

    def __init__(self, kind: str):
        self.kind = kind
        # Bound now, so that the traced run's FFT and eigensolve counters
        # never see the kernel's calls.
        self._rfft = numpy.fft.rfft
        self._eigvalsh = numpy.linalg.eigvalsh
        self._x = numpy.linspace(0.0, 1.0, 256)
        m = numpy.random.default_rng(12345).standard_normal((192, 192))
        self._m = m + m.T
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.paused = 0.0  # seconds spent sampling from the timer
        self._busy = False
        self._previous_handler = None
        self.sample()  # the first call pays for thread start-up and caches
        self.samples.clear()

    def _kernel(self) -> float:
        if self.kind == "blas":
            return float(self._eigvalsh(self._m)[0])
        acc = 0.0
        for i in range(150):
            acc += float(self._rfft(self._x * (1.0 + i))[1].real)
        return acc

    def sample(self) -> float:
        """Record the median of REPEATS back-to-back kernel timings; returns time spent."""
        if self._busy:
            return 0.0
        self._busy = True
        start = time.perf_counter()
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        end = time.perf_counter()
        self.samples.append((0.5 * (start + end), statistics.median(times)))
        self._busy = False
        return end - start

    def _on_alarm(self, signum, frame):
        self.paused += self.sample()

    def start_periodic(self) -> None:
        """Also sample every PERIOD_S seconds, interrupting the op in progress."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop_periodic(self) -> None:
        if self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def scales(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Normalization factor of each (start, end) op interval."""
        nominal = self.NOMINAL[self.kind]
        out = []
        for start, end in intervals:
            near = [v for t, v in self.samples
                    if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
            out.append(nominal * len(near) / sum(near))
        return out

    def median(self) -> float:
        return statistics.median(v for _, v in self.samples)
