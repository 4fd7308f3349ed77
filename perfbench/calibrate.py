"""Machine-speed calibration for timings taken on a shared, noisy host.

On a virtual machine whose cores are shared with other tenants, the same
single-threaded work runs up to a third slower at one moment than at the
next, and CPU time slows down with it.  The benchmark therefore times a
fixed pure-Python loop next to the timed work and reports every time as
*reference seconds*: the measured time multiplied by the loop's nominal
duration over its measured one, i.e. the time the work would have taken
while the loop ran at its nominal speed.

Work in a benchmark process is sampled during the work itself, from a
profiling-timer signal (:class:`SpeedSampler`).  The job server samples
before and after each flow, in its worker thread (``server_main.py``).
Interpreter start-up is sampled from a thread of the waiting benchmark
process (:class:`ConcurrentSampler`), which runs on the other core:
measured on this host, its speed series correlates at 0.9 with one
sampled inside the working process.  The loop lives in the
benchmark, not in the program, so it is the same on both sides of any
comparison, and the nominal constants only set the scale.  Raw
wall-clock times are printed next to the reported ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import threading
import time

#: Duration of one sample of the loop on an uncontended 2-vCPU Xeon VM
#: with CPython 3.11 (it reads up to twice that when the host is busy), so
#: reference seconds read as seconds on that machine.
SAMPLE_NOMINAL_S = 0.00058
#: Seconds between samples: process CPU time for :class:`SpeedSampler`,
#: wall time for :class:`ConcurrentSampler`.
INTERVAL_S = 0.05
_SAMPLE_ITERATIONS = 2_000
_MASK = (1 << 256) - 1


def _kernel(iterations: int) -> int:
    """Integer, big-integer, dict and call work, like the synthesis kernels."""
    acc, big, table = 1, 1, {}
    for i in range(iterations):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        big = ((big << 3) ^ acc) & _MASK
        table[acc & 1023] = big.bit_length()
    return len(table) + acc


def sample() -> tuple:
    """``(start, speed factor)`` of one short run of the loop."""
    start = time.perf_counter()
    _kernel(_SAMPLE_ITERATIONS)
    return start, SAMPLE_NOMINAL_S / (time.perf_counter() - start)


class Timeline:
    """Time-stamped speed factors and the conversion they allow.

    Times are ``time.perf_counter()`` readings, a system-wide monotonic
    clock on Linux, so samples taken in one process convert intervals
    measured in another.
    """

    def __init__(self, samples=()) -> None:
        self.samples = list(samples)  # (perf_counter at the sample, speed factor)

    def to_reference(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured in ``[start, end]``, in reference seconds."""
        inside = [speed for at, speed in self.samples if start <= at <= end]
        if not inside:  # shorter than one interval: the samples around it
            before = [speed for at, speed in self.samples if at < start][-1:]
            after = [speed for at, speed in self.samples if at > end][:1]
            inside = before + after or [1.0]
        return seconds * statistics.mean(inside)

    def mean_speed(self) -> float:
        return statistics.mean(speed for _, speed in self.samples)


class SpeedSampler(Timeline):
    """Samples the machine's speed while single-threaded work runs.

    Every :data:`INTERVAL_S` of process CPU time a profiling-timer signal
    interrupts the work and runs the loop once (about 1 ms), in the same
    thread.  The samples' own time is counted in :attr:`excluded_wall` /
    :attr:`excluded_cpu`, which callers take out of their measurements.
    """

    def __init__(self) -> None:
        super().__init__()
        self.excluded_wall = 0.0
        self.excluded_cpu = 0.0
        self._paused = 0

    def _on_signal(self, signum, frame) -> None:
        if self._paused:
            return
        cpu = time.process_time()
        start, speed = sample()
        self.samples.append((start, speed))
        self.excluded_wall += time.perf_counter() - start
        self.excluded_cpu += time.process_time() - cpu

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """No samples while work that is not measured runs."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1


class ConcurrentSampler(Timeline):
    """Samples the machine's speed from a thread while another process works.

    One loop run every :data:`INTERVAL_S`, about 2 % of one core.
    """

    def __init__(self) -> None:
        super().__init__()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.samples.append(sample())
            self._stop.wait(INTERVAL_S)

    def __enter__(self) -> "ConcurrentSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
