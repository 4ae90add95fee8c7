"""Core-speed samples, and a reference clock that takes the core's speed out of times.

The benchmark machine shares its cores, caches and memory with other
tenants.  The speed of one virtual core changes by up to 2x from one
second to the next, and the two cores change independently, while the
process's CPU time stays equal to its wall time: the core does less work
per second, it is not taken away.  A time measured in seconds therefore
says as much about the neighbours as about the program.

A :class:`Sampler` runs inside the measured process.  Every ``INTERVAL_S``
seconds (``SIGALRM``) it times a fixed piece of work on the core the
program is running on, between two of the program's bytecodes: a short
pure-Python loop (interpreter speed) and one FFT of an n = 16 spinor field
(vector arithmetic and, since the program has evicted the field from the
core's caches since the last sample, memory traffic).  Together they
follow the program's own slowdown better than either alone.  Sampling
costs 1–2 % of the run.

A :class:`ReferenceClock` turns those samples into a clock that runs at
``REF_SAMPLE_S / sample time``: one reference second is the time the
program would take on a core at the speed at which the sample takes
``REF_SAMPLE_S``.  Durations read on this clock are the benchmark's times.
Sample ``i`` gives the speed of the interval since sample ``i - 1``; the
speed before the first sample is that of the first, and after the last
that of the last.  Sample times are smoothed with a running median over
``WINDOW`` samples, so one sample hit by an interrupt does not count.

This module imports only the standard library; the sampler imports numpy
when it starts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOP_ITERATIONS = 3000
FFT_SHAPE = (4, 16, 16, 16)
# about the time of one sample on a quiet core of the reference machine
# (2-vCPU Intel Xeon virtual machine, Python 3.11.7, numpy 2.4.6): 150 us
# for the loop and 250 us for the FFT in a program whose arrays are of
# the FFT's size; programs that sweep larger arrays take it longer
REF_SAMPLE_S = 400e-6
INTERVAL_S = 0.05
WINDOW = 5


class Sampler:
    """Times the calibration work every ``INTERVAL_S`` seconds of the process.

    ``samples`` holds ``(end, sample_s)`` pairs, with ``end`` from
    ``time.perf_counter``.  The handler imports nothing (``start`` loads
    numpy's FFT first) and touches no shared state but its own list and
    field, so it is safe at any point of the program, imports included.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        clock = time.perf_counter
        start = clock()
        acc = 0
        for i in range(LOOP_ITERATIONS):
            acc += i * i
        self._fftn(self._field, axes=(1, 2, 3))
        end = clock()
        self.samples.append((end, end - start))

    def start(self) -> None:
        import numpy as np

        self._field = np.ones(FFT_SHAPE, dtype=complex)
        self._fftn = np.fft.fftn
        self._fftn(self._field, axes=(1, 2, 3))
        signal.signal(signal.SIGALRM, self._sample)
        # restart interrupted system calls instead of failing them with EINTR
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _running_median(values: list, window: int) -> list:
    half = window // 2
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


class ReferenceClock:
    """Maps a ``time.perf_counter`` timestamp to reference seconds.

    Without samples it is the identity, so times stay in plain seconds.
    """

    def __init__(self, samples):
        samples = sorted(samples)
        self.times = [end for end, _ in samples]
        self.rates = [REF_SAMPLE_S / s
                      for s in _running_median([s for _, s in samples], WINDOW)]
        self.marks = [0.0]      # reference time at each sample, from the first
        for i in range(1, len(self.times)):
            self.marks.append(self.marks[-1] + (self.times[i] - self.times[i - 1]) * self.rates[i])

    def __call__(self, t: float) -> float:
        if not self.times:
            return t
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return (t - self.times[0]) * self.rates[0]
        if i == len(self.times):
            return self.marks[-1] + (t - self.times[-1]) * self.rates[-1]
        return self.marks[i - 1] + (t - self.times[i - 1]) * self.rates[i]

    def slowdown(self) -> float:
        """Median sample time over ``REF_SAMPLE_S``: how much slower than the
        reference this core ran (1.0 without samples)."""
        return 1.0 / statistics.median(self.rates) if self.rates else 1.0


def rescale(record: dict, clock) -> dict:
    """A copy of a run record (see ``launch.py``) with every timestamp read on ``clock``."""
    out = dict(record)
    out["t_imported"] = clock(record["t_imported"])
    out["t_end"] = clock(record["t_end"])
    out["spans"] = [[s[0], clock(s[1]), clock(s[2]), *s[3:]] for s in record["spans"]]
    return out
