"""Machine speed, measured with a fixed piece of work, to scale the benchmark's timings.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts: a fixed pure-Python loop timed back to back runs up
to 1.8 times slower for tens of seconds at a time, then fast again, and
process CPU time drifts with it.  A run that falls in a slow phase is slow
from start to end, so neither the median nor the fastest of its own
repetitions hides it.

`Clock.part` times one part of the work and, while it runs, samples the
machine's speed: every SAMPLE_S seconds a timer signal runs `_work` once,
the same work every time, written here and independent of dialeval (string
splitting and dict counting as in tokenization, small numpy products as in
the models).  A probe of a few runs of `_work` also stands between parts.
The time spent in samples is taken out of the part's measured time, and the
part's scaled time is that time times the mean of NOMINAL_S / sample over
the samples during and around the part: each sample stands for an equal
slice of wall time, in which the work done goes as the machine's speed.  A
part the machine slowed by as much as it slowed `_work` keeps the time it
takes on a calm machine.  NOMINAL_S is a constant, `_work`'s time on a calm
machine, so scaled times read as seconds there.  A change to the program
changes the parts' measured times and leaves `_work` alone, so it moves the
scaled time by the same share.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# _work's median time on a calm 2-vCPU x86-64 machine (Python 3.11)
NOMINAL_S = 0.00085
PROBE_REPS = 5
SAMPLE_S = 0.05

_TEXT = ("who directed the movie that starred kelo vanu and rami tosa in 1987 "
         "what genre is it and can you recommend something like it ") * 60
_M = np.random.default_rng(0).standard_normal((120, 30))


def _work() -> float:
    counts: dict[str, int] = {}
    for word in _TEXT.split():
        word = word.strip("?.,")
        counts[word] = counts.get(word, 0) + 1
    v = np.full(30, 1.0 / len(counts))
    for _ in range(80):
        s = _M @ v
        p = np.exp(s - s.max())
        v = _M.T @ (p / p.sum())
    return float(v[0])


def _timed_work() -> float:
    """Seconds of one run of `_work`, with the garbage collector off so that
    it times the work alone and not a collection of the program's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _work()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def probe() -> float:
    """Median seconds of PROBE_REPS runs of `_work`, after one untimed run."""
    _work()
    return statistics.median(_timed_work() for _ in range(PROBE_REPS))


class Clock:
    """Times parts of the work; `parts` holds (key, measured s, scaled s).
    With `sample` false no timer signal runs (traced rounds: the samples
    would land inside the spans) and only the probes between parts scale."""

    def __init__(self, sample: bool = True) -> None:
        self.parts: list[tuple[object, float, float]] = []
        self.sample = sample
        self._last = probe()

    @contextmanager
    def part(self, key):
        samples = [self._last]
        in_samples = 0.0

        def tick(signum, frame):
            nonlocal in_samples
            t = time.perf_counter()
            samples.append(_timed_work())
            in_samples += time.perf_counter() - t

        if self.sample:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t = time.perf_counter()
        try:
            yield
        finally:
            measured = time.perf_counter() - t
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        measured -= in_samples
        self._last = probe()
        samples.append(self._last)
        self.parts.append((key, measured,
                           measured * statistics.mean(NOMINAL_S / x for x in samples)))
