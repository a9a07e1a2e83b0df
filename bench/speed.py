"""The machine's speed, sampled while a worker runs.

On a shared host a vCPU switches between full and about half speed many
times a second, and the share of slow time drifts over minutes, so the same
work can take 40% longer in one run than in the next.  Every worker
therefore runs a `Sampler`: a thread that wakes every SAMPLE_EVERY_S seconds
and times `calibrate`, a fixed job of the same kind as the evaluator's inner
loop.  The verify worker also takes samples in its own thread between ops.
`scaled` takes a time measured in the worker to the speed at which that job
takes REFERENCE_S seconds, using the samples taken around it.  The sampler
thread holds the interpreter lock while it samples, so the program waits
meanwhile; `scaled` leaves that time out.
"""

from __future__ import annotations

import gc
import statistics
import sys
import threading
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

#: calibration time at the reference speed, about the median on the
#: 2-vCPU Xeon host the benchmark was tuned on
REFERENCE_S = 0.004
#: how often the sampler thread samples
SAMPLE_EVERY_S = 0.2
#: how far around an interval its samples are taken from
WINDOW_S = 1.0

Sample = Tuple[float, float]  # (start, end), time.monotonic()


def calibrate() -> None:
    """A fixed job: exact products and sums into a small tuple-keyed dict,
    as in `functor._apply_gen`.

    The collector is off meanwhile: its passes depend on the program's heap,
    and one that started here would be the program's time, not the job's.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out: dict = {}
        third = Fraction(1, 3)
        for i in range(500):
            key = (i % 31, i % 29)
            out[key] = out.get(key, 0) + third * Fraction(i % 7 + 1, i % 5 + 2)
    finally:
        if was_enabled:
            gc.enable()


class Sampler:
    """Times `calibrate` every SAMPLE_EVERY_S seconds from a daemon thread,
    and on request in the calling thread."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        # A sample takes a few milliseconds; a switch interval above that
        # keeps the program's thread from taking the lock back mid-sample.
        sys.setswitchinterval(0.02)
        self._thread.start()

    def stop(self) -> List[Sample]:
        self._stop.set()
        self._thread.join()
        return self.samples

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.monotonic()
            calibrate()
            self.samples.append((t0, time.monotonic()))

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.sample()


def scaled(start: float, end: float, samples: Sequence[Sample]) -> float:
    """Seconds from `start` to `end` without the sampler thread's time in
    it, at the reference speed.

    The speed is the median of the samples within WINDOW_S of the interval
    (of all samples if there are none).  A few samples take many times the
    usual time, stretched by pre-emption or by waiting for the interpreter
    lock, and a mean follows them: over the same runs, scaling by the mean
    spread the end-to-end metrics more than not scaling at all, and scaling
    by the median spread them a half to a third as much.
    """
    timed = [((s + e) / 2, e - s) for s, e in samples]
    own = sum(d for m, d in timed if start <= m <= end)
    near = [d for m, d in timed if start - WINDOW_S <= m <= end + WINDOW_S]
    near = near or [d for _, d in timed]
    return (end - start - own) * REFERENCE_S / statistics.median(near)
