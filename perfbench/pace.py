"""The machine's pace, so that times read as seconds at a reference speed.

The host's speed drifts by a quarter and more, in phases of seconds to
minutes: back-to-back processes mapping the same three circuits read 7.4 s
to 13.9 s per round, with CPU time equal to wall time, and neither minima
nor medians over repeats remove it.  A fixed loop (:func:`loop`) timed
while the work runs shows the same drift.  Each job's seconds are scaled
by ``REFERENCE_S / mean(loop seconds)`` over the loop samples taken during
the job, or just before and after it: the job then reads as seconds at
the speed at which one loop takes ``REFERENCE_S``.  The loop never calls
the program, so a change to the program moves the scaled time, never the
scale.

Samples are taken either between jobs (:meth:`Pace.sample`) or during
them: from an interval-timer signal for work in the main thread
(:meth:`Pace.ticking`), from an event-loop task for work in executor
threads (:meth:`Pace.ticker`).  The time the samples take is not counted
in the jobs' seconds.  Only the standard library's ``signal``, ``time``
and ``contextlib`` are imported, so a set-up probe can use this module
before it starts timing without importing much the program would import.
"""

import signal
import time
from contextlib import contextmanager

#: Iterations of one sample: about 1.2 ms on a 2-CPU 2.1 GHz Xeon VM (1 to
#: 5 ms as its host's load varies), so a sample taken while another thread
#: waits for the interpreter lock nearly always ends before that thread's
#: 5 ms switch interval forces a switch.
ITERATIONS = 10_000
#: What one sample takes at the reference speed.
REFERENCE_S = 0.0012
#: Seconds between samples while :meth:`Pace.ticking` or :meth:`Pace.ticker`
#: run, by default.
TICK_S = 0.025
#: A job with fewer samples inside it also uses the blocks around it.
MIN_INSIDE = 5


def loop() -> float:
    """Seconds for a fixed pure-Python loop of arithmetic, list and dict
    work.  Of three loops tried it tracked the SAT mapper's speed best."""
    start = time.perf_counter()
    total, table, items = 0, {}, list(range(64))
    for index in range(ITERATIONS):
        total += items[index & 63] * index % 7
        table[index & 255] = total
    return time.perf_counter() - start


class Pace:
    """Loop samples of one stretch of work, in blocks taken back to back."""

    def __init__(self):
        self.blocks = []  # (first start, last end, [seconds of each sample])
        self.stolen = 0.0  # seconds spent sampling so far
        self.last = float("-inf")

    def sample(self, count=1, seconds=0.0):
        """A block of *count* samples, then more until *seconds* passed."""
        start = time.perf_counter()
        taken = [loop() for _ in range(count)]
        while time.perf_counter() - start < seconds:
            taken.append(loop())
        self.last = time.perf_counter()
        self.stolen += self.last - start
        self.blocks.append((start, self.last, taken))

    def sample_every(self, seconds, count):
        """A block of *count* samples if *seconds* passed since the last."""
        if time.perf_counter() - self.last >= seconds:
            self.sample(count)

    @contextmanager
    def ticking(self, interval=TICK_S):
        """One sample every *interval* seconds inside the block, from SIGALRM.

        The handler runs in the main thread between two bytecodes of the
        work, so only use it around work the main thread does itself.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    async def ticker(self, interval=TICK_S):
        """One sample every *interval* seconds from an event loop, until
        cancelled.  The event loop's thread takes the interpreter lock for
        each sample, so work in the loop's executor threads is sampled
        during it."""
        import asyncio

        while True:
            await asyncio.sleep(interval)
            self.sample()

    def start(self):
        """Mark the start of a job; pass the mark to :meth:`finish`."""
        return time.perf_counter(), self.stolen

    def finish(self, mark):
        """``(seconds, stretch)`` of the job begun at *mark*: its wall
        seconds less the sampling inside it, and the stretch of time it
        ran, for :meth:`factor` once the samples after it are taken."""
        began, stolen = mark
        end = time.perf_counter()
        return end - began - (self.stolen - stolen), (began, end)

    def factor(self, stretch=None):
        """Reference over measured pace, from the samples taken during
        *stretch* (``perf_counter`` times), adding the block just before
        and the block just after when fewer than ``MIN_INSIDE`` lie
        inside; from every sample when no stretch is given."""
        if stretch is None:
            chosen = self.blocks
        else:
            start, end = stretch
            chosen = [b for b in self.blocks if b[1] >= start and b[0] <= end]
            if sum(len(b[2]) for b in chosen) < MIN_INSIDE:
                before = [b for b in self.blocks if b[1] < start][-1:]
                after = [b for b in self.blocks if b[0] > end][:1]
                chosen = before + chosen + after
        taken = [seconds for block in chosen for seconds in block[2]]
        return REFERENCE_S * len(taken) / sum(taken)
