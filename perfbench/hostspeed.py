"""The host's speed, measured around and during every timed interval.

The host the benchmark was sized on shares its cores with other machines,
and its speed changes by up to 1.7x within seconds.  :class:`HostMeter`
times a fixed loop, :func:`reference_kernel`, right before and right after
each interval, and at a fixed period while an interval runs (from a
``SIGALRM`` timer, so the program needs no hooks).  Each interval is then
also reported at the reference speed: scaled by ``NOMINAL_S`` over the
loop's mean time across those samples.  The loop's own time inside an
interval is taken out of the interval's time.

This module imports nothing from the program, so it can time the program's
imports, and no change to the program can change the loop.
"""

import gc
import signal
import statistics
import time

#: BN254's base-field modulus, for the reference kernel's arithmetic
_REF_P = 21888242871839275222246405745257275088696311157297823662689037894645226208583
#: the reference kernel's time at the host speed the normalized metrics
#: are expressed in (the 2-core host the benchmark was sized on, unloaded)
NOMINAL_S = 0.005
#: the kernel runs every this many seconds inside a timed operation;
#: shorter operations (a connection) are sampled only at their two ends,
#: and the median over a run's many operations evens out what that misses
SAMPLE_EVERY_S = 0.5
#: the period inside a set-up: a run has only three, of 0.2-3 s, so each is
#: sampled densely (per-set-up spread 4% against 6-7% at SAMPLE_EVERY_S)
SETUP_SAMPLE_EVERY_S = 0.05


def reference_kernel(rounds=100):
    """Seconds taken by a fixed loop of Fq12-sized schoolbook products.

    Its big-integer products and tuple churn slow down with the host the
    way the program's arithmetic does (a correlation of 0.74 with single
    NOPE verifications, over 400 of them).  The garbage collector is off while it runs, so
    its time does not depend on how many objects the program keeps alive.
    """
    a = tuple(_REF_P - 7 * k for k in range(1, 13))
    b = tuple(_REF_P - 11 * k for k in range(1, 13))
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(rounds):
            c = [0] * 23
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    c[i + j] += x * y
            a = tuple(v % _REF_P for v in c[:12])
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class HostMeter:
    """Times intervals, each as measured and at the reference speed.

    Consecutive intervals share a sample: the one after an interval is
    the one before the next.  ``on_sample(seconds)``, when set, is told of
    every sample taken inside an interval (the tracer leaves that time out
    of the layer it interrupted).
    """

    def __init__(self):
        self.on_sample = None
        #: the kernel's times sampled inside the last interval
        self.inside = []
        self._before = reference_kernel()

    def restart(self):
        """Take a fresh sample before the next interval (after a pause the
        last one no longer describes the host)."""
        self._before = reference_kernel()

    def _sample(self, signum, frame):
        spent = reference_kernel()
        self.inside.append(spent)
        if self.on_sample is not None:
            self.on_sample(spent)

    def time(self, fn, every=SAMPLE_EVERY_S):
        """Run ``fn()``, sampling the host every ``every`` seconds; returns
        (its result, its seconds, its seconds at the reference speed).
        ``fn`` should not raise."""
        self.inside = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, every, every)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        elapsed -= sum(self.inside)
        after = reference_kernel()
        samples = [self._before, *self.inside, after]
        self._before = after
        return result, elapsed, elapsed * NOMINAL_S / statistics.fmean(samples)
