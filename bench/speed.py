"""Machine-speed probe, so that timings measure the program and not the
machine's current speed.

The reference CPU is shared with other work; over a few seconds its speed
swings by up to 2x, and a run of the same code can be 30% slower than the
run before.  ``Probe`` times a fixed piece of pure-Python work (breadth-first
sweeps over adjacency sets and bitmasks, like the package's own code) right
before and right after each call and, every ``PERIOD_S`` during it, from a
``SIGALRM`` handler.  The call's time, less the time spent probing, is
scaled by the mean speed the probes saw, giving its time at the reference
speed: the probe's time on the reference machine at full speed.
"""

from __future__ import annotations

import random
import signal
import time

REFERENCE_S = 0.0009  # one probe on the reference machine at full speed
PERIOD_S = 0.2

_rng = random.Random(20161114)
_N = 300
_ADJ = [set() for _ in range(_N)]
for _ in range(3 * _N):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    if _u != _v:
        _ADJ[_u].add(_v)
        _ADJ[_v].add(_u)
_MASK = [sum(1 << w for w in a) for a in _ADJ]


def _work():
    total = 0
    for root in range(0, _N, 150):
        seen = 1 << root
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                new = _MASK[u] & ~seen
                seen |= new
                nxt.extend(w for w in sorted(_ADJ[u]) if new >> w & 1)
            frontier = nxt
        total += seen.bit_count()
    return total


def probe_s():
    """Seconds for one run of the fixed work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Probe:
    """Context manager around one call: ``elapsed_s`` is the call's wall time
    without the probes, ``scaled_s`` its time at the reference speed.  With
    ``during=False`` only the probes before and after run (a traced call
    must not have probe work inside its spans)."""

    def __init__(self, during=True):
        self.during = during
        self.samples: list[float] = []
        self._probing = 0.0

    def _sample(self, *_):
        t = probe_s()
        self.samples.append(t)
        self._probing += t

    def __enter__(self):
        self._sample()
        self._probing = 0.0
        if self.during:
            self._old = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.elapsed_s = end - self._t0 - self._probing
        self._sample()
        # mean speed over the probes, in units of the reference speed
        self.speed = sum(REFERENCE_S / t for t in self.samples) / len(self.samples)
        self.scaled_s = self.elapsed_s * self.speed
        return False
