"""A gauge of the machine's speed, read between items.

On a shared host the processor's speed drifts by far more than any bound the
benchmark could hold: a fixed pure-Python loop took from 21 to 48 ms within
one minute on a 2-vCPU VM (Linux 6.18, Python 3.11), with CPU time tracking
wall time, so the loss is slower cycles, not time stolen from the process.
The runner therefore times a fixed reference snippet before every item and
reports each item's time rescaled to the speed at which the snippet takes
`REFERENCE_S`: `latency * REFERENCE_S / snippet time`, the snippet time being
the median of the probes around that item. A change to the library moves the
item times and leaves the snippet alone, so it shows in full; a slow minute
of the host moves both and cancels out.

The snippet mixes the kinds of work the library does: lookups at scattered
keys in a table larger than a core's caches, as in the BDD unique table,
insertions of new tuple-keyed entries, and small matrix products with a
`tanh`, as in the model (hidden size 64). In a trial of two and a half
minutes, blocks of about 2 s of items spread (quartile distance over median)
by 0.30 on `sift_wide` and 0.16 on `classical` as measured, and by 0.04 and
0.07 rescaled. No snippet tried followed every workload best: a loop of
integer arithmetic alone gave 0.10 and 0.05.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# about the snippet's median time between items on the machine above (the
# items evict its table from the caches; alone it takes 2.5-3 ms), so that
# rescaled times read close to the times measured there
REFERENCE_S = 0.0050
# probes on each side of an item whose median gives its speed
HALF_WINDOW = 4

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((24, 64))
_W = _RNG.standard_normal((64, 64)) / 8.0
_TABLE = {(i, i * 7 & 1023): i for i in range(1 << 15)}
_KEYS = [(i, i * 7 & 1023) for i in _RNG.permutation(1 << 15)[:8000].tolist()]


def _snippet() -> int:
    acc = 0
    for key in _KEYS:
        acc += _TABLE[key]
    fresh: dict = {}
    for i in range(4000):
        fresh[(i, i & 31)] = [i]
    x = _X
    for _ in range(40):
        x = np.tanh(x @ _W)
    return acc + int(x[0, 0] > 0)


def probe() -> float:
    """Seconds one run of the reference snippet takes now."""
    # a collection falling inside the snippet, or not, would move its time
    # by a third
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _snippet()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Probes taken between items; probe i is taken just before item i."""

    def __init__(self) -> None:
        _snippet()  # warm up
        self.probes: list[float] = []

    def read(self) -> None:
        self.probes.append(probe())

    def scale(self, i: int) -> float:
        """Factor that rescales item i's time to the reference speed."""
        window = self.probes[max(0, i - HALF_WINDOW + 1) : i + HALF_WINDOW + 1]
        return REFERENCE_S / statistics.median(window)

    def time_call(self, fn) -> tuple[float, float]:
        """Seconds `fn()` took, and the same rescaled by probes on each side."""
        for _ in range(HALF_WINDOW):
            self.read()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        for _ in range(HALF_WINDOW):
            self.read()
        return elapsed, elapsed * REFERENCE_S / statistics.median(self.probes[-2 * HALF_WINDOW :])
