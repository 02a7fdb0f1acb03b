"""Wall time rescaled by a reference loop, to cancel machine speed drift.

On a shared 2-core host the speed of the same single-threaded Python code
drifts by 10-25 % over seconds to minutes while other tenants come and go;
the drift moves all interpreter-bound code alike.  ``Timebase`` splits a
timed batch into segments (one search, one log, one decision), times a
fixed pure-Python reference loop at every segment boundary, and scales
each segment's wall time by ``REF_NOMINAL_S / reference time`` (the mean of
the loop timings before and after the segment).  Reported times are thus
seconds at the speed where the loop takes ``REF_NOMINAL_S``; the reference
loops themselves are excluded from every time.  The loop lives only in the
benchmark, so no change to playmine can move it.
"""

from __future__ import annotations

import time

clock = time.perf_counter

REF_ITERATIONS = 6000
REF_NOMINAL_S = 0.0009  # typical loop time on the development host; keeps units near seconds
_REF_DATA = bytes(range(64))


def _reference_slice() -> float:
    data = _REF_DATA
    table: dict = {}
    acc = 0
    t0 = clock()
    for i in range(REF_ITERATIONS):
        acc += data[i & 63] * (i & 7)
        if i & 15 == 0:
            table[i & 255] = acc
    return clock() - t0


def reference_time() -> float:
    """Best of two slices, so one interrupt does not skew a segment."""
    return min(_reference_slice(), _reference_slice())


class Timebase:
    """Accumulates scaled segment times; ``enabled=False`` reports raw time."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.raw = 0.0
        self.scaled = 0.0
        self.samples: list[float] = []   # scaled, in ms
        self._pending: list[float] = []
        self._prev_ref = 0.0
        self._t = 0.0

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self.samples, self._pending = [], []
        if self.enabled:
            self._prev_ref = reference_time()
        self._t = clock()

    def sample(self, ms: float) -> None:
        """A latency measured inside the current segment, raw, in ms."""
        self._pending.append(ms)

    def mark(self) -> None:
        """Closes the current segment and opens the next."""
        raw = clock() - self._t
        factor = 1.0
        if self.enabled:
            ref = reference_time()
            factor = REF_NOMINAL_S / ((self._prev_ref + ref) / 2.0)
            self._prev_ref = ref
        self.raw += raw
        self.scaled += raw * factor
        self.samples += [ms * factor for ms in self._pending]
        self._pending = []
        self._t = clock()
