"""A machine-speed probe that timings are scaled by.

The benchmark shares a two-core machine with other tenants, and the
speed of the same Python work drifts by more than half over tens of
seconds (a fixed loop measured 5.3 ms per call at one minute and 8.6 ms
the next). Run-to-run spreads of raw times then exceed any useful
regression bound. The probe tracks that drift: between requests the
benchmark runs a fixed allocation-heavy kernel, and every time measured
is scaled by ``REFERENCE_S`` over the median of the probe samples
nearest to it. The reported times are thus "on a machine where one
probe takes 1 ms". The kernel uses no program code, so no change to
the program can move it.

The probe runs with the garbage collector paused. Its objects are all
freed before it returns, so it neither pays for collecting the
program's heap nor leaves the program a collection to pay for.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: Probe time that scaled timings are expressed against.
REFERENCE_S = 0.001
#: Probe samples taken on each side of an instant to judge its speed.
NEIGHBOURS = 3
#: Busy time of the program between two probes.
EVERY_S = 0.01


def _kernel():
    rows = [{"key": index % 97, "value": index} for index in range(2000)]
    groups = {}
    for row in rows:
        groups.setdefault(row["key"], []).append(row["value"])
    return sorted(groups.items(), key=lambda item: len(item[1]))


class SpeedProbe:
    """Probe samples over a run, and the scale they give each instant."""

    def __init__(self):
        self.starts = []
        self.seconds = []
        self._busy = 0.0
        self._local = None

    def sample(self, count=1):
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                started = time.perf_counter()
                _kernel()
                self.starts.append(started)
                self.seconds.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        self._local = None

    def tick(self, busy):
        """Count ``busy`` seconds of program time; probe every
        ``EVERY_S`` of it."""
        self._busy += busy
        if self._busy >= EVERY_S:
            self._busy = 0.0
            self.sample()

    def current_scale(self):
        """The scale of the present instant, from the latest samples."""
        if not self.seconds:
            return 1.0
        return REFERENCE_S / statistics.median(
            self.seconds[-2 * NEIGHBOURS:])

    def median_s(self):
        return statistics.median(self.seconds)

    def scale(self, instant):
        """``REFERENCE_S`` over the median of the ``NEIGHBOURS`` probe
        samples on each side of ``instant``."""
        if self._local is None:
            self._local = [
                statistics.median(self.seconds[max(0, index - NEIGHBOURS):
                                               index + NEIGHBOURS])
                for index in range(len(self.seconds) + 1)
            ]
        return REFERENCE_S / self._local[bisect.bisect(self.starts, instant)]
