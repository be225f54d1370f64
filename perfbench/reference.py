"""A fixed reference computation that rescales times to one machine speed.

On a shared machine the same pass runs up to 50% faster or slower from
one minute to the next, as other tenants load the host.  The benchmark
therefore times, between the calls of every pass, a small computation
that does not touch ``liesplit`` and mixes the kinds of work its layers
do: an interpreted integer loop, ``Fraction`` sums, small dense products
and a solve, dict updates keyed by tuples, and ``scipy.linalg.expm``.  A
pass time is then reported at the speed at which the reference takes
``NOMINAL_S``: multiplied by ``NOMINAL_S`` over the median of the samples
taken during the pass or within ``WINDOW_S`` around it.  A change to
``liesplit`` cannot change the reference, so it moves a rescaled time as
much as the raw one.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np
import scipy.linalg

# Median reference time on a 2-vCPU 2.1 GHz virtual machine with Python
# 3.11, numpy 2.4, scipy 1.17 and one BLAS thread; rescaled times read
# close to raw times there.
NOMINAL_S = 0.024
# Run the reference before a call once this long has passed since the
# last sample: about one sample per 0.2 s of work, so it costs about a
# tenth of a run.
EVERY_S = 0.2
# A pass is rescaled by the samples of at least this long a stretch
# around it: long enough for about fifty samples, short enough to follow
# the machine's changes of speed, which last from seconds to minutes.
WINDOW_S = 10.0


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((16, 16)) for _ in range(8)]
        self._shifted = self._mats[0] + 5 * np.eye(16)
        self._gen = rng.standard_normal((48, 48)) / 10
        self.samples: list[float] = []
        self.times: list[float] = []
        self._last = -float("inf")
        self._work()  # the first call pays for lazy imports

    def _work(self) -> None:
        total = 0
        for i in range(60000):
            total += i * i % 7
        frac = Fraction(0)
        for i in range(1, 1500):
            frac += Fraction(1, i)
        for _ in range(150):
            x = self._mats[0]
            for a in self._mats[1:]:
                x = x @ a
            np.linalg.solve(self._shifted, x[:, 0])
        counts: dict = {}
        for i in range(5000):
            key = (i % 97, i % 89, i % 13)
            counts[key] = counts.get(key, 0) + i
        sorted(counts.items())
        for _ in range(10):
            scipy.linalg.expm(self._gen)

    def maybe_sample(self) -> None:
        """Time the reference if ``EVERY_S`` has passed since the last time.

        The collector is off meanwhile: its passes scan the whole heap, which
        a cold pass grows, so they would make the reference track the
        program's memory rather than the machine's speed."""
        if time.perf_counter() - self._last < EVERY_S:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            self._work()
            self._last = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(self._last - t)
        self.times.append((t + self._last) / 2)

    def scale_around(self, start: float, end: float) -> float:
        """Factor from the machine's speed over ``start`` to ``end`` (at
        least ``WINDOW_S`` around their middle) to the nominal speed."""
        mid, half = (start + end) / 2, max((end - start) / 2, WINDOW_S / 2)
        near = [d for t, d in zip(self.times, self.samples) if abs(t - mid) <= half]
        return NOMINAL_S / statistics.median(near or self.samples)
