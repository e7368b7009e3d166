"""Machine-speed probe that takes the host's drift out of reported times.

On a shared 2-vCPU VM, identical CPU-bound work drifts by +-25 % over
minutes and switches between a fast and a slow regime within seconds: the
same `poly-large` pass took 4.6 s in one run and 5.9 s a few minutes later,
so raw seconds from two sets of runs cannot be compared within a useful
bound.  The probe runs a fixed pure-Python job (scans of 900-bit rows,
JSON rendering, regex counting: the interpreter work the CLI does, on a
working set of similar size) between requests, outside every timed region,
and each request's time is scaled by the probe units run nearest to it::

    reported seconds = measured seconds * NOMINAL_UNIT_S / local unit seconds

where the local unit time is the median of the ``WINDOW`` units closest to
the request.  Over five `poly-large` seeds the spread (interquartile range
over median) of the pass time was 0.13 raw, 0.13 scaled by the median unit
of the whole run and 0.05 scaled locally.  A change to qwcover moves the
measured seconds and never the probe, so the scaled figure moves with the
program as the raw one does; the raw figures are printed too.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import time

# Median unit time on the 2.1 GHz Xeon VM where the seed numbers were
# recorded, so that there reported seconds read like wall-clock seconds.
NOMINAL_UNIT_S = 0.016
SHARE = 0.04  # probe time as a share of the measured time it accompanies
WINDOW = 4  # units that give a request its local speed

_rng = random.Random(20190708)
_ROWS = tuple(_rng.getrandbits(900) for _ in range(900))
_DOC = {"results": [{"terms": list(range(i, i + 12)), "basis": {str(q): "XYZ"[q % 3] for q in range(8)}}
                    for i in range(300)]}
_NUMBER = re.compile(r"\d+")


def unit() -> float:
    """Run the fixed job once; return its wall-clock seconds."""
    start = time.perf_counter()
    rows, remaining = _ROWS, (1 << len(_ROWS)) - 1
    for _ in range(24):
        best = None
        mask = remaining
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            key = ((rows[u] & remaining).bit_count(), u)
            if best is None or key < best:
                best = key
            mask ^= low
        remaining ^= 1 << best[1]
    text = json.dumps(_DOC, indent=2)
    counts: dict[str, int] = {}
    for match in _NUMBER.finditer(text):
        key = match.group()
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class Probe:
    """Samples ``unit`` so that probe time stays ``SHARE`` of the time
    reported through :meth:`account`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._owed = 0.0

    def account(self, seconds: float) -> int:
        """Record measured time, then run units to keep pace with it.
        Returns the time's position: the number of units run before it."""
        position = len(self.samples)
        self._owed += seconds * SHARE
        while self._owed > 0:
            sample = unit()
            self.samples.append(sample)
            self._owed -= sample
        return position

    def scale(self, position: int | None = None) -> float:
        """Nominal over median unit time: of the ``WINDOW`` units nearest
        ``position`` (half before it, half after), or of the whole run."""
        samples = self.samples
        if position is not None:
            start = max(0, min(position - WINDOW // 2, len(samples) - WINDOW))
            samples = samples[start:start + WINDOW]
        return NOMINAL_UNIT_S / statistics.median(samples)
