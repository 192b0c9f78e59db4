"""The reference loop that scales request times to the machine's momentary speed.

On a shared host the same request can take twice as long from one second
to the next, because other tenants slow the CPU down for stretches of
seconds.  So every untraced request is bracketed by runs of one fixed loop
of small numpy operations, small sets and big-integer bitmask operations,
the kinds of work the library does, and its latency is reported in
reference milliseconds: 1 ref-ms is the mean duration of the reference
loops run from WINDOW_S seconds before the request started to WINDOW_S
seconds after it ended.  A request that slows down because the host did
slows its reference loops by about the same factor, so its ref-ms value
stays put, while a change to the library moves it.  The window is wider
than one request because the host's speed also flips within a second, so
the two loops right next to a request miss part of what it went through.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np

WINDOW_S = 0.5
ITERATIONS = 300
BITMASK_ITERATIONS = 1500
_VALUES = np.arange(64)
_WIDE = (1 << 200) - 1


def reference_loop_s() -> float:
    """Wall seconds of one run of the reference loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(ITERATIONS):
            total += int((_VALUES[i % 7:] > 3).sum()) + len({i, i + 1, i + 2})
        for i in range(BITMASK_ITERATIONS):
            total += (_WIDE & ((1 << (i % 190)) | 12345)).bit_count()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_ms(
    requests: list[tuple[float, float]],
    probes: list[tuple[float, float]],
    window: float = WINDOW_S,
) -> list[float]:
    """Each request's latency divided by the mean reference loop around it.

    `requests` holds (start, latency) and `probes` (start, duration) pairs in
    time order, where probe i ran just before request i and probe i + 1 just
    after it.  The mean is over the probes started within `window` seconds
    of the request, and always includes the two that bracket it.
    """
    times = [t for t, _ in probes]
    prefix = list(accumulate((d for _, d in probes), initial=0.0))
    scaled = []
    for i, (start, latency) in enumerate(requests):
        lo = min(bisect_left(times, start - window), i)
        hi = max(bisect_right(times, start + latency + window), i + 2)
        scaled.append(latency / ((prefix[hi] - prefix[lo]) / (hi - lo)))
    return scaled
