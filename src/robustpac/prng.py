"""Counter-based pseudo-randomness for the experiment harness, the CLI and sampling.

All randomness in the package flows through Philox streams keyed by
(seed, stream).  Philox is counter-based and splittable: distinct stream
indices give statistically independent, platform-reproducible generators,
so a trial keyed (seed, t) draws the same numbers whatever ran before it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rng_stream"]


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream) key; same key, same draws."""
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
