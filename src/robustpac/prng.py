"""Counter-based pseudo-randomness for the experiment harness, the CLI and sampling.

All randomness in the package flows through Philox streams keyed by
(seed, stream).  Philox is counter-based and splittable: distinct stream
indices give statistically independent, platform-reproducible generators,
so a trial keyed (seed, t) draws the same numbers whatever ran before it.
"""

from __future__ import annotations

import numpy as np

from .core import ContractError

__all__ = ["rng_stream"]


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream) key, both in [0, 2^64); same key, same draws."""
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise ContractError(f"seed and stream must lie in [0, 2^64), got seed={seed}, stream={stream}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
