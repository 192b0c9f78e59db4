"""Counter-based pseudo-randomness for the experiment harness, the CLI and sampling.

All randomness in the package flows through Philox streams keyed by
(seed, stream).  Philox is counter-based and splittable: distinct stream
indices give statistically independent, platform-reproducible generators,
so a trial keyed (seed, t) draws the same numbers whatever ran before it.
"""

from __future__ import annotations

import numpy as np

from .core import _checked_int

__all__ = ["rng_stream", "rekey"]

_EMPTY = np.zeros(4, dtype=np.uint64)  # a Philox counter at 0, or a buffer holding nothing


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream) key, both in [0, 2^64); same key, same draws."""
    refusal = f"seed and stream must lie in [0, 2^64), got seed={seed}, stream={stream}"
    seed = _checked_int("seed", seed, 0, 2**64 - 1, message=refusal)
    stream = _checked_int("stream", stream, 0, 2**64 - 1, message=refusal)
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(rng: np.random.Generator, seed: int, stream: int) -> np.random.Generator:
    """`rng`, a generator from `rng_stream`, reset to the state `rng_stream(seed, stream)` starts in.

    Key (seed, stream), counter 0, an empty buffer and no pending 32-bit
    half-word: from here it draws exactly what a fresh `rng_stream(seed,
    stream)` draws, without building a Philox.  The key is not range-checked
    here: callers pass a key in [0, 2^64), as `rng_stream` requires.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _EMPTY, "key": (seed, stream)},
        "buffer": _EMPTY,
        "buffer_pos": len(_EMPTY),
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng
