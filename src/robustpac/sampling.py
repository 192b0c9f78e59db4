"""Reproducible i.i.d. sampling from finite distributions.

Draws go through inverse-CDF lookup over the atoms in stored order, fed by
the package-wide Philox streams, so identical (seed, stream) keys yield
identical samples on every platform.
"""

from __future__ import annotations

import numpy as np

from .core import ContractError, FiniteDistribution, Sample
from .prng import rng_stream

__all__ = ["sample_iid", "draw_sample"]


def draw_sample(dist: FiniteDistribution, m: int, rng: np.random.Generator) -> Sample:
    """m inverse-CDF draws from an already-positioned generator."""
    if m < 1:
        raise ContractError(f"sample size must be >= 1, got {m}")
    cdf = np.cumsum(dist.probabilities())
    cdf[-1] = 1.0
    u = rng.random(m)
    idx = np.searchsorted(cdf, u, side="right")
    support = dist.support()
    return Sample(tuple(support[int(i)] for i in idx))


def sample_iid(dist: FiniteDistribution, m: int, seed: int, stream: int = 0) -> Sample:
    """m independent draws from the (seed, stream) Philox generator."""
    return draw_sample(dist, m, rng_stream(seed, stream))
