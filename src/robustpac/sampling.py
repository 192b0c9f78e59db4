"""Reproducible i.i.d. sampling from finite distributions.

Draws go through inverse-CDF lookup over the atoms in stored order, fed by
the package-wide Philox streams, so identical (seed, stream) keys yield
identical samples on every platform.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteDistribution, Sample, _checked_int, _sample_with_columns
from .prng import rng_stream

__all__ = ["sample_iid", "draw_sample"]


def draw_sample(dist: FiniteDistribution, m: int, rng: np.random.Generator) -> Sample:
    """m inverse-CDF draws from an already-positioned generator.

    Takes exactly one `rng.random(m)` call.  The draws index the
    distribution's cached support columns (points, labels and CDF), and the
    sample keeps the indexed points and labels as its own columns.
    """
    m = _checked_int("sample size m", m, 1)
    points, labels, cdf, _ = dist._columns
    idx = np.searchsorted(cdf, rng.random(m), side="right")
    atoms = dist.atoms
    return _sample_with_columns(tuple(atoms[i][0] for i in idx.tolist()), points[idx], labels[idx])


def sample_iid(dist: FiniteDistribution, m: int, seed: int, stream: int = 0) -> Sample:
    """m independent draws from the (seed, stream) Philox generator."""
    return draw_sample(dist, m, rng_stream(seed, stream))
