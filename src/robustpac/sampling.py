"""Reproducible i.i.d. sampling from finite distributions.

Draws go through inverse-CDF lookup over the atoms in stored order, fed by
the package-wide Philox streams, so identical (seed, stream) keys yield
identical samples on every platform.  `_atom_draws` is the one draw: it
returns the drawn atom indices, which `draw_sample` turns into a `Sample`
and the separation experiment's proper arm reads as they are.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteDistribution, Sample, _checked_int
from .prng import rng_stream

__all__ = ["sample_iid", "draw_sample"]


def _atom_draws(dist: FiniteDistribution, m: int, rng: np.random.Generator) -> np.ndarray:
    """The atom indices of m inverse-CDF draws: one `rng.random(m)` call on the kept CDF."""
    return np.searchsorted(dist._columns[2], rng.random(m), side="right")


def draw_sample(dist: FiniteDistribution, m: int, rng: np.random.Generator) -> Sample:
    """m inverse-CDF draws from an already-positioned generator.

    Takes exactly one `rng.random(m)` call, through `_atom_draws`; the
    drawn indices pick the sample's examples from the distribution's atoms.
    """
    m = _checked_int("sample size m", m, 1)
    atoms = dist.atoms
    return Sample(tuple(atoms[i][0] for i in _atom_draws(dist, m, rng).tolist()))


def sample_iid(dist: FiniteDistribution, m: int, seed: int, stream: int = 0) -> Sample:
    """m independent draws from the (seed, stream) Philox generator."""
    return draw_sample(dist, m, rng_stream(seed, stream))
