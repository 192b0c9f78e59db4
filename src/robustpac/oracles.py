"""Exhaustive robust empirical risk minimization over finite hypothesis families.

The oracle is an exact scan: every member of the family is evaluated and the
lowest-index minimizer is returned (`_lowest_minimizer`, which the
separation experiment's proper arm also calls).  No heuristics; the
learner's guarantees assume an exact RERM.  Standard ERM is `rerm` under
`PerturbationMap.identity(n)`, and a robustly consistent member exists
exactly when the result has risk 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ContractError, HypothesisFamily, PerturbationMap, Sample

__all__ = ["OracleResult", "rerm"]


@dataclass(frozen=True)
class OracleResult:
    hypothesis_index: int
    risk: Fraction


def rerm(family: HypothesisFamily, sample: Sample, perturbations: PerturbationMap) -> OracleResult:
    """Robust ERM: the lowest-index member minimizing empirical robust risk."""
    if len(sample) == 0:
        raise ContractError("RERM requires a nonempty sample")
    losses = family.robust_table(perturbations).loss_at(sample.points(), sample.labels())
    index, count = _lowest_minimizer(losses)
    return OracleResult(index, Fraction(count, len(sample)))


def _lowest_minimizer(losses: np.ndarray) -> tuple[int, int]:
    """The lowest row index of a (members, examples) loss table minimizing its row sum, and that sum."""
    counts = losses.sum(axis=1)
    index = int(np.argmin(counts))
    return index, int(counts[index])
