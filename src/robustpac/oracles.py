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
    """Robust ERM: the lowest-index member minimizing empirical robust risk.

    Each member's mistakes are its losses on the sample's distinct examples
    weighted by their counts.
    """
    if len(sample) == 0:
        raise ContractError("RERM requires a nonempty sample")
    distinct = sample.distinct
    losses = family.robust_table(perturbations).loss_at(distinct.points, distinct.labels)
    index, count = _lowest_minimizer(losses @ distinct.counts)
    return OracleResult(index, Fraction(count, len(sample)))


def _lowest_minimizer(mistakes: np.ndarray) -> tuple[int, int]:
    """The lowest member index with the fewest of the given per-member mistakes, and that count."""
    index = int(np.argmin(mistakes))
    return index, int(mistakes[index])
