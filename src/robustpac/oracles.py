"""Exhaustive robust empirical risk minimization over finite hypothesis families.

The oracle is an exact scan: every member of the family is evaluated and the
lowest-index minimizer is returned.  No heuristics; the learner's guarantees
assume an exact RERM.  Standard ERM is `rerm` under
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
    table = family.robust_table(perturbations)
    counts = table.loss_at(sample.points(), sample.labels()).sum(axis=1)
    index = int(np.argmin(counts))
    return OracleResult(index, Fraction(int(counts[index]), len(sample)))
