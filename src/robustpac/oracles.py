"""Exhaustive (robust) empirical risk minimization over finite hypothesis families.

The oracle is an exact scan: every member of the family is evaluated and the
lowest-index minimizer is returned.  No heuristics; the learner's guarantees
assume an exact RERM.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    ContractError,
    HypothesisFamily,
    PerturbationMap,
    Sample,
)

__all__ = ["OracleResult", "rerm", "erm", "robustly_consistent", "robust_mistake_counts"]


@dataclass(frozen=True)
class OracleResult:
    hypothesis_index: int
    risk: Fraction


def robust_mistake_counts(
    family: HypothesisFamily, sample: Sample, perturbations: PerturbationMap
) -> np.ndarray:
    """Number of robust mistakes on the sample, per family member (with multiplicity)."""
    return family.robust_table(perturbations).loss(sample).sum(axis=1)


def rerm(family: HypothesisFamily, sample: Sample, perturbations: PerturbationMap) -> OracleResult:
    """Robust ERM: the lowest-index member minimizing empirical robust risk.

    Standard ERM is this operation with the identity perturbation map.
    """
    if len(family) == 0:
        raise ContractError("RERM requires a nonempty family")
    if len(sample) == 0:
        raise ContractError("RERM requires a nonempty sample")
    counts = robust_mistake_counts(family, sample, perturbations)
    index = int(np.argmin(counts))
    return OracleResult(index, Fraction(int(counts[index]), len(sample)))


def erm(family: HypothesisFamily, sample: Sample) -> OracleResult:
    return rerm(family, sample, PerturbationMap.identity(family.space_size))


def robustly_consistent(
    family: HypothesisFamily, sample: Sample, perturbations: PerturbationMap
) -> OracleResult | None:
    """Lowest-index member with empirical robust risk exactly 0, or None.

    Absence is a value, not an error.
    """
    if len(family) == 0:
        raise ContractError("consistency search requires a nonempty family")
    if len(sample) == 0:
        raise ContractError("consistency search requires a nonempty sample")
    counts = robust_mistake_counts(family, sample, perturbations)
    zeros = np.flatnonzero(counts == 0)
    if zeros.size == 0:
        return None
    return OracleResult(int(zeros[0]), Fraction(0))
