"""Agnostic-to-realizable reduction: boost weak robust learners on a maximal core.

Extract the largest subsequence of the data on which some family member has
zero empirical robust risk, then run multiplicative-weights boosting on that
core with the robust loss (step alpha = 1/8, exactly 1 + ceil(48 ln |core|)
rounds).  The resulting majority vote has vote margin above 1/2 on every core
example, hence zero robust mistakes there, and therefore empirical robust
risk on the full sample no worse than the best member of the family.

Boosting reads the (candidates, core examples) robust mistake matrix.  The
core is realizable by construction, so a candidate robustly correct on all
of it often exists; `alpha_boost` then returns that candidate for every
round without running them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    ContractError,
    Hypothesis,
    HypothesisFamily,
    MajorityVotePredictor,
    PerturbationMap,
    Sample,
)
from .dimensions import vc
from .learner import (
    LearnerConfig,
    WeakLearnerFailure,
    alpha_boost,
    build_candidates,
)

__all__ = [
    "RealizableCore",
    "max_realizable_subsequence",
    "learn_agnostic",
    "agnostic_bound",
    "agnostic_round_count",
]


@dataclass(frozen=True)
class RealizableCore:
    """Indices of a robustly realizable subsequence of the input sample.

    When `exact` is set the subsequence is maximal: no strictly larger
    subsequence admits a member with zero empirical robust risk.
    """

    indices: tuple[int, ...]
    exact: bool


def max_realizable_subsequence(
    family: HypothesisFamily,
    sample: Sample,
    perturbations: PerturbationMap,
    mode: str = "exact",
) -> RealizableCore:
    """Largest subsequence on which the robust loss can be zero.

    Exact mode scans per member: a set of examples is realizable iff a single
    member robustly covers all of them, so the maximal core is the largest
    per-member coverage set (lowest member index on ties).  Greedy mode keeps
    each example whose addition preserves realizability of the kept prefix;
    it is reserved for families given only implicitly and may be suboptimal.
    """
    if len(sample) == 0:
        raise ContractError("core extraction requires a nonempty sample")
    covered = ~family.robust_table(perturbations).loss(sample)
    if mode == "exact":
        totals = covered.sum(axis=1)
        best = int(np.argmax(totals))
        indices = tuple(int(j) for j in np.flatnonzero(covered[best]))
        return RealizableCore(indices, exact=True)
    if mode == "greedy":
        alive = np.ones(len(family), dtype=bool)
        kept: list[int] = []
        for j in range(len(sample)):
            narrowed = alive & covered[:, j]
            if narrowed.any():
                alive = narrowed
                kept.append(j)
        return RealizableCore(tuple(kept), exact=False)
    raise ContractError(f"mode must be 'exact' or 'greedy', got {mode!r}")


def agnostic_round_count(core_size: int) -> int:
    """Boosting rounds 1 + ceil(48 ln |core|) used by the agnostic reduction."""
    return 1 + math.ceil(48.0 * math.log(max(core_size, 1)))


def learn_agnostic(
    family: HypothesisFamily,
    sample: Sample,
    perturbations: PerturbationMap,
    config: LearnerConfig | None = None,
) -> MajorityVotePredictor:
    """Boost weak robust learners on the maximal realizable core.

    Returns a majority vote whose empirical robust risk on the full sample is
    at most the best achievable within the family.  A sample with an empty
    core (no example is robustly satisfiable by any member) yields the
    constant +1 predictor flagged "empty-realizable-core".

    Of `config` only `n_initial` is used.  The round count is fixed and
    nothing is sparsified, so a set `T_max` or `N_sparsify` is a contract
    violation; `seed` is accepted and unused, since no step draws randomness.
    """
    config = config or LearnerConfig()
    for name in ("T_max", "N_sparsify"):
        if getattr(config, name) is not None:
            raise ContractError(f"learn_agnostic does not use {name}; leave it unset")
    if len(sample) == 0:
        raise ContractError("agnostic learning requires a nonempty sample")
    core = max_realizable_subsequence(family, sample, perturbations, mode="exact")
    if not core.indices:
        return MajorityVotePredictor(
            (Hypothesis.constant(family.space_size, +1),),
            ((),),
            flags=("empty-realizable-core",),
        )

    seen: set[tuple[int, int]] = set()
    kept_original: list[int] = []
    for j in core.indices:
        key = sample[j].key()
        if key not in seen:
            seen.add(key)
            kept_original.append(j)
    core_sample = Sample(tuple(sample[j] for j in kept_original))

    rounds = agnostic_round_count(len(core_sample))
    n0 = config.n_initial if config.n_initial is not None else vc(family).value + 1
    n = min(n0, len(core_sample))
    while True:
        candidates = build_candidates(family, core_sample, perturbations, n)
        wrong = candidates.family.robust_table(perturbations).loss(core_sample)
        try:
            boost = alpha_boost(wrong, margin_target=None, T_max=rounds)
            break
        except WeakLearnerFailure:
            if n >= len(core_sample):
                raise
            n = min(len(core_sample), 2 * n)

    if boost.min_margin <= Fraction(1, 2):
        raise RuntimeError(
            f"agnostic boosting ended with margin {boost.min_margin} <= 1/2 on the core"
        )
    voters = tuple(candidates.family[i] for i in boost.voter_ids)
    provenance = tuple(
        tuple(kept_original[j] for j in candidates.provenance[i]) for i in boost.voter_ids
    )
    return MajorityVotePredictor(voters, provenance)


def agnostic_bound(sc_re: int, m: int, delta: float) -> float:
    """Excess-risk term 2 sqrt((sc_re T_m ln m + ln(2/delta)) / m), T_m = 1 + 48 ln m.

    `sc_re` is the realizable sample complexity at accuracy and confidence
    1/3, supplied by the caller; this function only evaluates the bound.
    """
    if sc_re < 1:
        raise ContractError(f"sc_re must be >= 1, got {sc_re}")
    if not 0 < delta < 1:
        raise ContractError(f"delta must lie in (0, 1), got {delta}")
    t_m = 1.0 + 48.0 * math.log(m)
    if m < 2 * sc_re * t_m:
        raise ContractError(
            f"bound requires m >= 2 * sc_re * (1 + 48 ln m) = {2 * sc_re * t_m:.1f}, got m={m}"
        )
    return 2.0 * math.sqrt((sc_re * t_m * math.log(m) + math.log(2.0 / delta)) / m)
