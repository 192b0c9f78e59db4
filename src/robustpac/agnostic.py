"""Agnostic-to-realizable reduction: boost weak robust learners on a maximal core.

Extract the largest subsequence of the data on which some family member has
zero empirical robust risk, then run multiplicative-weights boosting on that
core with the robust loss (step alpha = 1/8, exactly 1 + ceil(48 ln |core|)
rounds).  The resulting majority vote has vote margin above 1/2 on every core
example, hence zero robust mistakes there, and therefore empirical robust
risk on the full sample no worse than the best member of the family.

The boosting loop is the realizable learner's (`learner._boost_growing_n`):
candidates are robust-ERM outputs on size-n subsamples of the core, with n
starting at vc(family)+1 and doubling until weak learning succeeds.  Here
boosting reads the candidates' rows of the family's robust mistakes on the
core, with no margin target and a fixed round count.  The core is realizable by
construction, so a candidate robustly correct on all of it often exists;
`alpha_boost` then returns that candidate for every round without running
them.
"""

from __future__ import annotations

import math
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
from .learner import LearnerConfig, _boost_growing_n, alpha_boost

__all__ = [
    "max_realizable_subsequence",
    "learn_agnostic",
    "agnostic_bound",
    "agnostic_round_count",
]


def max_realizable_subsequence(
    family: HypothesisFamily,
    sample: Sample,
    perturbations: PerturbationMap,
) -> tuple[int, ...]:
    """Indices of the largest subsequence on which the robust loss can be zero.

    A set of examples is realizable iff a single member robustly covers all
    of them, so the maximal core is the largest per-member coverage set
    (lowest member index on ties), returned in sample order.  No strictly
    larger subsequence admits a member with zero empirical robust risk.
    """
    if len(sample) == 0:
        raise ContractError("core extraction requires a nonempty sample")
    covered = ~family.robust_table(perturbations).loss_at(sample.points(), sample.labels())
    best = int(np.argmax(covered.sum(axis=1)))
    return tuple(int(j) for j in np.flatnonzero(covered[best]))


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

    Repeated core examples are boosted once, at their first position.  Of
    `config` only `n_initial` is used, as in the realizable learner.  The
    round count 1 + ceil(48 ln |core|) is fixed and nothing is sparsified,
    so a set `N_sparsify` is a contract violation.  No step draws
    randomness, so unlike `learn_realizable` it takes no generator; a set
    `seed`, which no library code reads, changes nothing.
    """
    config = config or LearnerConfig()
    if config.N_sparsify is not None:
        raise ContractError("learn_agnostic does not use N_sparsify; leave it unset")
    if len(sample) == 0:
        raise ContractError("agnostic learning requires a nonempty sample")
    core = max_realizable_subsequence(family, sample, perturbations)
    if not core:
        return MajorityVotePredictor(
            (Hypothesis.constant(family.space_size, +1),),
            ((),),
            flags=("empty-realizable-core",),
        )

    # the core holds every copy of its examples, so it keeps their first positions
    in_core = set(core)
    kept_original = [run[0] for run in sample.distinct.positions if run[0] in in_core]
    core_sample = Sample(tuple(sample[j] for j in kept_original))

    # the core sample's examples are distinct, so its distinct matrix is its loss, kept for build_candidates
    loss = core_sample._distinct_mistakes(family, perturbations)
    rounds = agnostic_round_count(len(core_sample))
    candidates, boost = _boost_growing_n(
        family,
        core_sample,
        perturbations,
        config.n_initial,
        lambda c: alpha_boost(loss[list(c.members)], margin_target=None, T_max=rounds),
    )

    if boost.min_margin <= Fraction(1, 2):
        raise RuntimeError(
            f"agnostic boosting ended with margin {boost.min_margin} <= 1/2 on the core"
        )
    origin = {
        i: tuple(kept_original[j] for j in candidates.provenance[i]) for i in set(boost.voter_ids)
    }
    voters = tuple(family[candidates.members[i]] for i in boost.voter_ids)
    return MajorityVotePredictor(voters, tuple(origin[i] for i in boost.voter_ids))


def agnostic_bound(sc_re: int, m: int, delta: float) -> float:
    """Excess-risk term 2 sqrt((sc_re T_m ln m + ln(2/delta)) / m), T_m = 1 + 48 ln m.

    `sc_re` is the realizable sample complexity at accuracy and confidence
    1/3, supplied by the caller; this function only evaluates the bound.
    """
    if sc_re < 1:
        raise ContractError(f"sc_re must be >= 1, got {sc_re}")
    if not (isinstance(m, int) and m >= 1):
        raise ContractError(f"agnostic bound requires an integer m >= 1, got m={m}")
    if not 0 < delta < 1:
        raise ContractError(f"delta must lie in (0, 1), got {delta}")
    t_m = 1.0 + 48.0 * math.log(m)
    if m < 2 * sc_re * t_m:
        raise ContractError(
            f"bound requires m >= 2 * sc_re * (1 + 48 ln m) = {2 * sc_re * t_m:.1f}, got m={m}"
        )
    return 2.0 * math.sqrt((sc_re * t_m * math.log(m) + math.log(2.0 / delta)) / m)
