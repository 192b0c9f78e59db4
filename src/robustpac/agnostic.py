"""Agnostic-to-realizable reduction: boost weak robust learners on a maximal core.

Extract the largest subsequence of the data on which some family member has
zero empirical robust risk, then run multiplicative-weights boosting on that
core with the robust loss (step alpha = 1/8, exactly 1 + ceil(48 ln |core|)
rounds).  The resulting majority vote has vote margin above 1/2 on every core
example, hence zero robust mistakes there, and therefore empirical robust
risk on the full sample no worse than the best member of the family.

Both steps read one array, the family's robust mistakes on the sample's
distinct examples: the core is a set of its columns (`_maximal_core`).  The
boosting loop is the realizable learner's (`learner._boost_growing_n`):
candidates are robust-ERM outputs on size-n subsets of the core's columns,
with n starting at vc(family)+1 and doubling until weak learning succeeds,
and boosting reads their rows there, with no margin target and a fixed
round count.  The core is realizable, so a candidate robustly correct on all
of it often exists; `alpha_boost` then returns that candidate alone.
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
    _checked_delta,
    _checked_int,
)
from .learner import BoostResult, LearnerConfig, _boost_growing_n, _enumerated_candidates, _vote, alpha_boost
from .oracles import _lowest_minimizer

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
    of them, so the maximal core is the largest per-member coverage set, the
    one of robust ERM's pick (`rerm`'s tie rule), in sample order.  No
    strictly larger subsequence admits a member with zero empirical robust risk.
    """
    runs = sample.distinct.positions
    return tuple(sorted(j for s in _maximal_core(family, sample, perturbations)[1] for j in runs[s]))


def _maximal_core(family: HypothesisFamily, sample: Sample, perturbations: PerturbationMap) -> tuple[np.ndarray, list]:
    """The (members, distinct examples) robust loss over `sample.distinct`, and the core's distinct examples.

    A member covers every copy of an example it covers, so the member with
    the fewest mistakes `loss @ counts`, `rerm`'s pick, covers the most.
    """
    distinct = sample.distinct
    loss = family.robust_table(perturbations).loss_at(distinct.points, distinct.labels)
    best, _ = _lowest_minimizer(loss @ distinct.counts)
    return loss, np.flatnonzero(~loss[best]).tolist()


def agnostic_round_count(core_size: int) -> int:
    """Boosting rounds 1 + ceil(48 ln |core|) used by the agnostic reduction."""
    core_size = _checked_int("core_size", core_size, 0)
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
    round count 1 + ceil(48 ln |core|) is fixed, a candidate robustly
    correct on the whole core is the lone voter, and nothing is sparsified,
    so a set `N_sparsify` is a contract violation.  No step draws
    randomness, so unlike `learn_realizable` it takes no generator; a set
    `seed`, which no library code reads, changes nothing.
    """
    config = config or LearnerConfig()
    if config.N_sparsify is not None:
        raise ContractError("learn_agnostic does not use N_sparsify; leave it unset")
    loss, core = _maximal_core(family, sample, perturbations)
    if not core:
        return MajorityVotePredictor(
            (Hypothesis.constant(family.space_size, +1),),
            ((),),
            flags=("empty-realizable-core",),
        )

    # each core example is taken once, at its first position
    core_loss, rounds = loss[:, core], agnostic_round_count(len(core))

    def boosted(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], BoostResult]:
        members, vectors = _enumerated_candidates(core_loss, [1] * len(core), n)
        return members, vectors, alpha_boost(core_loss[list(members)], margin_target=None, T_max=rounds)

    members, vectors, boost = _boost_growing_n(family, len(core), config.n_initial, boosted)

    if boost.min_margin <= Fraction(1, 2):
        raise RuntimeError(
            f"agnostic boosting ended with margin {boost.min_margin} <= 1/2 on the core"
        )
    firsts = [sample.distinct.positions[s][:1] for s in core]
    return _vote(family, members, vectors, firsts, boost.voter_ids)


def agnostic_bound(sc_re: int, m: int, delta: float) -> float:
    """Excess-risk term 2 sqrt((sc_re T_m ln m + ln(2/delta)) / m), T_m = 1 + 48 ln m.

    `sc_re` is the realizable sample complexity at accuracy and confidence
    1/3, supplied by the caller; this function only evaluates the bound.
    """
    sc_re = _checked_int("sc_re", sc_re, 1)
    m = _checked_int("m", m, 1, message=f"agnostic bound requires an integer m >= 1, got m={m}")
    _checked_delta(delta)
    t_m = 1.0 + 48.0 * math.log(m)
    if m < 2 * sc_re * t_m:
        raise ContractError(
            f"bound requires m >= 2 * sc_re * (1 + 48 ln m) = {2 * sc_re * t_m:.1f}, got m={m}"
        )
    return 2.0 * math.sqrt((sc_re * t_m * math.log(m) + math.log(2.0 / delta)) / m)
