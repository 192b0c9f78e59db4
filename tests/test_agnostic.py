from __future__ import annotations

import math
from fractions import Fraction

import pytest

from robustpac.agnostic import (
    agnostic_bound,
    agnostic_round_count,
    learn_agnostic,
    max_realizable_subsequence,
)
from robustpac.core import (
    ContractError,
    HypothesisFamily,
    PerturbationMap,
    Sample,
    empirical_robust_risk,
    robust_loss,
)
from robustpac.learner import LearnerConfig
from robustpac.oracles import rerm

from conftest import random_labeled_sample, random_realizable_setup


def test_core_of_a_realizable_sample_is_everything():
    family, perturbations, sample, _ = random_realizable_setup(1)
    core = max_realizable_subsequence(family, sample, perturbations)
    assert core == tuple(range(len(sample)))


def test_core_is_the_best_member_coverage():
    for seed in range(20):
        family, perturbations, sample = random_labeled_sample(seed)
        core = max_realizable_subsequence(family, sample, perturbations)
        coverages = [
            [j for j in range(len(sample)) if robust_loss(h, sample[j], perturbations) == 0]
            for h in family
        ]
        best = max(len(c) for c in coverages)
        assert len(core) == best
        assert list(core) in coverages
        # the kept subsequence really is realizable
        if core:
            kept = Sample(tuple(sample[j] for j in core))
            assert rerm(family, kept, perturbations).risk == 0


def test_core_can_be_empty():
    family = HypothesisFamily.from_rows([(1, 1)])
    sample = Sample.from_pairs([(0, -1), (1, -1)])
    core = max_realizable_subsequence(family, sample, PerturbationMap.identity(2))
    assert core == ()


def test_agnostic_never_loses_to_the_oracle():
    for seed in range(25):
        family, perturbations, sample = random_labeled_sample(seed)
        predictor = learn_agnostic(family, sample, perturbations)
        achieved = empirical_robust_risk(predictor, sample, perturbations)
        optimum = rerm(family, sample, perturbations).risk
        assert achieved <= optimum


def test_agnostic_reduces_to_zero_risk_on_realizable_inputs():
    for seed in range(10):
        family, perturbations, sample, _ = random_realizable_setup(seed)
        predictor = learn_agnostic(family, sample, perturbations)
        assert empirical_robust_risk(predictor, sample, perturbations) == 0


def test_agnostic_grows_n_when_the_best_candidate_errs_on_a_third():
    # the realizable learner's fixture: at n = 1 and n = 2 every candidate errs
    # on exactly one of the three core examples, which is not below 1/3
    family = HypothesisFamily.from_rows([(-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 1, 1)])
    sample = Sample.from_pairs([(0, 1), (1, 1), (2, 1)])
    perturbations = PerturbationMap.identity(3)
    predictor = learn_agnostic(family, sample, perturbations, LearnerConfig(n_initial=1))
    assert set(predictor.provenance) == {(0, 1, 2)}
    assert empirical_robust_risk(predictor, sample, perturbations) == 0


def test_agnostic_empty_core_returns_flagged_constant():
    family = HypothesisFamily.from_rows([(1, 1)])
    sample = Sample.from_pairs([(0, -1), (1, -1)])
    predictor = learn_agnostic(family, sample, PerturbationMap.identity(2))
    assert predictor.flags == ("empty-realizable-core",)
    assert all(v == 1 for v in predictor.voters[0].labels)


def test_agnostic_provenance_points_into_the_original_sample():
    family, perturbations, sample = random_labeled_sample(4)
    predictor = learn_agnostic(family, sample, perturbations)
    core = max_realizable_subsequence(family, sample, perturbations)
    for tup in predictor.provenance:
        assert set(tup) <= set(core)


def test_round_count_formula():
    assert agnostic_round_count(1) == 1
    assert agnostic_round_count(5) == 1 + math.ceil(48 * math.log(5))


def test_agnostic_bound_values_and_wiring():
    # direct evaluation of the displayed bound
    t_m = 1 + 48 * math.log(10**4)
    expected = 2 * math.sqrt((5 * t_m * math.log(10**4) + math.log(40)) / 10**4)
    assert agnostic_bound(5, 10**4, 0.05) == pytest.approx(expected)
    assert agnostic_bound(5, 10**4, 0.05) == pytest.approx(2.857203480716839)
    # at delta = 2/e the log term contributes exactly 1
    at_2e = agnostic_bound(5, 10**4, 2 / math.e)
    assert at_2e == pytest.approx(2 * math.sqrt((5 * t_m * math.log(10**4) + 1.0) / 10**4))


def test_agnostic_bound_decreases_in_m():
    a = agnostic_bound(5, 10**4, 0.05)
    b = agnostic_bound(5, 2 * 10**4, 0.05)
    assert b < a


def test_agnostic_bound_contracts():
    with pytest.raises(ContractError):
        agnostic_bound(5, 100, 0.05)  # m below 2 * sc_re * (1 + 48 ln m)
    with pytest.raises(ContractError):
        agnostic_bound(0, 10**4, 0.05)
    with pytest.raises(ContractError):
        agnostic_bound(5, 10**4, 1.5)


@pytest.mark.parametrize("m", [0, -3, 2.5])
def test_agnostic_bound_requires_a_positive_integer_m(m):
    # checked before ln(m) is taken, which would fail with a math domain error at m <= 0
    with pytest.raises(ContractError, match="integer m >= 1"):
        agnostic_bound(1, m, 0.05)


def test_agnostic_margin_exceeds_half_on_the_core():
    # rebuild the boost by hand to observe the terminal margin
    family, perturbations, sample = random_labeled_sample(8)
    predictor = learn_agnostic(family, sample, perturbations, LearnerConfig(seed=2))
    core = max_realizable_subsequence(family, sample, perturbations)
    voters = predictor.voters
    for j in core:
        correct = sum(
            1 for v in voters if robust_loss(v, sample[j], perturbations) == 0
        )
        assert Fraction(correct, len(voters)) > Fraction(1, 2)


def test_agnostic_rejects_N_sparsify():
    family, perturbations, sample = random_labeled_sample(3)
    with pytest.raises(ContractError, match="N_sparsify"):
        learn_agnostic(family, sample, perturbations, LearnerConfig(N_sparsify=3))


def test_agnostic_accepts_and_ignores_the_seed():
    family, perturbations, sample = random_labeled_sample(3)
    plain = learn_agnostic(family, sample, perturbations)
    seeded = learn_agnostic(family, sample, perturbations, LearnerConfig(seed=9))
    assert seeded.voters == plain.voters and seeded.provenance == plain.provenance
