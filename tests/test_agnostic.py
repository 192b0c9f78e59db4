from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from robustpac import agnostic
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
from robustpac.constructions import make_agnostic_lower_bound, make_proper_failure
from robustpac.dimensions import vc
from robustpac.learner import BoostResult, LearnerConfig, WeakLearnerFailure
from robustpac.oracles import rerm
from robustpac.prng import rng_stream
from robustpac.sampling import draw_sample

from conftest import random_labeled_sample, random_realizable_setup, reference_alpha_boost


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


def test_agnostic_refuses_a_vote_whose_margin_is_not_above_one_half(monkeypatch):
    # no shipped input ends boosting at margin 1/2 or below, so a stubbed boost does; the learner refuses it
    monkeypatch.setattr(agnostic, "alpha_boost", lambda *args, **kwargs: BoostResult((0,), Fraction(1, 2)))
    family = HypothesisFamily.from_rows([(-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 1, 1)])
    sample = Sample.from_pairs([(0, 1), (1, 1), (2, 1)])
    with pytest.raises(RuntimeError, match=r"^agnostic boosting ended with margin 1/2 <= 1/2 on the core$"):
        learn_agnostic(family, sample, PerturbationMap.identity(3), LearnerConfig(n_initial=1))


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


def _pinned_agnostic_runs():
    """(instance, sample) pairs of the agnostic pin, each sample on its own generator."""
    runs = []
    for d, alpha, m, count, stream in ((6, "1/4", 128, 40, 16), (4, "1/3", 64, 40, 17)):
        lower = make_agnostic_lower_bound(d, alpha)
        for trial in range(count):
            rng = rng_stream(stream, trial)
            dist = lower.distributions[int(rng.integers(len(lower.distributions)))]
            runs.append((lower, draw_sample(dist, m, rng)))
    wide = make_proper_failure(3)  # most of these reach the multi-voter boosting loop
    for trial in range(20):
        rng = rng_stream(18, trial)
        runs.append((wide, draw_sample(wide.distributions[int(rng.integers(len(wide.distributions)))], 32, rng)))
    loop = make_proper_failure(2)  # the agnostic_loop golden: --m 32 --dist 3 --seed 1
    runs.append((loop, draw_sample(loop.distributions[3], 32, rng_stream(1))))
    # no member of proper-failure(2) is robustly -1 on these balls, so the core is empty
    runs.append((loop, Sample.from_pairs([(0, -1), (3, -1), (0, -1)])))
    return runs


def test_agnostic_output_is_pinned():
    # sha256 over the core, the voters' label rows, the provenance and the
    # flags of 40 runs on agnostic-lower-bound(6, 1/4) at m = 128, 40 on
    # agnostic-lower-bound(4, 1/3) at m = 64, 20 on proper-failure(3) at
    # m = 32, the agnostic_loop golden's run and one sample whose core is
    # empty.  A change to the reduction that alters its output moves the digest.
    digest = hashlib.sha256()
    for inst, sample in _pinned_agnostic_runs():
        core = max_realizable_subsequence(inst.family, sample, inst.perturbations)
        vote = learn_agnostic(inst.family, sample, inst.perturbations)
        digest.update(repr((core, [v.labels for v in vote.voters], vote.provenance, vote.flags)).encode())
    assert digest.hexdigest() == "2aa05418c8bc747f572de8a3e48daab765c196ba2d299b1d1e4305a1c4343c06"


def reference_learn_agnostic(family, sample, perturbations, n_initial=None):
    """`learn_agnostic` from literal scans, as (voters' label rows, provenance, flags); nothing is kept.

    The core is the coverage set of the first member covering most examples,
    scanned example by example with `robust_loss`.  The candidates at n are
    RERM on every n-combination of the first positions of the core's
    examples, each member keeping the first combination that yields it:
    combinations come in lexicographic order, so that is its greatest count
    vector over the core's distinct examples.  Boosting is plain
    multiplicative weights over their robust mistakes on those positions for
    `agnostic_round_count` rounds, and n doubles from vc + 1 while no
    candidate is a weak learner.
    """
    coverages = [[j for j in range(len(sample)) if robust_loss(h, sample[j], perturbations) == 0] for h in family]
    core = max(coverages, key=len)  # max() keeps the first, i.e. lowest-index, maximizer
    if not core:
        return [(1,) * family.space_size], ((),), ("empty-realizable-core",)
    firsts = [j for j in core if sample[j] not in sample.examples[:j]]
    n = min(vc(family).value + 1 if n_initial is None else n_initial, len(firsts))
    while True:
        first_combination = {}
        for combo in combinations(firsts, n):
            member = rerm(family, Sample(tuple(sample[i] for i in combo)), perturbations).hypothesis_index
            first_combination.setdefault(member, combo)
        members = sorted(first_combination)
        wrong = np.array([[robust_loss(family[c], sample[j], perturbations) == 1 for j in firsts] for c in members])
        try:
            ids, margin = reference_alpha_boost(wrong, None, agnostic_round_count(len(firsts)))
            break
        except WeakLearnerFailure:
            if n == len(firsts):
                raise
            n = min(len(firsts), 2 * n)
    assert margin > Fraction(1, 2)
    return [family[members[i]].labels for i in ids], tuple(first_combination[members[i]] for i in ids), ()


SIGNS = st.sampled_from((-1, 1))


# four or five of its 6 base points, labeled +1, often reach the multi-voter boosting loop
PROPER_FAILURE_2 = make_proper_failure(2)


@st.composite
def agnostic_inputs(draw):
    """A repeating sample and an n_initial, on proper-failure(2) or on a free family.

    On proper-failure(2) the sample's distinct examples are a set of its
    base points labeled +1 and at most two labeled -1.  A free family has
    at most 8 members on at most 5 points, with free balls and examples.
    """
    if draw(st.booleans()):
        family, perturbations = PROPER_FAILURE_2.family, PROPER_FAILURE_2.perturbations
        base = st.integers(min_value=0, max_value=5)
        plus, minus = draw(st.sets(base, min_size=1, max_size=6)), draw(st.sets(base, max_size=2))
        distinct = [(x, 1) for x in sorted(plus)] + [(x, -1) for x in sorted(minus)]
    else:
        size = draw(st.integers(min_value=1, max_value=5))
        point = st.integers(min_value=0, max_value=size - 1)
        rows = draw(st.lists(st.tuples(*[SIGNS] * size), min_size=1, max_size=8, unique=True))
        balls = draw(st.lists(st.lists(point, min_size=1, max_size=size), min_size=size, max_size=size))
        family, perturbations = HypothesisFamily.from_rows(rows), PerturbationMap(tuple(map(tuple, balls)))
        distinct = draw(st.lists(st.tuples(point, SIGNS), min_size=1, max_size=6))
    pairs = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=10))
    return family, perturbations, Sample.from_pairs(pairs), draw(st.sampled_from((None, 1, 2)))


@settings(max_examples=150, deadline=None)
@given(agnostic_inputs())
@example(
    (PROPER_FAILURE_2.family, PROPER_FAILURE_2.perturbations, Sample.from_pairs([(2, 1), (1, 1), (5, 1), (2, 1), (0, 1)]), None)
)
def test_agnostic_matches_the_literal_reference(case):
    family, perturbations, sample, n_initial = case
    vote = learn_agnostic(family, sample, perturbations, LearnerConfig(n_initial=n_initial))
    got = ([v.labels for v in vote.voters], vote.provenance, vote.flags)
    assert got == reference_learn_agnostic(family, sample, perturbations, n_initial)
