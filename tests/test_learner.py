from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustpac.core import (
    ContractError,
    Hypothesis,
    HypothesisFamily,
    LabeledExample,
    PerturbationMap,
    Sample,
    empirical_robust_risk,
)
from robustpac.learner import (
    CANDIDATE_ENUMERATION_LIMIT,
    BoostingFailure,
    LearnerConfig,
    WeakLearnerFailure,
    alpha_boost,
    build_candidates,
    compression_bound,
    discretize,
    inflate,
    learn_realizable,
    learn_realizable_report,
    sparsify,
    weak_learn,
    _multiset_count,
)
from robustpac.oracles import rerm
from robustpac.constructions import make_proper_failure
from robustpac.sampling import sample_iid

from conftest import random_realizable_setup

SIGNS = st.sampled_from((-1, 1))


# --- inflation ---------------------------------------------------------------


def test_inflate_identity_dedupes_with_first_occurrence_labels():
    u = PerturbationMap.identity(3)
    sample = Sample.from_pairs([(1, 1), (0, -1), (1, -1)])
    inflated = inflate(sample, u)
    assert [(e.point, e.label, e.owner) for e in inflated] == [(0, -1, 1), (1, 1, 0)]


def test_inflate_overlap_takes_the_earlier_label():
    u = PerturbationMap(((0, 1), (1,), (1, 2)))
    sample = Sample.from_pairs([(0, 1), (2, -1)])
    inflated = inflate(sample, u)
    assert [(e.point, e.label, e.owner) for e in inflated] == [
        (0, 1, 0),
        (1, 1, 0),  # contested point goes to the min-index owner
        (2, -1, 1),
    ]


def test_inflate_disjoint_sets_counts_the_union():
    u = PerturbationMap(((0, 1), (1,), (2, 3), (3,)))
    sample = Sample.from_pairs([(0, 1), (2, -1), (0, 1)])
    inflated = inflate(sample, u)
    assert len(inflated) == len(u[0]) + len(u[2])


# --- candidates --------------------------------------------------------------


def test_candidates_full_subset_is_single_oracle_output():
    inst = make_proper_failure(1)
    sample = Sample(inst.distributions[0].support())
    cands = build_candidates(inst.family, sample, inst.perturbations, len(sample))
    assert len(cands) == 1
    expected = rerm(inst.family, sample, inst.perturbations)
    assert cands.family[0] == inst.family[expected.hypothesis_index]
    assert cands.provenance == (tuple(range(len(sample))),)


def test_singleton_family_gives_one_candidate():
    family = HypothesisFamily.from_rows([(1, -1, 1)])
    sample = Sample.from_pairs([(0, 1), (1, -1), (2, 1)])
    cands = build_candidates(family, sample, PerturbationMap.identity(3), 2)
    assert len(cands) == 1


@st.composite
def candidate_inputs(draw):
    """A tiny family, free perturbation sets, a sample repeating a few examples, and n."""
    size = draw(st.integers(min_value=1, max_value=4))
    point = st.integers(min_value=0, max_value=size - 1)
    rows = draw(st.lists(st.tuples(*[SIGNS] * size), min_size=1, max_size=6, unique=True))
    balls = draw(st.lists(st.lists(point, min_size=1, max_size=size), min_size=size, max_size=size))
    distinct = draw(st.lists(st.tuples(point, SIGNS), min_size=1, max_size=3))
    pairs = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=7))
    n = draw(st.integers(min_value=1, max_value=len(pairs)))
    family = HypothesisFamily.from_rows(rows)
    return family, PerturbationMap(tuple(map(tuple, balls))), Sample.from_pairs(pairs), n


@settings(max_examples=150, deadline=None)
@given(candidate_inputs())
def test_candidates_match_naive_subset_enumeration(inputs):
    # the literal scan: RERM on every index combination in lexicographic order,
    # keeping the first combination that yields each distinct labeling
    family, perturbations, sample, n = inputs
    members: list[tuple[int, ...]] = []
    provenance: list[tuple[int, ...]] = []
    for combo in combinations(range(len(sample)), n):
        sub = Sample(tuple(sample[i] for i in combo))
        labels = family[rerm(family, sub, perturbations).hypothesis_index].labels
        if labels not in members:
            members.append(labels)
            provenance.append(combo)
    cands = build_candidates(family, sample, perturbations, n)
    assert [h.labels for h in cands.family] == members
    assert cands.provenance == tuple(provenance)
    assert cands.subset_size == n


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5), st.data())
def test_multiset_count_matches_distinct_combinations(counts, data):
    items = [i for i, c in enumerate(counts) for _ in range(c)]
    n = data.draw(st.integers(min_value=0, max_value=len(items) + 1))
    assert _multiset_count(counts, n) == len(set(combinations(items, n)))


def test_candidate_enumeration_limit_fails_before_enumerating():
    # 30 distinct examples at n = 15 give C(30, 15) multisets
    family = HypothesisFamily.from_rows([(1,) * 30, (-1,) * 30])
    sample = Sample.from_pairs([(x, 1) for x in range(30)])
    assert math.comb(30, 15) > CANDIDATE_ENUMERATION_LIMIT
    with pytest.raises(ContractError, match=r"155117520 multisets .*CANDIDATE_ENUMERATION_LIMIT"):
        build_candidates(family, sample, PerturbationMap.identity(30), 15)


def test_candidate_count_never_exceeds_choose_m_n():
    for seed in range(5):
        family, perturbations, sample, _ = random_realizable_setup(seed, m=8)
        m = len(sample)
        n = min(3, m)
        cands = build_candidates(family, sample, perturbations, n)
        assert len(cands) <= math.comb(m, n)


# --- discretization ----------------------------------------------------------


def test_discretize_single_candidate_has_at_most_two_patterns():
    family = HypothesisFamily.from_rows([(1, -1, 1, -1)])
    u = PerturbationMap.identity(4)
    sample = Sample.from_pairs([(0, 1), (1, 1), (2, 1), (3, -1)])
    disc = discretize(inflate(sample, u), family)
    assert len(disc) <= 2
    assert set(disc.pattern_index) <= {(0,), (1,)}


def test_discretize_full_cube_keeps_every_point():
    # with all labelings as candidates, distinct points get distinct patterns
    family = HypothesisFamily.full_cube(3)
    u = PerturbationMap.identity(3)
    sample = Sample.from_pairs([(0, 1), (1, 1), (2, -1)])
    inflated = inflate(sample, u)
    disc = discretize(inflated, family)
    assert len(disc) == len(inflated)


def test_discretize_representatives_are_lexicographic_and_faithful():
    inst = make_proper_failure(2)
    sample = sample_iid(inst.distributions[0], 8, seed=9)
    cands = build_candidates(inst.family, sample, inst.perturbations, 2)
    inflated = inflate(sample, inst.perturbations)
    disc = discretize(inflated, cands)
    assert len(disc) <= inst.perturbations.max_set_size * len(sample)
    matrix = cands.family.matrix
    reps = {
        tuple(int(b) for b in (matrix[:, e.point] != e.label)): (e.point, e.label)
        for e in disc.representatives
    }
    for e in inflated:
        pattern = tuple(int(b) for b in (matrix[:, e.point] != e.label))
        assert pattern in disc.pattern_index
        # representative is the lexicographically smallest element of its class
        assert reps[pattern] <= (e.point, e.label)


# --- weak learning and boosting ----------------------------------------------


def _identity_wrong(family: HypothesisFamily, pairs: list[tuple[int, int]]) -> np.ndarray:
    return family.robust_table(PerturbationMap.identity(family.space_size)).loss(
        Sample.from_pairs(pairs)
    )


def test_weak_learn_picks_the_perfect_candidate():
    family = HypothesisFamily.from_rows([(1, 1, -1), (1, 1, 1)])
    wrong = _identity_wrong(family, [(0, 1), (2, -1)])
    index, correct = weak_learn(wrong, np.array([0.5, 0.5]))
    assert index == 0
    assert correct.tolist() == [True, True]


def test_weak_learn_accepts_quarter_error_and_rejects_third():
    rows = [
        (-1, 1, 1, 1),
        (1, -1, 1, 1),
        (1, 1, -1, 1),
        (1, 1, 1, -1),
    ]
    points = [(x, 1) for x in range(4)]
    uniform = np.full(4, 0.25)
    index, correct = weak_learn(_identity_wrong(HypothesisFamily.from_rows(rows), points), uniform)
    assert index == 0  # everyone errs on exactly a quarter; lowest index wins
    assert correct.tolist() == [False, True, True, True]

    bad = HypothesisFamily.from_rows([(-1, -1, 1, 1), (1, -1, -1, 1)])
    with pytest.raises(WeakLearnerFailure):
        weak_learn(_identity_wrong(bad, points), uniform)


def _eye_weak(n_points: int):
    wrong = np.eye(n_points, dtype=bool)  # candidate i errs exactly on point i

    def weak(dist: np.ndarray):
        index = int(np.argmin(wrong @ dist))
        return index, ~wrong[index]

    return weak


def test_alpha_boost_stops_immediately_on_a_perfect_voter():
    def weak(dist):
        return "perfect", np.ones(4, dtype=bool)

    result = alpha_boost(range(4), weak, margin_target=Fraction(5, 9))
    assert result.rounds == 1
    assert result.min_margin == 1


def test_alpha_boost_margin_lower_bound():
    # min margin >= 2/3 - (2/3)a - ln(n)/(2aT) for the multiplicative-weights run
    n_points, rounds, alpha = 10, 300, 0.125
    result = alpha_boost(
        range(n_points), _eye_weak(n_points), alpha=alpha, margin_target=None, T_max=rounds
    )
    bound = 2 / 3 - (2 / 3) * alpha - math.log(n_points) / (2 * alpha * rounds)
    assert result.rounds == rounds
    assert float(result.min_margin) >= bound


def test_alpha_boost_beats_half_at_the_prescribed_round_count():
    # the one-mistake-each pool is a valid weak learner (error <= 1/n < 1/3)
    # only for n >= 4, so the guarantee is asserted there
    for n_points in (4, 5, 17):
        rounds = 1 + math.ceil(48 * math.log(n_points))
        result = alpha_boost(
            range(n_points), _eye_weak(n_points), alpha=0.125, margin_target=None, T_max=rounds
        )
        assert result.min_margin > Fraction(1, 2)


def test_alpha_boost_failure_carries_the_margin():
    def weak(dist):
        # alternately right on one half, never building margin past 1/2
        return "stuck", np.array([True, False])

    with pytest.raises(BoostingFailure) as err:
        alpha_boost(range(2), weak, margin_target=Fraction(5, 9), T_max=7)
    assert err.value.achieved_margin == 0
    assert err.value.rounds == 7


# --- sparsification ----------------------------------------------------------


def _disc_for(points: list[tuple[int, int]], family: HypothesisFamily):
    inflated = [LabeledExample(p, y) for p, y in points]
    sample = Sample(tuple(inflated))
    return discretize(inflate(sample, PerturbationMap.identity(family.space_size)), family)


def test_sparsify_single_voter_is_trivial():
    family = HypothesisFamily.from_rows([(1, 1)])
    disc = _disc_for([(0, 1), (1, 1)], family)
    assert sparsify([family[0]], disc, N=5, seed=1) == (0,)


def test_sparsify_identical_correct_voters_any_draw_works():
    h = Hypothesis((1, 1, 1))
    family = HypothesisFamily.from_rows([(1, 1, 1), (-1, 1, 1)])
    disc = _disc_for([(0, 1), (1, 1), (2, 1)], family)
    chosen = sparsify([h, h, h], disc, N=4, seed=3)
    assert len(chosen) == 4
    assert set(chosen) <= {0, 1, 2}


def test_sparsify_forty_voters_margin_five_ninths():
    # voter t errs only on point t mod 5: per-point margin 1 - 8/40 = 4/5
    n_points = 5
    rows = []
    for t in range(40):
        row = [1] * n_points
        row[t % n_points] = -1
        rows.append(tuple(row))
    voters = [Hypothesis(r) for r in rows]
    family = HypothesisFamily.full_cube(n_points)
    disc = _disc_for([(x, 1) for x in range(n_points)], family)
    chosen = sparsify(voters, disc, N=8, seed=11, attempts=100)
    assert len(chosen) in (8, 40)
    votes = np.zeros(n_points, dtype=int)
    for j in chosen:
        votes += np.asarray(rows[j]) == 1
    assert np.all(2 * votes > len(chosen))


def test_sparsify_falls_back_to_the_full_list():
    # three voters, margins 2/3; single-voter draws always fail, so N=1 falls back
    rows = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    voters = [Hypothesis(r) for r in rows]
    family = HypothesisFamily.full_cube(3)
    disc = _disc_for([(x, 1) for x in range(3)], family)
    assert sparsify(voters, disc, N=1, seed=0, attempts=8) == (0, 1, 2)


def test_sparsify_rejects_sub_majority_ensembles():
    rows = [(-1, 1), (1, -1)]
    voters = [Hypothesis(r) for r in rows]
    family = HypothesisFamily.full_cube(2)
    disc = _disc_for([(0, 1), (1, 1)], family)
    with pytest.raises(ContractError):
        sparsify(voters, disc, N=3, seed=0)


# --- the full pipeline -------------------------------------------------------


def test_small_sample_returns_a_single_oracle_voter():
    inst = make_proper_failure(1)
    sample = Sample(inst.distributions[0].support()[:2])
    config = LearnerConfig(n_initial=4)
    report = learn_realizable_report(inst.family, sample, inst.perturbations, config)
    assert report.sparsified_to == 1
    assert report.predictor.provenance == ((0, 1),)
    assert empirical_robust_risk(report.predictor, sample, inst.perturbations) == 0


def test_learner_achieves_zero_risk_on_random_realizable_instances():
    for seed in range(12):
        family, perturbations, sample, _ = random_realizable_setup(seed)
        predictor = learn_realizable(family, sample, perturbations)
        assert empirical_robust_risk(predictor, sample, perturbations) == 0


def test_learner_is_deterministic_given_seed():
    family, perturbations, sample, _ = random_realizable_setup(3)
    config = LearnerConfig(seed=17)
    a = learn_realizable(family, sample, perturbations, config)
    b = learn_realizable(family, sample, perturbations, config)
    assert a.voters == b.voters
    assert a.provenance == b.provenance


def test_learner_grows_n_until_weak_learning_succeeds():
    # each of the first three members errs on exactly one of the three points,
    # so subset sizes 1 and 2 only yield one-mistake candidates (weighted error
    # exactly 1/3 under uniform weights); only n = 3 reaches the perfect member
    family = HypothesisFamily.from_rows([(-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 1, 1)])
    sample = Sample.from_pairs([(0, 1), (1, 1), (2, 1)])
    report = learn_realizable_report(
        family, sample, PerturbationMap.identity(3), LearnerConfig(n_initial=1)
    )
    assert report.n_used == 3
    assert report.min_margin == 1
    assert empirical_robust_risk(report.predictor, sample, PerturbationMap.identity(3)) == 0


def test_boosting_failure_propagates_from_the_pipeline():
    inst = make_proper_failure(2)
    sample = sample_iid(inst.distributions[0], 64, seed=7)
    with pytest.raises(BoostingFailure) as err:
        learn_realizable_report(
            inst.family, sample, inst.perturbations, LearnerConfig(T_max=1)
        )
    assert err.value.rounds == 1


def test_learner_rejects_unrealizable_samples_naming_the_example():
    family = HypothesisFamily.from_rows([(1, 1), (-1, 1)])
    sample = Sample.from_pairs([(1, 1), (0, 1), (0, -1)])
    with pytest.raises(ContractError, match="example 2"):
        learn_realizable(family, sample, PerturbationMap.identity(2))


def test_pipeline_margin_implies_zero_risk_and_small_compression():
    inst = make_proper_failure(2)
    sample = sample_iid(inst.distributions[7], 32, seed=21)
    report = learn_realizable_report(inst.family, sample, inst.perturbations)
    assert report.min_margin > Fraction(1, 2)
    assert empirical_robust_risk(report.predictor, sample, inst.perturbations) == 0
    assert report.compression_size <= report.n_used * report.sparsified_to
    assert report.pre_sparsification_size == report.n_used * report.rounds


def test_margins_transfer_from_representatives_to_the_whole_inflation():
    inst = make_proper_failure(2)
    sample = sample_iid(inst.distributions[2], 24, seed=33)
    cands = build_candidates(inst.family, sample, inst.perturbations, 2)
    inflated = inflate(sample, inst.perturbations)
    disc = discretize(inflated, cands)
    boost = alpha_boost(disc.representatives, functools.partial(weak_learn, disc.wrong))
    matrix = cands.family.matrix
    voters = list(boost.voter_ids)
    rep_margin = {}
    for pattern, idx in disc.pattern_index.items():
        rep_margin[pattern] = sum(1 - pattern[v] for v in voters)
    for e in inflated:
        pattern = tuple(int(b) for b in (matrix[:, e.point] != e.label))
        margin = sum(int(matrix[v, e.point] == e.label) for v in voters)
        assert margin == rep_margin[pattern]


# --- the compression bound ---------------------------------------------------


def test_compression_bound_frozen_values():
    assert compression_bound(1, 3, 1 / math.e) == pytest.approx(1.049306144334055)
    assert compression_bound(3, 50, 0.05) == pytest.approx(0.3134425806348602)


def test_compression_bound_limits_and_contracts():
    # delta -> 1 leaves only the k ln(m) / (m - k) term
    assert compression_bound(2, 20, 1 - 1e-12) == pytest.approx(
        2 * math.log(20) / 18, abs=1e-9
    )
    # k = m - 1 makes the bound vacuous
    assert compression_bound(9, 10, 0.5) > 1
    with pytest.raises(ContractError):
        compression_bound(10, 10, 0.5)
    with pytest.raises(ContractError):
        compression_bound(0, 10, 0.5)
    with pytest.raises(ContractError):
        compression_bound(1, 10, 0.0)
