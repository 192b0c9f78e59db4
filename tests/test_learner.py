from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from dataclasses import fields
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from robustpac.core import (
    ContractError,
    Hypothesis,
    HypothesisFamily,
    LabeledExample,
    MajorityVotePredictor,
    PerturbationMap,
    Sample,
    StructuralError,
    empirical_robust_risk,
)
from robustpac.learner import (
    ALPHA,
    CANDIDATE_ENUMERATION_LIMIT,
    MARGIN_TARGET,
    SPARSIFY_ATTEMPTS,
    DiscretizedSet,
    BoostingFailure,
    BoostResult,
    LearnerConfig,
    RealizableRunReport,
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
    _fits_inflation,
    _multiset_count,
)
from robustpac import learner
from robustpac.oracles import rerm
from robustpac.agnostic import learn_agnostic
from robustpac.constructions import make_agnostic_lower_bound, make_proper_failure
from robustpac.experiments import _random_threshold_distribution, make_threshold_window_instance
from robustpac.prng import rng_stream
from robustpac.sampling import draw_sample, sample_iid

from conftest import generator_state, random_labeled_sample, random_realizable_setup, reference_alpha_boost

SIGNS = st.sampled_from((-1, 1))


# --- inflation ---------------------------------------------------------------


def test_inflate_identity_dedupes_with_first_occurrence_labels():
    u = PerturbationMap.identity(3)
    sample = Sample.from_pairs([(1, 1), (0, -1), (1, -1)])
    points, labels = inflate(sample, u)
    assert points.dtype == np.intp and labels.dtype == np.int8
    # point 1 is owned by example 0 (+1), not by the later example 2 (-1)
    assert points.tolist() == [0, 1]
    assert labels.tolist() == [-1, 1]


def test_inflate_overlap_takes_the_earlier_label():
    u = PerturbationMap(((0, 1), (1,), (1, 2)))
    sample = Sample.from_pairs([(0, 1), (2, -1)])
    points, labels = inflate(sample, u)
    assert points.tolist() == [0, 1, 2]
    assert labels.tolist() == [1, 1, -1]  # contested point 1 goes to the min-index owner


def test_inflate_disjoint_sets_counts_the_union():
    u = PerturbationMap(((0, 1), (1,), (2, 3), (3,)))
    sample = Sample.from_pairs([(0, 1), (2, -1), (0, 1)])
    points, labels = inflate(sample, u)
    assert len(points) == len(labels) == len(u[0]) + len(u[2])


def test_inflate_rejects_points_outside_the_space():
    sample = Sample.from_pairs([(1, 1), (5, -1), (7, 1)])
    with pytest.raises(StructuralError, match=r"^point 5 outside instance space of size 3$"):
        inflate(sample, PerturbationMap.identity(3))


# --- candidates --------------------------------------------------------------


def test_candidates_full_subset_is_single_oracle_output():
    inst = make_proper_failure(1)
    sample = Sample(tuple(e for e, _ in inst.distributions[0].atoms))
    cands = build_candidates(inst.family, sample, inst.perturbations, len(sample))
    assert len(cands) == 1
    expected = rerm(inst.family, sample, inst.perturbations)
    assert cands.members == (expected.hypothesis_index,)
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
@given(candidate_inputs(), st.sampled_from((1, 2, 3, None)))
# the later index yields the lower member, so member order is not provenance order
@example(
    (HypothesisFamily.from_rows([(1,), (-1,)]), PerturbationMap.identity(1), Sample.from_pairs([(0, -1), (0, 1)]), 1),
    None,
)
def test_candidates_match_naive_subset_enumeration(inputs, block_rows):
    # the literal scan: RERM on every index combination, keeping per member
    # the greatest count vector over the distinct examples among the
    # combinations that yield it; its provenance is the first k positions of
    # each example, sorted, and the candidates come in ascending member order
    family, perturbations, sample, n = inputs
    runs = sample.distinct.positions
    slot = {i: s for s, run in enumerate(runs) for i in run}
    greatest: dict[int, tuple[int, ...]] = {}
    for combo in combinations(range(len(sample)), n):
        sub = Sample(tuple(sample[i] for i in combo))
        member = rerm(family, sub, perturbations).hypothesis_index
        vector = tuple(sum(slot[i] == s for i in combo) for s in range(len(runs)))
        greatest[member] = max(greatest.get(member, vector), vector)
    members = sorted(greatest)
    provenance = [tuple(sorted(i for run, k in zip(runs, greatest[c]) for i in run[:k])) for c in members]
    # blocks of 1-3 count vectors put block boundaries inside the enumeration
    with pytest.MonkeyPatch.context() as patch:
        if block_rows is not None:
            patch.setattr(learner, "_SCORE_BLOCK", block_rows * len(family))
        cands = build_candidates(family, sample, perturbations, n)
    assert cands.members == tuple(members)
    assert cands.provenance == tuple(provenance)
    assert cands.subset_size == n
    for member, indices in zip(cands.members, cands.provenance):
        assert rerm(family, Sample(tuple(sample[i] for i in indices)), perturbations).hypothesis_index == member


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


def _patterns(wrong: np.ndarray) -> list[tuple[int, ...]]:
    """The error pattern of each column, as a 0/1 tuple over candidates."""
    return [tuple(column) for column in wrong.T.astype(int).tolist()]


def test_discretize_single_candidate_has_at_most_two_patterns():
    family = HypothesisFamily.from_rows([(1, -1, 1, -1)])
    u = PerturbationMap.identity(4)
    sample = Sample.from_pairs([(0, 1), (1, 1), (2, 1), (3, -1)])
    disc = discretize(inflate(sample, u), family.matrix)
    assert len(disc) <= 2
    assert disc.wrong.shape == (1, len(disc))
    assert len(set(_patterns(disc.wrong))) == len(disc)
    assert set(_patterns(disc.wrong)) <= {(0,), (1,)}


def test_discretize_full_cube_keeps_every_point():
    # with all labelings as candidates, distinct points get distinct patterns
    family = HypothesisFamily.full_cube(3)
    u = PerturbationMap.identity(3)
    sample = Sample.from_pairs([(0, 1), (1, 1), (2, -1)])
    points, labels = inflate(sample, u)
    disc = discretize((points, labels), family.matrix)
    assert len(disc) == len(points)


def test_discretize_representatives_are_lexicographic_and_faithful():
    inst = make_proper_failure(2)
    sample = sample_iid(inst.distributions[0], 8, seed=9)
    cands = build_candidates(inst.family, sample, inst.perturbations, 2)
    points, labels = inflate(sample, inst.perturbations)
    matrix = inst.family.matrix[list(cands.members)]
    disc = discretize((points, labels), matrix)
    assert len(disc) <= max(map(len, inst.perturbations.sets)) * len(sample)
    assert np.array_equal(disc.wrong, matrix[:, disc.points] != disc.labels)
    reps = dict(zip(_patterns(disc.wrong), zip(disc.points.tolist(), disc.labels.tolist())))
    assert len(reps) == len(disc)
    for z, y in zip(points.tolist(), labels.tolist()):
        pattern = tuple(int(b) for b in (matrix[:, z] != y))
        assert pattern in reps
        # representative is the lexicographically smallest element of its class
        assert reps[pattern] <= (z, y)


def test_discretize_keeps_each_patterns_first_column_past_64_candidates():
    # 80 candidate rows make masks wider than one 64-bit word; the few patterns repeat across 300 columns
    rng = rng_stream(35, 1)
    patterns = rng.choice(np.array([-1, 1]), size=(80, 12))
    patterns[:, 1] = patterns[:, 0]
    patterns[70, 1] *= -1  # patterns 0 and 1 differ past the first 64 candidates only
    rows = patterns[:, rng.integers(0, 12, size=300)]
    points, labels = np.arange(300), np.ones(300, dtype=np.int8)
    disc = discretize((points, labels), rows)
    keep = np.sort(np.unique(rows != 1, axis=1, return_index=True)[1])
    assert disc.points.tolist() == keep.tolist()
    assert np.array_equal(disc.wrong, (rows != 1)[:, keep])


# --- weak learning and boosting ----------------------------------------------


def _identity_wrong(family: HypothesisFamily, pairs: list[tuple[int, int]]) -> np.ndarray:
    points = np.array([point for point, _ in pairs], dtype=np.intp)
    labels = np.array([label for _, label in pairs], dtype=np.int8)
    return family.robust_table(PerturbationMap.identity(family.space_size)).loss_at(points, labels)


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


def test_alpha_boost_stops_immediately_on_a_perfect_voter():
    # one voter in both modes: a fixed round count does not repeat it
    wrong = np.array([[True, False, False, False], [False] * 4, [False] * 4])
    for margin_target in (Fraction(5, 9), Fraction(1), None):
        for T_max in (1, 7, None):
            result = alpha_boost(wrong, margin_target=margin_target, T_max=T_max)
            assert result.voter_ids == (1,), (margin_target, T_max)  # the lowest-index perfect row
            assert result.rounds == 1
            assert result.min_margin == 1


def test_alpha_boost_margin_lower_bound():
    # min margin >= 2/3 - (2/3)a - ln(n)/(2aT) for the multiplicative-weights run
    n_points, rounds, alpha = 10, 300, ALPHA
    assert alpha == 0.125
    wrong = np.eye(n_points, dtype=bool)  # candidate i errs exactly on point i
    result = alpha_boost(wrong, margin_target=None, T_max=rounds)
    bound = 2 / 3 - (2 / 3) * alpha - math.log(n_points) / (2 * alpha * rounds)
    assert result.rounds == rounds
    assert float(result.min_margin) >= bound


def test_alpha_boost_beats_half_at_the_prescribed_round_count():
    # the one-mistake-each pool is a valid weak learner (error <= 1/n < 1/3)
    # only for n >= 4, so the guarantee is asserted there
    for n_points in (4, 5, 17):
        rounds = 1 + math.ceil(48 * math.log(n_points))
        result = alpha_boost(np.eye(n_points, dtype=bool), margin_target=None, T_max=rounds)
        assert result.min_margin > Fraction(1, 2)


def test_alpha_boost_failure_carries_the_margin():
    # round 1 takes row 0, round 2 the lighter row 1: every point has one or
    # two right votes of two, short of 5/9
    with pytest.raises(BoostingFailure) as err:
        alpha_boost(np.eye(4, dtype=bool), margin_target=Fraction(5, 9), T_max=2)
    assert err.value.achieved_margin == Fraction(1, 2)
    assert err.value.rounds == 2


def test_alpha_boost_rejects_an_empty_point_set_and_a_zero_round_cap():
    with pytest.raises(ContractError, match="nonempty point set"):
        alpha_boost(np.zeros((2, 0), dtype=bool))
    with pytest.raises(ContractError, match="T_max must be >= 1"):
        alpha_boost(np.eye(4, dtype=bool), T_max=0)


def test_weak_learning_and_boosting_reject_an_empty_candidate_set():
    wrong = np.zeros((0, 3), dtype=bool)
    with pytest.raises(ContractError, match="^weak learning requires a nonempty candidate set$"):
        weak_learn(wrong, np.full(3, 1 / 3))
    with pytest.raises(ContractError, match="^weak learning requires a nonempty candidate set$"):
        alpha_boost(wrong)


def _boost_outcome(run):
    try:
        return run()
    except (BoostingFailure, WeakLearnerFailure) as exc:
        return type(exc), str(exc)


def test_alpha_boost_matches_the_reference_loop():
    rng = np.random.default_rng(20260)
    kinds = set()
    for case in range(240):
        n_candidates, n_points = int(rng.integers(1, 7)), int(rng.integers(1, 13))
        wrong = rng.random((n_candidates, n_points)) < rng.choice([0.1, 0.25, 0.5])
        if case % 2:
            wrong[rng.integers(n_candidates)] = False  # plant an all-correct row
        perfect = bool((~wrong.any(axis=1)).any())
        for target in (MARGIN_TARGET, Fraction(1), Fraction(3, 2), None):
            for T_max in (1, 2, 7, None):
                got = _boost_outcome(lambda: alpha_boost(wrong, margin_target=target, T_max=T_max))
                want = _boost_outcome(lambda: reference_alpha_boost(wrong, target, T_max))
                if isinstance(got, BoostResult):
                    got = got.voter_ids, got.min_margin
                assert got == want, (case, target, T_max)
                kinds.add((perfect, want[0] if isinstance(want[0], type) else BoostResult))
    # every outcome occurs; a perfect row can only fail a target above 1
    assert kinds == {
        (True, BoostResult),
        (True, BoostingFailure),
        (False, BoostResult),
        (False, BoostingFailure),
        (False, WeakLearnerFailure),
    }


# --- sparsification ----------------------------------------------------------


def _disc_for(points: list[tuple[int, int]], family: HypothesisFamily) -> DiscretizedSet:
    sample = Sample.from_pairs(points)
    return discretize(inflate(sample, PerturbationMap.identity(family.space_size)), family.matrix)


def test_sparsify_single_voter_is_trivial():
    family = HypothesisFamily.from_rows([(1, 1)])
    disc = _disc_for([(0, 1), (1, 1)], family)
    assert sparsify((0,), disc.wrong, N=5, rng=rng_stream(1)) == (0,)


def test_sparsify_identical_correct_voters_any_draw_works():
    family = HypothesisFamily.from_rows([(1, 1, 1), (-1, 1, 1)])
    disc = _disc_for([(0, 1), (1, 1), (2, 1)], family)
    # T = 3 <= N = 4: the full list, and no draw
    rng, fresh = rng_stream(3), rng_stream(3)
    assert sparsify((0, 0, 0), disc.wrong, N=4, rng=rng) == (0, 1, 2)
    assert generator_state(rng) == generator_state(fresh)
    # N = 2 < T: every draw holds a majority, so the first one is returned
    assert sparsify((0, 0, 0), disc.wrong, N=2, rng=rng) == tuple(fresh.integers(0, 3, size=2).tolist())
    assert generator_state(rng) == generator_state(fresh)


def _pair_errors(q: int) -> np.ndarray:
    """The (q voters, C(q, 2) pairs) mistake matrix in which voter i errs exactly on the pairs holding i."""
    return np.array([[i in pair for pair in combinations(range(q), 2)] for i in range(q)])


def test_sparsify_draws_and_falls_back_on_pair_errors():
    # Any two voters' error sets meet, and the full list errs twice on every
    # pair, so it holds a strict majority there once T >= 5.  At T = 5,
    # N = 3 no draw does: two copies of one voter, or two distinct voters,
    # err together on a pair.  All SPARSIFY_ATTEMPTS draws are made.
    rng, fresh = rng_stream(5), rng_stream(5)
    assert sparsify(range(5), _pair_errors(5), N=3, rng=rng) == (0, 1, 2, 3, 4)
    for _ in range(SPARSIFY_ATTEMPTS):
        fresh.integers(0, 5, size=3)
    assert generator_state(rng) == generator_state(fresh)
    # At T = 7, N = 5 a pair is safe when its voters are drawn at most
    # twice together, which among 5 draws holds only for 5 distinct voters:
    # the first such draw is returned.
    rng, fresh = rng_stream(7), rng_stream(7)
    chosen = sparsify(range(7), _pair_errors(7), N=5, rng=rng)
    assert len(set(chosen)) == 5 and set(chosen) <= set(range(7))
    draw = fresh.integers(0, 7, size=5)
    while len(set(draw.tolist())) < 5:
        draw = fresh.integers(0, 7, size=5)
    assert chosen == tuple(draw.tolist())
    assert generator_state(rng) == generator_state(fresh)


def test_sparsify_forty_voters_margin_five_ninths():
    # voter t errs only on point t mod 5: per-point margin 1 - 8/40 = 4/5
    n_points = 5
    rows = []
    for x in range(n_points):
        row = [1] * n_points
        row[x] = -1
        rows.append(tuple(row))
    family = HypothesisFamily.from_rows(rows)
    voter_ids = [t % n_points for t in range(40)]
    disc = _disc_for([(x, 1) for x in range(n_points)], family)
    assert len(disc) == n_points
    chosen = sparsify(voter_ids, disc.wrong, N=8, rng=rng_stream(11))
    assert len(chosen) in (8, 40)
    votes = np.zeros(n_points, dtype=int)
    for j in chosen:
        votes += np.asarray(rows[voter_ids[j]]) == 1
    assert np.all(2 * votes > len(chosen))


def test_sparsify_falls_back_to_the_full_list():
    # three voters, margins 2/3; single-voter draws always fail, so N=1 falls
    # back after SPARSIFY_ATTEMPTS draws
    family = HypothesisFamily.from_rows([(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
    disc = _disc_for([(x, 1) for x in range(3)], family)
    rng = rng_stream(0)
    assert sparsify((0, 1, 2), disc.wrong, N=1, rng=rng) == (0, 1, 2)
    fresh = rng_stream(0)
    fresh.integers(0, 3, size=(SPARSIFY_ATTEMPTS, 1))
    assert rng.random() == fresh.random()  # exactly SPARSIFY_ATTEMPTS draws were made


def test_sparsify_rejects_a_draw_size_below_one():
    family = HypothesisFamily.from_rows([(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
    disc = _disc_for([(x, 1) for x in range(3)], family)
    for voter_ids in ((0, 1, 2), (0,)):
        for N in (0, -1):
            with pytest.raises(ContractError, match=f"^N must be >= 1, got {N}$"):
                sparsify(voter_ids, disc.wrong, N, rng=rng_stream(0))


def test_the_learner_reaches_the_sparsify_fallback():
    # three boosting rounds over pf(2) candidates, no one of them perfect on
    # the sample: every one-voter draw fails, so all SPARSIFY_ATTEMPTS draws
    # are made and the full voter list is kept
    inst = make_proper_failure(2)
    sample = sample_iid(inst.distributions[7], 32, seed=21)
    rng = rng_stream(17)
    report = learn_realizable_report(
        inst.family, sample, inst.perturbations, LearnerConfig(N_sparsify=1), rng=rng
    )
    assert report.rounds == report.sparsified_to == 3
    assert empirical_robust_risk(report.predictor, sample, inst.perturbations) == 0
    fresh = rng_stream(17)
    fresh.integers(0, 3, size=(SPARSIFY_ATTEMPTS, 1))
    assert rng.random() == fresh.random()


def test_sparsify_rejects_sub_majority_ensembles():
    family = HypothesisFamily.from_rows([(-1, 1), (1, -1)])
    disc = _disc_for([(0, 1), (1, 1)], family)
    with pytest.raises(ContractError):
        sparsify((0, 1), disc.wrong, N=3, rng=rng_stream(0))


# --- differential tests against the per-example loops ------------------------
#
# The references below are the dict and tuple versions of inflate, discretize
# and sparsify that the array forms replaced, kept as naive specifications.


def _inflate_reference(sample: Sample, perturbations: PerturbationMap):
    """(point, label, owner) per point of the union, by a min-index owner dict."""
    owner_of: dict[int, tuple[int, int, int]] = {}
    for i, example in enumerate(sample):
        for z in perturbations[example.point]:
            if z not in owner_of:
                owner_of[z] = (z, example.label, i)
    return [owner_of[z] for z in sorted(owner_of)]


def _discretize_reference(inflated, family: HypothesisFamily):
    """First (point, label) per distinct pattern, and the pattern -> column dict."""
    matrix = family.matrix
    pattern_index: dict[tuple[int, ...], int] = {}
    reps: list[tuple[int, int]] = []
    for point, label, _ in sorted(inflated):
        pattern = tuple(int(matrix[c, point] != label) for c in range(len(family)))
        if pattern not in pattern_index:
            pattern_index[pattern] = len(reps)
            reps.append((point, label))
    return reps, pattern_index


def _sparsify_reference(voters, reps, N, rng):
    """Per-voter correctness recomputed from labels, then the same draws from `rng`."""
    T = len(voters)
    pts = np.asarray([z for z, _ in reps], dtype=np.intp)
    labs = np.asarray([y for _, y in reps], dtype=np.int8)
    correct = np.array([v.label_row[pts] == labs for v in voters])
    totals = correct.sum(axis=0)
    if not np.all(2 * totals > T):
        raise ContractError("no strict majority")
    if T <= N:
        return tuple(range(T))
    for _ in range(SPARSIFY_ATTEMPTS):
        draw = rng.integers(0, T, size=N)
        votes = correct[draw].sum(axis=0)
        if np.all(2 * votes > N):
            return tuple(int(i) for i in draw)
    return tuple(range(T))


@st.composite
def pipeline_inputs(draw):
    """A family, free perturbation sets, a sample, and the index of a consistent row.

    Some samples leave the space; they come with family None.  Otherwise the
    family holds a row that agrees with the min-index inflation labels, so
    voter lists that repeat it often hold a strict majority.
    """
    size = draw(st.integers(min_value=1, max_value=6))
    point = st.integers(min_value=0, max_value=size - 1)
    balls = draw(st.lists(st.lists(point, min_size=1, max_size=size), min_size=size, max_size=size))
    perturbations = PerturbationMap(tuple(map(tuple, balls)))
    pairs = draw(st.lists(st.tuples(point, SIGNS), min_size=1, max_size=8))
    if draw(st.integers(min_value=0, max_value=7)) == 7:
        pairs.insert(draw(st.integers(0, len(pairs))), (size + draw(st.integers(0, 2)), 1))
    sample = Sample.from_pairs(pairs)
    if any(p >= size for p, _ in pairs):
        return None, perturbations, sample, None
    rows = draw(st.lists(st.tuples(*[SIGNS] * size), max_size=6, unique=True))
    target = list(draw(st.tuples(*[SIGNS] * size)))
    for z, y, _ in _inflate_reference(sample, perturbations):
        target[z] = y
    if tuple(target) not in rows:
        rows.insert(draw(st.integers(0, len(rows))), tuple(target))
    return HypothesisFamily.from_rows(rows), perturbations, sample, rows.index(tuple(target))


@settings(max_examples=200, deadline=None)
@given(pipeline_inputs())
def test_inflate_matches_the_owner_dict_loop(inputs):
    _, perturbations, sample, _ = inputs
    try:
        expected = _inflate_reference(sample, perturbations)
    except StructuralError as exc:
        with pytest.raises(StructuralError) as err:
            inflate(sample, perturbations)
        assert str(err.value) == str(exc)
        return
    points, labels = inflate(sample, perturbations)
    assert points.dtype == np.intp and labels.dtype == np.int8
    assert points.tolist() == [z for z, _, _ in expected]
    assert labels.tolist() == [y for _, y, _ in expected]


@settings(max_examples=200, deadline=None)
@given(pipeline_inputs())
def test_discretize_matches_the_pattern_dict_loop(inputs):
    family, perturbations, sample, _ = inputs
    assume(family is not None)
    inflated = _inflate_reference(sample, perturbations)
    reps, pattern_index = _discretize_reference(inflated, family)
    disc = discretize(inflate(sample, perturbations), family.matrix)
    assert disc.points.tolist() == [z for z, _ in reps]
    assert disc.labels.tolist() == [y for _, y in reps]
    assert disc.points.dtype == np.intp and disc.labels.dtype == np.int8
    assert disc.wrong.shape == (len(family), len(reps))
    assert not disc.wrong.flags.writeable
    for pattern, column in pattern_index.items():
        assert tuple(disc.wrong[:, column].astype(int).tolist()) == pattern


@settings(max_examples=300, deadline=None)
@given(pipeline_inputs(), st.data())
def test_sparsify_matches_the_per_voter_loop(inputs, data):
    family, perturbations, sample, target = inputs
    assume(family is not None)
    disc = discretize(inflate(sample, perturbations), family.matrix)
    reps, _ = _discretize_reference(_inflate_reference(sample, perturbations), family)
    ids = st.integers(min_value=0, max_value=len(family) - 1)
    voter_ids = data.draw(st.lists(st.one_of(ids, st.just(target)), min_size=1, max_size=12))
    # up to T + 1, so most lists of two or more voters are drawn from
    N = data.draw(st.integers(min_value=1, max_value=len(voter_ids) + 1))
    seed = data.draw(st.integers(min_value=0, max_value=3))
    voters = [family[v] for v in voter_ids]
    ours, theirs = rng_stream(seed), rng_stream(seed)
    try:
        expected = _sparsify_reference(voters, reps, N, theirs)
    except ContractError:
        with pytest.raises(ContractError, match="strict majority"):
            sparsify(voter_ids, disc.wrong, N, ours)
        return
    assert sparsify(voter_ids, disc.wrong, N, ours) == expected
    assert ours.random() == theirs.random()  # both made the same draws


# --- the full pipeline -------------------------------------------------------


def test_small_sample_returns_a_single_oracle_voter():
    inst = make_proper_failure(1)
    sample = Sample(tuple(e for e, _ in inst.distributions[0].atoms[:2]))
    config = LearnerConfig(n_initial=4)
    report = learn_realizable_report(inst.family, sample, inst.perturbations, config, rng=rng_stream(0))
    assert report.sparsified_to == 1
    assert report.predictor.provenance == ((0, 1),)
    assert empirical_robust_risk(report.predictor, sample, inst.perturbations) == 0


def _single_rerm_voter_report(family, sample, perturbations) -> RealizableRunReport:
    """The report of the former m <= n_initial special case, kept as a reference.

    It skipped candidates and boosting: one robust-ERM voter over the whole
    sample, reconstructed from every index.
    """
    m = len(sample)
    result = rerm(family, sample, perturbations)
    predictor = MajorityVotePredictor((family[result.hypothesis_index],), (tuple(range(m)),))
    return RealizableRunReport(
        predictor=predictor,
        n_used=m,
        inflated_size=len(inflate(sample, perturbations)[0]),
        discretized_size=1,
        rounds=1,
        min_margin=Fraction(1),
        sparsified_to=1,
    )


def test_a_sample_no_larger_than_n_initial_gets_the_single_rerm_voter():
    for seed in range(60):
        family, perturbations, sample, _ = random_realizable_setup(seed)
        m = len(sample)
        want = _single_rerm_voter_report(family, sample, perturbations)
        for config in (
            LearnerConfig(n_initial=m),
            LearnerConfig(n_initial=m + 1),
            LearnerConfig(n_initial=m + 5, N_sparsify=3),
        ):
            got = learn_realizable_report(family, sample, perturbations, config, rng=rng_stream(seed))
            for field in fields(RealizableRunReport):
                assert getattr(got, field.name) == getattr(want, field.name), (seed, config, field.name)
            assert [v.labels for v in got.predictor.voters] == [v.labels for v in want.predictor.voters]
            assert np.array_equal(got.predictor.label_row, want.predictor.label_row)


def test_boost_growing_n_clamps_doubles_and_reraises_at_the_sample_size():
    family = HypothesisFamily.from_rows([(1,) * 5, (-1,) * 5])
    sample = Sample.from_pairs([(x, 1) for x in range(5)])
    perturbations = PerturbationMap.identity(5)
    sizes: list[int] = []

    def never_weak(n):
        assert len(sizes) < 8, f"n kept growing: {sizes}"
        sizes.append(n)
        candidates = build_candidates(family, sample, perturbations, n)
        return alpha_boost(np.ones((len(candidates), 3), dtype=bool))  # every candidate errs everywhere

    # None starts at vc(family) + 1 = 2
    for n, expected in ((1, [1, 2, 4, 5]), (3, [3, 5]), (5, [5]), (9, [5]), (None, [2, 4, 5])):
        sizes.clear()
        with pytest.raises(WeakLearnerFailure):
            learner._boost_growing_n(family, 5, n, never_weak)
        assert sizes == expected, n


def test_the_learner_doubles_n_from_its_default_start(monkeypatch):
    # vc(family) = 1, so n starts at 2; no candidate of a size-2 subsequence
    # is a weak learner on this sample, and the public learner grows n to 4
    family = HypothesisFamily.from_rows([(-1, 1, 1), (-1, -1, -1), (1, 1, -1), (-1, 1, -1)])
    perturbations = PerturbationMap.identity(3)
    sample = Sample.from_pairs([(2, -1), (0, -1), (1, 1), (2, -1), (2, -1), (1, 1)])
    sizes: list[int] = []

    def spy(family, mistakes, inflated, n, clipped_counts):
        sizes.append(n)
        return build(family, mistakes, inflated, n, clipped_counts)

    build = learner._build_stages  # each n's stages, the failing n = 2 included
    monkeypatch.setattr(learner, "_build_stages", spy)
    for seed in range(3):
        report = learn_realizable_report(family, sample, perturbations, LearnerConfig(), rng=rng_stream(seed))
        assert (report.n_used, report.rounds, report.min_margin) == (4, 1, 1)
    assert sizes == [2, 4]  # the later runs meet both stages in the cache


def test_a_warm_run_rebuilds_nothing(monkeypatch):
    # the fixture above: n = 2 fails and n = 4 succeeds, and both outcomes are
    # kept, so a rerun on the same sample key with another generator runs no
    # enumeration, discretization or boosting, and raises no failure of its own
    family = HypothesisFamily.from_rows([(-1, 1, 1), (-1, -1, -1), (1, 1, -1), (-1, 1, -1)])
    perturbations = PerturbationMap.identity(3)
    sample = Sample.from_pairs([(2, -1), (0, -1), (1, 1), (2, -1), (2, -1), (1, 1)])
    cold = learn_realizable_report(family, sample, perturbations, rng=rng_stream(0))
    calls: list[str] = []

    def spy(name, stage):
        def called(*args, **kwargs):
            calls.append(name)
            return stage(*args, **kwargs)
        return called

    for name in ("_enumerated_candidates", "discretize", "alpha_boost"):
        monkeypatch.setattr(learner, name, spy(name, getattr(learner, name)))
    for other in (_repeats_moved(sample), sample):
        assert learner._sample_key(other) == learner._sample_key(sample)
        warm = learn_realizable_report(family, other, perturbations, rng=rng_stream(1))
        assert (warm.n_used, warm.rounds, warm.discretized_size) == (cold.n_used, cold.rounds, cold.discretized_size)
        assert empirical_robust_risk(warm.predictor, other, perturbations) == 0
    assert calls == []


def test_learner_config_has_three_validated_fields():
    assert [f.name for f in fields(LearnerConfig)] == ["n_initial", "N_sparsify", "seed"]
    for name in ("n_initial", "N_sparsify"):
        with pytest.raises(ContractError, match=f"{name} must be >= 1"):
            LearnerConfig(**{name: 0})


def test_learner_achieves_zero_risk_on_random_realizable_instances():
    for seed in range(12):
        family, perturbations, sample, _ = random_realizable_setup(seed)
        predictor = learn_realizable(family, sample, perturbations, rng=rng_stream(seed))
        assert empirical_robust_risk(predictor, sample, perturbations) == 0


def test_learner_is_deterministic_given_seed():
    # equal generator keys give equal votes, and the config's seed is unread;
    # the proper-failure sample boosts three voters
    inst = make_proper_failure(2)
    setups = [
        random_realizable_setup(3)[:3],
        (inst.family, inst.perturbations, sample_iid(inst.distributions[7], 32, seed=21)),
    ]
    for family, perturbations, sample in setups:
        a = learn_realizable(family, sample, perturbations, rng=rng_stream(17))
        b = learn_realizable(family, sample, perturbations, LearnerConfig(seed=5), rng=rng_stream(17))
        assert a.voters == b.voters
        assert a.provenance == b.provenance


def test_learner_grows_n_until_weak_learning_succeeds():
    # each of the first three members errs on exactly one of the three points,
    # so subset sizes 1 and 2 only yield one-mistake candidates (weighted error
    # exactly 1/3 under uniform weights); only n = 3 reaches the perfect member
    family = HypothesisFamily.from_rows([(-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 1, 1)])
    sample = Sample.from_pairs([(0, 1), (1, 1), (2, 1)])
    report = learn_realizable_report(
        family, sample, PerturbationMap.identity(3), LearnerConfig(n_initial=1), rng=rng_stream(0)
    )
    assert report.n_used == 3
    assert report.min_margin == 1
    assert empirical_robust_risk(report.predictor, sample, PerturbationMap.identity(3)) == 0


def test_dual_vc_runs_only_when_sparsify_uses_it(monkeypatch):
    calls = []

    def counted(family, *args, **kwargs):
        calls.append(len(family))
        return learner_dual_vc(family, *args, **kwargs)

    learner_dual_vc = learner.dual_vc
    monkeypatch.setattr(learner, "dual_vc", counted)
    # a perfect candidate at n = 3 (see above): one voter, whatever N_sparsify is
    family = HypothesisFamily.from_rows([(-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 1, 1)])
    sample = Sample.from_pairs([(0, 1), (1, 1), (2, 1)])
    report = learn_realizable_report(
        family, sample, PerturbationMap.identity(3), LearnerConfig(n_initial=1), rng=rng_stream(0)
    )
    assert (report.rounds, report.sparsified_to, calls) == (1, 1, [])
    # any N >= 3 keeps T <= 3 voters whole, so N_sparsify is 3 without the
    # search: three boosting rounds over 3 and over 6 pf(2) candidates
    inst = make_proper_failure(2)
    for index, count in ((7, 3), (0, 6)):
        sample = sample_iid(inst.distributions[index], 32, seed=21)
        report = learn_realizable_report(inst.family, sample, inst.perturbations, rng=rng_stream(21, 1))
        assert len(build_candidates(inst.family, sample, inst.perturbations, report.n_used)) == count
        assert (report.rounds, report.sparsified_to, calls) == (3, 3, [])
    sizes = []

    def recorded(correct, N, rng):
        sizes.append(N)
        return learner_draw(correct, N, rng)

    learner_draw = learner._sparse_draw  # sparsify's draws
    monkeypatch.setattr(learner, "_sparse_draw", recorded)
    # rows 0-4 err on one of the five sample points each and row 5 on none;
    # on 16 more points rows 0-3 take every sign pattern.  At n = 4 the
    # candidates are rows 0-4, and rows 0-3 are dual-shattered, but boosting
    # ends with three voters, so N_sparsify is still 3 without the search
    rows = [
        [-1 if r == i else 1 for i in range(5)] + [-1 if r < 4 and x >> r & 1 else 1 for x in range(16)]
        for r in range(6)
    ]
    family = HypothesisFamily.from_rows(rows)
    sample = Sample.from_pairs([(i, 1) for i in range(5)])
    identity = PerturbationMap.identity(21)
    report = learn_realizable_report(family, sample, identity, LearnerConfig(n_initial=4), rng=rng_stream(0))
    assert sorted(build_candidates(family, sample, identity, 4).members) == [0, 1, 2, 3, 4]
    assert learner_dual_vc(HypothesisFamily(family.matrix[:5])).value == 4
    assert (report.rounds, calls, sizes) == (3, [], [3])
    # the T = 7 boost of test_stage_cache_runs_equal_runs_on_fresh_families,
    # whose n = 2 candidates are rows 0, 1, 2 and 4; on 16 more points these
    # four take every sign pattern, so they are dual-shattered: one search
    # over the 4 candidates makes N_sparsify max(3, 4) made odd, 5
    base = [(-1, -1, -1, -1, 1, -1), (-1, -1, 1, -1, -1, 1), (-1, 1, -1, -1, -1, 1),
            (-1, 1, -1, -1, 1, 1), (-1, 1, 1, 1, -1, -1), (1, -1, -1, -1, -1, -1)]
    bit = {0: 0, 1: 1, 2: 2, 4: 3}  # row -> the bit of x it takes
    rows = [list(r) + [-1 if i in bit and x >> bit[i] & 1 else 1 for x in range(16)] for i, r in enumerate(base)]
    family = HypothesisFamily.from_rows(rows)
    sample = Sample.from_pairs([(3, -1), (3, -1), (2, -1), (5, -1), (4, -1), (5, -1)])
    identity = PerturbationMap.identity(22)
    report = learn_realizable_report(family, sample, identity, LearnerConfig(n_initial=1), rng=rng_stream(0))
    assert build_candidates(family, sample, identity, 2).members == (0, 1, 2, 4)
    assert (report.n_used, report.rounds, report.sparsified_to, calls, sizes) == (2, 7, 5, [4], [3, 5])


@st.composite
def realizable_votes(draw):
    """A tiny family and map, a sample one member robustly fits, and a vote of any members."""
    size = draw(st.integers(min_value=1, max_value=5))
    point = st.integers(min_value=0, max_value=size - 1)
    rows = draw(st.lists(st.tuples(*[SIGNS] * size), min_size=1, max_size=6, unique=True))
    balls = draw(st.lists(st.lists(point, min_size=1, max_size=size), min_size=size, max_size=size))
    fitted = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
    pool = [(x, fitted[ball[0]]) for x, ball in enumerate(balls) if len({fitted[z] for z in ball}) == 1]
    assume(pool)
    pairs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    voters = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=5))
    vote = MajorityVotePredictor(tuple(Hypothesis(v) for v in voters))
    return PerturbationMap(tuple(map(tuple, balls))), Sample.from_pairs(pairs), vote


@settings(max_examples=300, deadline=None)
@given(realizable_votes())
def test_fitting_the_inflation_is_zero_empirical_robust_risk(case):
    perturbations, sample, vote = case
    fits = _fits_inflation(vote, inflate(sample, perturbations))
    assert fits == (empirical_robust_risk(vote, sample, perturbations) == 0)


def test_every_learned_vote_is_one_voter_or_at_least_two_distinct_ones():
    # the premise of `MajorityVotePredictor.label_row`, whose one shortcut is
    # the one-voter vote: no learner returns copies of one voter alone
    votes = []
    for seed in range(30):
        family, perturbations, sample, _ = random_realizable_setup(seed)
        votes.append(learn_realizable(family, sample, perturbations, rng=rng_stream(seed)))
        family, perturbations, sample = random_labeled_sample(seed)
        votes.append(learn_agnostic(family, sample, perturbations))
    pf2, alb4 = make_proper_failure(2), make_agnostic_lower_bound(4, Fraction(1, 4))
    for seed in range(12):
        rng = rng_stream(seed)
        sample = draw_sample(pf2.distributions[seed], 32, rng)
        votes.append(learn_realizable(pf2.family, sample, pf2.perturbations, rng=rng))
        votes.append(learn_agnostic(pf2.family, sample, pf2.perturbations))
        sample = draw_sample(alb4.distributions[seed], 64, rng)
        votes.append(learn_agnostic(alb4.family, sample, alb4.perturbations))
    shapes = [(len(vote.voters), len({id(v) for v in vote.voters})) for vote in votes]
    assert [(n, d) for n, d in shapes if n > 1 and d < 2] == []
    assert (1, 1) in shapes and max(d for _, d in shapes) >= 2  # both shapes occur


def test_a_losing_sparsified_vote_raises_the_closing_error(monkeypatch):
    # rows 0-4 each err on one of the five sample points and row 5 on none; at
    # n = 4 the candidates are rows 0-4, so any one voter has risk 1/5
    family = HypothesisFamily.from_rows([[-1 if r == i else 1 for i in range(5)] for r in range(6)])
    sample = Sample.from_pairs([(i, 1) for i in range(5)])
    identity = PerturbationMap.identity(5)
    config = LearnerConfig(n_initial=4)
    learn_realizable_report(family, sample, identity, config, rng=rng_stream(0))  # unpatched, it fits
    monkeypatch.setattr(learner, "_sparse_draw", lambda correct, N, rng: (0,))  # sparsify's draws
    with pytest.raises(RuntimeError, match="^pipeline produced nonzero empirical robust risk 1/5$"):
        learn_realizable_report(family, sample, identity, config, rng=rng_stream(0))


@settings(max_examples=150, deadline=None)
@given(candidate_inputs(), st.integers(min_value=0, max_value=8), st.data())
def test_first_unrealizable_index_matches_the_prefix_scan(inputs, outside, data):
    family, perturbations, sample, _ = inputs
    if outside < 2:  # a point past the space, at any position
        pairs = [(e.point, e.label) for e in sample]
        pairs.insert(data.draw(st.integers(0, len(pairs))), (perturbations.size + outside, 1))
        with pytest.raises(StructuralError, match=f"point {perturbations.size + outside} outside"):
            learn_realizable_report(family, Sample.from_pairs(pairs), perturbations, rng=rng_stream(0))
        return
    expected = None
    for i in range(len(sample)):
        prefix = Sample(sample.examples[: i + 1])
        if all(empirical_robust_risk(h, prefix, perturbations) > 0 for h in family):
            expected = i
            break
    distinct = sample.distinct  # the check names a distinct example; its first position is the answer
    dead = learner._first_dead_example(family.robust_table(perturbations).loss_at(distinct.points, distinct.labels))
    assert (dead if dead is None else distinct.positions[dead][0]) == expected


def test_learner_rejects_unrealizable_samples_naming_the_example():
    family = HypothesisFamily.from_rows([(1, 1), (-1, 1)])
    sample = Sample.from_pairs([(1, 1), (0, 1), (0, -1)])
    with pytest.raises(ContractError, match="example 2"):
        learn_realizable(family, sample, PerturbationMap.identity(2), rng=rng_stream(0))


def test_pipeline_margin_implies_zero_risk_and_small_compression():
    inst = make_proper_failure(2)
    sample = sample_iid(inst.distributions[7], 32, seed=21)
    report = learn_realizable_report(inst.family, sample, inst.perturbations, rng=rng_stream(21, 1))
    assert report.min_margin > Fraction(1, 2)
    assert empirical_robust_risk(report.predictor, sample, inst.perturbations) == 0
    assert report.compression_size <= report.n_used * report.sparsified_to


def test_margins_transfer_from_representatives_to_the_whole_inflation():
    inst = make_proper_failure(2)
    sample = sample_iid(inst.distributions[2], 24, seed=33)
    cands = build_candidates(inst.family, sample, inst.perturbations, 2)
    points, labels = inflate(sample, inst.perturbations)
    matrix = inst.family.matrix[list(cands.members)]
    disc = discretize((points, labels), matrix)
    boost = alpha_boost(disc.wrong)
    voters = list(boost.voter_ids)
    rep_margin = {}
    for pattern in _patterns(disc.wrong):
        rep_margin[pattern] = sum(1 - pattern[v] for v in voters)
    for z, y in zip(points.tolist(), labels.tolist()):
        pattern = tuple(int(b) for b in (matrix[:, z] != y))
        margin = sum(int(matrix[v, z] == y) for v in voters)
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


# --- pinned learner output -----------------------------------------------------


def _pinned_instances() -> list:
    """The (instance, m, config) of the pinned runs: proper-failure(2) and the threshold window."""
    return [
        (make_proper_failure(2), 64, None),
        (make_threshold_window_instance(), 50, LearnerConfig(n_initial=1, N_sparsify=3)),
    ]


def _pinned_reports(instances):
    """Each (instance, sample, report) of 60 runs per instance, on the generator keyed (15, trial)."""
    for inst, m, config in instances:
        for trial in range(60):
            rng = rng_stream(15, trial)
            if inst.distributions:
                dist = inst.distributions[int(rng.integers(len(inst.distributions)))]
            else:
                dist = _random_threshold_distribution(inst, rng)
            sample = draw_sample(dist, m, rng)
            yield inst, sample, learn_realizable_report(inst.family, sample, inst.perturbations, config, rng=rng)


def test_learner_output_is_pinned():
    # sha256 over every report field, voter member index and provenance of
    # 120 runs, each on the generator keyed (seed, trial) as the experiments
    # key them: 60 separation-style runs on proper-failure(2) at m = 64 and
    # 60 bound-check runs on the threshold-window fixture at m = 50.  A change
    # to any learner stage that alters its output moves the digest.
    runs = _pinned_instances()
    index = {id(inst): {row.tobytes(): i for i, row in enumerate(inst.family.matrix)} for inst, _, _ in runs}
    # The second pass reruns the same instances, so every stage comes from
    # the families' stage caches: no slot gains a key, and the pin holds.
    cached = []
    for _ in range(2):
        digest = hashlib.sha256()
        for inst, _, report in _pinned_reports(runs):
            vote = report.predictor
            voters = [index[id(inst)][v.label_row.tobytes()] for v in vote.voters]
            sizes = [getattr(report, f.name) for f in fields(report) if f.name != "predictor"]
            digest.update(repr((sizes, voters, vote.provenance, vote.flags)).encode())
        assert digest.hexdigest() == "491aad29e93b650b919dd10a206193d399777e0a6d93e98e6a5ebb51e1d7c611"
        cached.append([len(learner._stage_slot(inst.family, inst.perturbations)) for inst, _, _ in runs])
    assert cached[0] == cached[1] and min(cached[0]) > 0


def _decoded_voters(family, sample, perturbations, vote: MajorityVotePredictor) -> int:
    """RERM on each voter's provenance subsequence returns that voter's member; the voter count."""
    for voter, indices in zip(vote.voters, vote.provenance):
        found = rerm(family, Sample(tuple(sample[i] for i in indices)), perturbations).hypothesis_index
        assert np.array_equal(family.matrix[found], voter.label_row), indices
    return len(vote.voters)


def test_every_voter_decodes_from_its_provenance():
    # the compression scheme: each voter of the pinned realizable runs, of
    # agnostic runs on agnostic-lower-bound(4, 1/3) and of the agnostic_loop
    # golden's run is what RERM returns on the sample at its provenance
    decoded = 0
    for inst, sample, report in _pinned_reports(_pinned_instances()):
        decoded += _decoded_voters(inst.family, sample, inst.perturbations, report.predictor)
    lower = make_agnostic_lower_bound(4, "1/3")
    samples = []
    for trial in range(20):
        rng = rng_stream(15, trial)
        samples.append((lower, draw_sample(lower.distributions[int(rng.integers(16))], 64, rng)))
    loop = make_proper_failure(2)  # the agnostic_loop golden: --m 32 --dist 3 --seed 1
    samples.append((loop, draw_sample(loop.distributions[3], 32, rng_stream(1))))
    for inst, sample in samples:
        vote = learn_agnostic(inst.family, sample, inst.perturbations)
        if vote.flags != ("empty-realizable-core",):
            decoded += _decoded_voters(inst.family, sample, inst.perturbations, vote)
    assert decoded == 180 + 20 + 68  # the pinned runs' voters, one per lower-bound run, the loop's 68


# --- the stage cache -------------------------------------------------------------


def test_kept_stages_hold_the_candidates_of_their_n():
    inst = make_proper_failure(2)
    family, u = inst.family, inst.perturbations
    reversed_family = HypothesisFamily(family.matrix[::-1])
    identity = PerturbationMap.identity(family.space_size)
    for t in range(20):
        sample = draw_sample(inst.distributions[t % len(inst.distributions)], 12, rng_stream(4, t))
        key, runs = learner._sample_key(sample), sample.distinct.positions
        kept = []
        for f, v in [(family, u), (reversed_family, u), (family, identity), (family, u), (family, PerturbationMap(u.sets))]:
            learn_realizable_report(f, sample, v, rng=rng_stream(0))
            stages = {k: s for k, s in learner._stage_slot(f, v).items() if k[0] == key}
            assert stages
            for (_, n, _), found in stages.items():
                expected = build_candidates(f, sample, v, n)
                assert found.members == expected.members
                assert tuple(learner._indices(runs, vector) for vector in found.vectors) == expected.provenance
            kept.append(stages)
        assert kept[4] == kept[3]  # the same stage objects: kept for the last (family, map)


def _run_outcome(family, sample, perturbations, config, rng: np.random.Generator) -> tuple:
    """Every report field, the voters' label rows, the provenance and the generator's state after the run."""
    report = learn_realizable_report(family, sample, perturbations, config, rng=rng)
    vote = report.predictor
    sizes = [getattr(report, f.name) for f in fields(report) if f.name != "predictor"]
    return sizes, [v.labels for v in vote.voters], vote.provenance, vote.flags, repr(rng.bit_generator.state)


def _fresh(family, perturbations) -> tuple[HypothesisFamily, PerturbationMap]:
    """A newly built family and map equal to the given ones, whose stage cache is empty."""
    return HypothesisFamily(family.matrix.copy(), name=family.name), PerturbationMap(perturbations.sets)


def _fresh_run(family, sample, perturbations, config, seed, stream) -> tuple:
    """The run on `_fresh` copies of the family and map."""
    family, perturbations = _fresh(family, perturbations)
    return _run_outcome(family, sample, perturbations, config, rng_stream(seed, stream))


def _unrealizable_text(family, sample, perturbations) -> str:
    """The text of the ContractError the learner raises on an unrealizable sample."""
    with pytest.raises(ContractError, match="sample is not robustly realizable") as error:
        learn_realizable_report(family, sample, perturbations, rng=rng_stream(0))
    return str(error.value)


def _fresh_unrealizable_text(family, sample, perturbations) -> str:
    """`_unrealizable_text` on `_fresh` copies of the family and map."""
    family, perturbations = _fresh(family, perturbations)
    return _unrealizable_text(family, sample, perturbations)


def _repeats_moved(sample: Sample) -> Sample:
    """The first appearances, then the repeats in reverse: the sample's key and counts, other positions."""
    runs = sample.distinct.positions
    repeats = [sample[i] for i in sorted(i for run in runs for i in run[1:])]
    return Sample(tuple(sample[run[0]] for run in runs) + tuple(reversed(repeats)))


def _runs_equal_fresh_runs(family, runs, seed) -> list:
    """Each (sample, map, config) run on the one family equals its fresh run; the outcomes."""
    outcomes = []
    for run, (sample, perturbations, config) in enumerate(runs):
        got = _run_outcome(family, sample, perturbations, config, rng_stream(seed, run))
        assert got == _fresh_run(family, sample, perturbations, config, seed, run), run
        outcomes.append(got)
    return outcomes


def test_stage_cache_runs_equal_runs_on_fresh_families():
    # One family serves every run, switching between two maps and between an
    # unset and a set N_sparsify (1, so a boost of three voters makes every
    # draw and falls back) on samples met three times, so later runs read
    # stages earlier runs built; n_initial = 1 meets other candidate members
    # for the same distinct examples.  Every member labels the six anchors
    # alike, so the second map, which adds the next anchor to each anchor's
    # ball, leaves every robust loss and candidate set as they were and grows
    # only the inflation: a cache that ignored the map would report the first one's.
    inst = make_proper_failure(2)
    anchors = inst.family.matrix[:, :6]
    assert (anchors == anchors[:, :1]).all()
    sets = inst.perturbations.sets
    shifted = PerturbationMap(tuple(s + ((x + 1) % 6,) if x < 6 else s for x, s in enumerate(sets)))
    configs = (LearnerConfig(), LearnerConfig(N_sparsify=1), LearnerConfig(n_initial=1))
    samples = [draw_sample(inst.distributions[i % 5], 24, rng_stream(41, i)) for i in range(8)]
    for seed, perturbations in ((43, inst.perturbations), (44, shifted), (45, inst.perturbations)):
        # the slot keeps one map, so each map's runs fill their own cache
        _runs_equal_fresh_runs(inst.family, list(product(samples * 3, (perturbations,), configs)), seed)

    # Each pair below shares a sample key, so the second run of a pair hits
    # the first one's entry; every run still equals its fresh run.
    inst = make_proper_failure(2)  # n = vc + 1 = 2 here, and never doubles
    sample = samples[0]
    positions = sample.distinct.positions
    assert min(map(len, positions)) >= 2
    # the same counts with repeats elsewhere: one stage, whose count vectors
    # give provenance at each sample's positions
    moved = _repeats_moved(sample)
    # one example kept once, a count below n: another stage for the same key
    once = Sample(tuple(e for i, e in enumerate(sample.examples) if i not in positions[0][1:]))
    key = learner._sample_key
    assert key(moved) == key(once) == key(sample)
    runs = [(s, inst.perturbations, None) for s in (once, sample, sample, moved)]
    outcomes = _runs_equal_fresh_runs(inst.family, runs, 59)
    assert outcomes[2][2] != outcomes[3][2]  # the moved repeats change the provenance

    # a second label on a sample point makes the sample unrealizable; met
    # again, it raises the same error, and a leading repeat moves the
    # offending position but not the distinct example
    first = sample[0]
    flipped = Sample(sample.examples[:5] + (LabeledExample(first.point, -first.label),))
    shifted_flip = Sample((first,) + flipped.examples)
    assert key(flipped) == key(shifted_flip)
    unrealizable = (flipped, flipped, shifted_flip)
    slot = learner._stage_slot(inst.family, inst.perturbations)
    assert [k[1:] for k in slot if k[0] == key(sample)] == [(2, (1, 2, 2, 2)), (2, (2, 2, 2, 2))]
    kept = len(slot)
    texts = [_unrealizable_text(inst.family, s, inst.perturbations) for s in unrealizable]
    assert len(slot) == kept  # a refused sample keeps nothing
    assert texts == [_fresh_unrealizable_text(inst.family, s, inst.perturbations) for s in unrealizable]
    assert texts[0] == texts[1] != texts[2]

    # n grows from vc + 1 = 2 to 4 here (see test_the_learner_doubles_n_from_its_default_start)
    family = HypothesisFamily.from_rows([(-1, 1, 1), (-1, -1, -1), (1, 1, -1), (-1, 1, -1)])
    sample = Sample.from_pairs([(2, -1), (0, -1), (1, 1), (2, -1), (2, -1), (1, 1)])
    identity = PerturbationMap.identity(3)
    configs = (None, None, LearnerConfig(n_initial=1))
    runs = [(s, identity, c) for s in (sample, _repeats_moved(sample)) for c in configs]
    outcomes = _runs_equal_fresh_runs(family, runs, 61)
    assert {outcome[0][0] for outcome in outcomes} == {4}  # n_used

    # boosting repeats candidates 0 and 2 and adds one that errs on two
    # columns: T = 7 voters, above both sparsify sizes, so every run draws
    family = HypothesisFamily.from_rows(
        [(-1, -1, -1, -1, 1, -1), (-1, -1, 1, -1, -1, 1), (-1, 1, -1, -1, -1, 1),
         (-1, 1, -1, -1, 1, 1), (-1, 1, 1, 1, -1, -1), (1, -1, -1, -1, -1, -1)]
    )
    sample = Sample.from_pairs([(3, -1), (3, -1), (2, -1), (5, -1), (4, -1), (5, -1)])
    identity = PerturbationMap.identity(6)
    configs = (LearnerConfig(n_initial=1), LearnerConfig(n_initial=1, N_sparsify=5))
    _runs_equal_fresh_runs(family, [(sample, identity, c) for c in configs] * 3, 67)
    slot = learner._stage_slot(family, identity)
    [stages] = [s for s in slot.values() if s.boost is not None]
    assert stages.boost.voter_ids == (0, 2, 0, 2, 0, 2, 3)


def test_stage_cache_keeps_at_most_its_cap_entries(monkeypatch):
    monkeypatch.setattr(learner, "STAGE_CACHE_ENTRIES", 3)
    inst = make_proper_failure(2)
    samples = [draw_sample(inst.distributions[i], 24, rng_stream(47, i)) for i in range(8)]
    met: set = set()
    for run, sample in enumerate(samples * 2):  # the second pass meets keys the cap dropped
        got = _run_outcome(inst.family, sample, inst.perturbations, None, rng_stream(53, run))
        assert got == _fresh_run(inst.family, sample, inst.perturbations, None, 53, run), run
        slot = learner._stage_slot(inst.family, inst.perturbations)
        met |= set(slot)  # one stage per (sample key, n, counts clipped at n)
        assert len(slot) == min(len(met), 3)
        assert next(reversed(slot))[0] == learner._sample_key(sample)
    assert len(met) == 8
