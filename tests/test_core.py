from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustpac.core import (
    ContractError,
    FiniteDistribution,
    Hypothesis,
    HypothesisFamily,
    LabeledExample,
    MajorityVotePredictor,
    PerturbationMap,
    Sample,
    StructuralError,
    check_self_containment,
    empirical_robust_risk,
    population_robust_risk,
    robust_loss,
)
from robustpac.constructions import (
    make_agnostic_lower_bound,
    make_lower_bound_family,
    make_proper_failure,
    make_vc_blowup,
)
from robustpac.prng import rng_stream
from robustpac.sampling import draw_sample


def test_identity_adversary_consistent_predictor_has_zero_loss():
    h = Hypothesis((1, -1, 1))
    identity = PerturbationMap.identity(3)
    assert robust_loss(h, LabeledExample(1, -1), identity) == 0
    assert robust_loss(h, LabeledExample(1, 1), identity) == 1


def test_robust_loss_scans_the_whole_perturbation_set():
    # X = {0, 1}, U(0) = {0, 1}; predictor says (+1, -1); point 1 breaks (0, +1)
    h = Hypothesis((1, -1))
    u = PerturbationMap(((0, 1), (1,)))
    assert robust_loss(h, LabeledExample(0, 1), u) == 1
    assert robust_loss(h, LabeledExample(0, 1), PerturbationMap.identity(2)) == 0


def test_blowup_robust_loss_reads_the_bit():
    inst = make_vc_blowup(3)
    # member with code b has robust loss b_i at anchor i
    for code, h in enumerate(inst.family):
        for i in range(3):
            expected = (code >> i) & 1
            assert robust_loss(h, LabeledExample(i, 1), inst.perturbations) == expected


def test_empirical_robust_risk_counts_multiplicity():
    h = Hypothesis((1, 1, -1))
    u = PerturbationMap.identity(3)
    sample = Sample.from_pairs([(0, 1), (1, 1), (2, 1), (0, 1)])
    assert empirical_robust_risk(h, sample, u) == Fraction(1, 4)
    repeated = Sample.from_pairs([(2, 1), (2, 1), (0, 1), (1, 1)])
    assert empirical_robust_risk(h, repeated, u) == Fraction(2, 4)


def test_empirical_risk_requires_nonempty_sample():
    h = Hypothesis((1,))
    with pytest.raises(ContractError):
        empirical_robust_risk(h, Sample(()), PerturbationMap.identity(1))


def test_population_risk_weighted_count():
    # uniform over 2m points, predictor robustly wrong on exactly j of them
    m, j = 4, 3
    labels = [-1] * j + [1] * (2 * m - j)
    h = Hypothesis((1,) * (2 * m))
    dist = FiniteDistribution.uniform([LabeledExample(i, lab) for i, lab in enumerate(labels)])
    risk = population_robust_risk(h, dist, PerturbationMap.identity(2 * m))
    assert risk == Fraction(j, 2 * m)
    assert population_robust_risk(
        h, FiniteDistribution.uniform([LabeledExample(0, 1)]), PerturbationMap.identity(2 * m)
    ) == 0


def test_designated_member_has_zero_risk_on_every_hard_distribution():
    inst = make_lower_bound_family(3, Fraction(1, 10))
    for code, dist in enumerate(inst.distributions):
        h = inst.family[code]
        assert population_robust_risk(h, dist, inst.perturbations) == 0


def test_empirical_on_full_support_equals_population():
    inst = make_lower_bound_family(2, Fraction(1, 16))
    u = inst.perturbations
    for dist in inst.distributions[:2]:
        support = tuple(e for e, _ in dist.atoms)
        sample = Sample(support)
        for h in list(inst.family)[:4]:
            emp = empirical_robust_risk(h, sample, u)
            pop_uniform = population_robust_risk(
                h, FiniteDistribution.uniform(support), u
            )
            assert emp == pop_uniform


def test_majority_tie_resolves_to_plus_one():
    plus = Hypothesis((1, 1))
    minus = Hypothesis((-1, -1))
    vote = MajorityVotePredictor((plus, minus))
    assert vote.label_of(0) == 1
    assert vote.label_of(1) == 1
    strict = MajorityVotePredictor((plus, minus, minus))
    assert strict.label_of(0) == -1


def test_majority_vote_checks_voters_and_keeps_provenance_as_given():
    plus, minus = Hypothesis((1, 1)), Hypothesis((-1, -1))
    shared = (0, 2)
    vote = MajorityVotePredictor((plus, minus, plus), (shared, shared, (1,)))
    assert vote.provenance == ((0, 2), (0, 2), (1,))
    assert vote.provenance[0] is vote.provenance[1] is shared
    assert vote.compression_size == 5
    with pytest.raises(StructuralError, match="at least one voter"):
        MajorityVotePredictor(())
    with pytest.raises(StructuralError, match="share one instance space"):
        MajorityVotePredictor((plus, Hypothesis((1, 1, 1))))
    with pytest.raises(StructuralError, match="one index tuple per voter"):
        MajorityVotePredictor((plus, minus), ((0,),))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda size: st.lists(
            st.lists(st.sampled_from((-1, 1)), min_size=size, max_size=size),
            min_size=1,
            max_size=6,
        )
    )
)
def test_majority_label_of_reads_label_row(rows):
    # even voter counts make exact ties, which both must resolve to +1
    vote = MajorityVotePredictor(tuple(Hypothesis(tuple(r)) for r in rows))
    for x in range(vote.size):
        assert vote.label_of(x) == vote.label_row[x]
        assert type(vote.label_of(x)) is int
    for bad in (vote.size, vote.size + 3, -1):
        with pytest.raises(StructuralError, match=f"point {bad} outside instance space of size {vote.size}"):
            vote.label_of(bad)


def test_majority_robust_loss_matches_margin_rule():
    voters = (Hypothesis((1, -1)), Hypothesis((1, 1)), Hypothesis((-1, 1)))
    vote = MajorityVotePredictor(voters)
    u = PerturbationMap(((0, 1), (1,)))
    # at every z in U(0): strictly more than half vote +1 -> loss 0 for (0, +1)
    assert robust_loss(vote, LabeledExample(0, 1), u) == 0
    assert robust_loss(vote, LabeledExample(0, -1), u) == 1


def test_distribution_validation():
    e = LabeledExample(0, 1)
    with pytest.raises(StructuralError):
        FiniteDistribution(((e, Fraction(1, 2)),))
    with pytest.raises(StructuralError):
        FiniteDistribution(((e, Fraction(1, 2)), (e, Fraction(1, 2))))
    with pytest.raises(StructuralError):
        FiniteDistribution(((e, Fraction(0)), (LabeledExample(1, 1), Fraction(1))))


def test_distribution_rejects_a_nan_probability():
    # NaN compares False both ways, so neither `p <= 0` nor the float sum check catches it
    e0, e1 = LabeledExample(0, 1), LabeledExample(1, 1)
    with pytest.raises(StructuralError, match="must be positive, got nan"):
        FiniteDistribution(((e0, float("nan")), (e1, 1.0)))


def test_family_constructor_is_the_one_validator():
    with pytest.raises(StructuralError, match="must be 2-D"):
        HypothesisFamily(np.array([1, -1]))
    with pytest.raises(StructuralError, match="hypothesis family must be nonempty"):
        HypothesisFamily(np.empty((0, 3), dtype=np.int8))
    for bad in (0, 2):
        with pytest.raises(StructuralError, match=rf"^label must be \+1 or -1, got {bad}$"):
            HypothesisFamily(np.array([[1, -1], [1, bad]]))
    with pytest.raises(StructuralError, match="pairwise distinct label sequences"):
        HypothesisFamily(np.array([[1, -1], [-1, 1], [1, -1]]))
    source = np.array([[1, -1], [-1, -1]])
    family = HypothesisFamily(source, name="f")
    source[0, 0] = -1  # the family keeps its own read-only int8 copy
    assert family.matrix.tolist() == [[1, -1], [-1, -1]]
    assert family.matrix.dtype == np.int8 and not family.matrix.flags.writeable
    assert family == HypothesisFamily.from_rows([(1, -1), (-1, -1)], name="f")
    assert family != HypothesisFamily.from_rows([(1, -1), (-1, -1)], name="g")
    assert family != HypothesisFamily.from_rows([(-1, -1), (1, -1)], name="f")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(*[st.sampled_from((1, -1))] * 4), min_size=1, max_size=10, unique=True))
def test_members_are_the_matrix_rows(rows):
    family = HypothesisFamily.from_rows(rows)
    assert (len(family), family.space_size) == family.matrix.shape == (len(rows), 4)
    for i, row in enumerate(rows):
        h = family[i]
        assert h is family.members[i] is list(family)[i]
        assert np.array_equal(family.matrix[i], h.label_row)
        assert h.labels == row and all(type(v) is int for v in h.labels)


def test_exact_distributions_sum_to_exactly_one():
    a, b = LabeledExample(0, 1), LabeledExample(1, 1)
    with pytest.raises(StructuralError):
        FiniteDistribution(((a, Fraction(1, 2) + Fraction(1, 10**13)), (b, Fraction(1, 2))))
    FiniteDistribution(((a, Fraction(1, 3)), (b, Fraction(2, 3))))
    # floats keep the 1e-12 tolerance
    FiniteDistribution(((a, 0.5 + 1e-13), (b, 0.5)))
    with pytest.raises(StructuralError):
        FiniteDistribution(((a, 0.5 + 1e-11), (b, 0.5)))
    for inst in (
        make_proper_failure(2),
        make_proper_failure(3, cap=9),
        make_agnostic_lower_bound(6, Fraction(1, 4)),
    ):
        for dist in inst.distributions:
            assert sum(p for _, p in dist.atoms) == 1


def test_perturbation_map_validation():
    with pytest.raises(StructuralError):
        PerturbationMap(((),))
    with pytest.raises(StructuralError):
        PerturbationMap(((0, 5),))
    u = PerturbationMap(((1,), (0, 1)))
    with pytest.raises(StructuralError):
        check_self_containment(u)
    check_self_containment(PerturbationMap.identity(3))


@st.composite
def _space_predictor_example(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    labels = draw(st.tuples(*[st.sampled_from((-1, 1)) for _ in range(n)]))
    point = draw(st.integers(min_value=0, max_value=n - 1))
    label = draw(st.sampled_from((-1, 1)))
    small = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n))
    grow = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n))
    inner = {point} | set(small)
    outer = inner | set(grow)
    return Hypothesis(labels), LabeledExample(point, label), sorted(inner), sorted(outer)


@given(_space_predictor_example())
def test_standard_loss_lower_bounds_robust_loss_and_monotonicity(case):
    h, example, inner, outer = case
    n = h.size
    u_inner = PerturbationMap(
        tuple(tuple(inner) if x == example.point else (x,) for x in range(n))
    )
    u_outer = PerturbationMap(
        tuple(tuple(outer) if x == example.point else (x,) for x in range(n))
    )
    # example.point is in its own set: standard (identity-adversary) loss <= robust loss
    assert robust_loss(h, example, PerturbationMap.identity(n)) <= robust_loss(h, example, u_inner)
    # U(x) subset of U'(x) pointwise: robust loss is monotone
    assert robust_loss(h, example, u_inner) <= robust_loss(h, example, u_outer)


# --- differential tests for the cached distribution columns -------------------


@st.composite
def distribution_cases(draw):
    """A small space, perturbation sets, a predictor and a distribution over it.

    The weights are all Fractions, all floats or a mix of both.
    """
    size = draw(st.integers(min_value=1, max_value=5))
    point = st.integers(min_value=0, max_value=size - 1)
    balls = draw(st.lists(st.lists(point, min_size=1, max_size=size), min_size=size, max_size=size))
    pair = st.tuples(point, st.sampled_from((-1, 1)))
    keys = draw(st.lists(pair, min_size=1, max_size=2 * size, unique=True))
    weight = st.integers(min_value=1, max_value=9)
    weights = draw(st.lists(weight, min_size=len(keys), max_size=len(keys)))
    kind = draw(st.sampled_from(("fraction", "float", "mixed")))
    total = sum(weights)
    probs: list = [Fraction(w, total) for w in weights]
    if kind != "fraction":
        probs = [float(p) for p in probs]
    if kind == "mixed":
        probs[0] = Fraction(weights[0], total)
    dist = FiniteDistribution(tuple((LabeledExample(x, y), p) for (x, y), p in zip(keys, probs)))
    rows = draw(st.lists(st.tuples(*[st.sampled_from((-1, 1))] * size), min_size=1, max_size=3))
    voters = tuple(map(Hypothesis, rows))
    predictor = MajorityVotePredictor(voters) if len(voters) > 1 else voters[0]
    return PerturbationMap(tuple(map(tuple, balls))), predictor, dist


@settings(max_examples=150, deadline=None)
@given(distribution_cases(), st.integers(min_value=1, max_value=40), st.integers(0, 2**32))
def test_draw_sample_matches_the_per_draw_support_lookup(case, m, seed):
    _, _, dist = case
    rng, reference_rng = rng_stream(seed, 3), rng_stream(seed, 3)
    sample = draw_sample(dist, m, rng)
    cdf = np.cumsum(dist.probabilities())
    cdf[-1] = 1.0
    support = tuple(e for e, _ in dist.atoms)
    expected = Sample(
        tuple(support[int(i)] for i in np.searchsorted(cdf, reference_rng.random(m), side="right"))
    )
    assert sample == expected
    rebuilt = Sample(sample.examples)
    for got, want in zip(sample._columns, rebuilt._columns):
        assert got.dtype == want.dtype and np.array_equal(got, want) and not got.flags.writeable
    # both generators stand at the same position: one rng.random(m) call each
    assert np.array_equal(rng.random(8), reference_rng.random(8))


@settings(max_examples=150, deadline=None)
@given(distribution_cases())
def test_population_risk_matches_the_per_atom_robust_loss_sum(case):
    perturbations, predictor, dist = case
    exact = all(isinstance(p, Fraction) for _, p in dist.atoms)
    expected = Fraction(0) if exact else 0.0
    for example, p in dist.atoms:
        if robust_loss(predictor, example, perturbations):
            expected += p
    risk = population_robust_risk(predictor, dist, perturbations)
    assert type(risk) is type(expected) and risk == expected
