from __future__ import annotations

import re
from dataclasses import dataclass
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
    RobustTable,
    Sample,
    StructuralError,
    _kept,
    check_self_containment,
    empirical_robust_risk,
    population_robust_risk,
    robust_loss,
)
from robustpac.constructions import (
    make_agnostic_lower_bound,
    make_lower_bound_family,
    make_proper_failure,
    make_union_truncation,
    make_vc_blowup,
)
from robustpac.experiments import _exact_dirichlet
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
    ),
    st.integers(min_value=0, max_value=88),
)
def test_majority_label_of_reads_label_row(rows, copies):
    # even voter counts make exact ties, which both must resolve to +1; with
    # copies > 1 the vote is one Hypothesis object repeated, which no learner
    # returns but a caller may build, and copies = 1 is the one-voter vote
    voters = (Hypothesis(tuple(rows[0])),) * copies if copies else tuple(Hypothesis(tuple(r)) for r in rows)
    vote = MajorityVotePredictor(voters)
    row = vote.label_row
    sums = [sum(v.labels[x] for v in voters) for x in range(vote.size)]
    assert row.dtype == np.int8 and not row.flags.writeable
    assert row.tolist() == [1 if total >= 0 else -1 for total in sums]
    for x in range(vote.size):
        assert vote.label_of(x) == vote.label_row[x]
        assert type(vote.label_of(x)) is int
        assert voters[0].label_of(x) == rows[0][x]
    for bad in (vote.size, vote.size + 3, -1):
        with pytest.raises(StructuralError, match=f"point {bad} outside instance space of size {vote.size}"):
            vote.label_of(bad)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from((0, 1, 2, 2**39, 2**40 - 1, 2**40)), st.sampled_from((-1, 1))),
        min_size=1,
        max_size=30,
    )
)
def test_distinct_examples_match_the_reference_loop(pairs):
    sample = Sample.from_pairs(pairs)
    positions: dict[tuple[int, int], list[int]] = {}
    for i, pair in enumerate(pairs):
        positions.setdefault(pair, []).append(i)
    distinct = sample.distinct
    assert distinct.positions == tuple(map(tuple, positions.values()))
    assert distinct.points.tolist() == [point for point, _ in positions]
    assert distinct.labels.tolist() == [label for _, label in positions]
    assert distinct.points.dtype == np.intp and distinct.labels.dtype == np.int8
    assert not (distinct.points.flags.writeable or distinct.labels.flags.writeable)


def test_labels_follow_the_integer_contract():
    # a bool or float equal to +1 or -1 is refused wherever a label is read;
    # numpy integers stay accepted and are stored as ints
    for bad in (True, 1.0):
        with pytest.raises(StructuralError, match=rf"^label must be \+1 or -1, got {bad!r}$"):
            LabeledExample(0, bad)
    with pytest.raises(StructuralError, match=r"^label must be \+1 or -1, got True$"):
        Hypothesis((True, -1))
    with pytest.raises(StructuralError, match=r"^label must be \+1 or -1, got True$"):
        Sample.from_pairs([(0, True)])
    # numpy stacks a bool among ints as an int, so from_rows looks at the label types
    for rows, bad in (([[1.0, -1.0]], 1.0), ([[True, True]], True), ([[1, -1], [-1, True]], True)):
        with pytest.raises(StructuralError, match=rf"^label must be \+1 or -1, got {bad!r}$"):
            HypothesisFamily.from_rows(rows)
    for matrix in (np.array([[1.0, -1.0]]), np.array([[True, True]])):
        message = f"^family label matrix must hold integers, got dtype {matrix.dtype}$"
        with pytest.raises(StructuralError, match=message):
            HypothesisFamily(matrix)
    example = LabeledExample(np.int64(0), np.int8(-1))
    assert (example.point, example.label) == (0, -1) and type(example.label) is int
    assert Hypothesis((np.int8(1), -1)).labels == (1, -1)
    assert HypothesisFamily.from_rows([[np.int8(1), -1], [-1, np.int64(-1)]]).matrix.tolist() == [[1, -1], [-1, -1]]


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


@pytest.mark.parametrize(
    "p", [float("nan"), 0.5, np.float64(0.5), 1, True], ids=["nan", "0.5", "np.float64", "1", "True"]
)
def test_distribution_refuses_a_non_fraction_probability(p):
    # refused alone, where 1 and True would sum to 1, and beside a Fraction that completes the sum
    e0, e1 = LabeledExample(0, 1), LabeledExample(1, 1)
    message = rf"^atom probability must be a Fraction, got {re.escape(repr(p))}$"
    for atoms in (((e0, p),), ((e0, Fraction(1, 2)), (e1, p))):
        with pytest.raises(StructuralError, match=message):
            FiniteDistribution(atoms)


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
def _maps_and_points(draw):
    """A perturbation map on at most 8 points and points of it, repeats and any order allowed."""
    n = draw(st.integers(min_value=1, max_value=8))
    point = st.integers(min_value=0, max_value=n - 1)
    sets = draw(st.lists(st.lists(point, min_size=1, max_size=n), min_size=n, max_size=n))
    return PerturbationMap(tuple(map(tuple, sets))), draw(st.lists(point, max_size=12))


@settings(max_examples=200, deadline=None)
@given(_maps_and_points())
def test_balls_matches_the_per_point_concatenation(case):
    perturbations, points = case
    for given_points in (points, np.asarray(points, dtype=np.intp)):
        members, begins = perturbations.balls(given_points)
        assert members.tolist() == [z for x in points for z in perturbations.sets[x]]
        sizes = [len(perturbations.sets[x]) for x in points]
        assert begins.tolist() == [sum(sizes[:i]) for i in range(len(points))]


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

    The weights are small-denominator Fractions or dyadic ones drawn as the
    bound check draws them (`experiments._exact_dirichlet`).
    """
    size = draw(st.integers(min_value=1, max_value=5))
    point = st.integers(min_value=0, max_value=size - 1)
    balls = draw(st.lists(st.lists(point, min_size=1, max_size=size), min_size=size, max_size=size))
    pair = st.tuples(point, st.sampled_from((-1, 1)))
    keys = draw(st.lists(pair, min_size=1, max_size=2 * size, unique=True))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=len(keys), max_size=len(keys)))
        probs = [Fraction(w, sum(weights)) for w in weights]
    else:
        probs = _exact_dirichlet(len(keys), rng_stream(draw(st.integers(0, 2**32))))
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
    expected = Fraction(0)
    for example, p in dist.atoms:
        if robust_loss(predictor, example, perturbations):
            expected += p
    risk = population_robust_risk(predictor, dist, perturbations)
    assert type(risk) is type(expected) and risk == expected


def _whole_space_population_risk(predictor, dist, perturbations):
    """The one-row-table reference: the predictor's table over the whole space, read at the atoms."""
    table = RobustTable.build(predictor.label_row[np.newaxis, :], perturbations)
    points, labels, _ = dist._columns
    lost = table.loss_at(points, labels)[0].tolist()
    return sum((p for (_, p), loss in zip(dist.atoms, lost) if loss), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(_maps_and_points(), st.data())
def test_robust_loss_and_empirical_risk_match_the_one_row_table(case, data):
    perturbations, points = case
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from((-1, 1))] * perturbations.size), min_size=1, max_size=3))
    voters = tuple(map(Hypothesis, rows))
    labels = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(points), max_size=len(points)))
    for predictor in (voters[0], MajorityVotePredictor(voters)):
        table = RobustTable.build(predictor.label_row[np.newaxis, :], perturbations)
        expected = table.loss_at(np.asarray(points, dtype=np.intp), np.asarray(labels))[0].tolist()
        for x, y, lost in zip(points, labels, expected):
            assert lost == any(predictor.label_row[z] != y for z in perturbations.sets[x])
            assert robust_loss(predictor, LabeledExample(x, y), perturbations) == lost
        if points:
            sample = Sample.from_pairs(zip(points, labels))
            risk = empirical_robust_risk(predictor, sample, perturbations)
            assert risk == Fraction(sum(expected), len(points))


@settings(max_examples=150, deadline=None)
@given(distribution_cases(), st.data())
def test_population_risk_matches_the_whole_space_table_across_maps(case, data):
    first, predictor, dist = case
    size = first.size
    point = st.integers(min_value=0, max_value=size - 1)
    balls = data.draw(st.lists(st.lists(point, min_size=1, max_size=size), min_size=size, max_size=size))
    second = PerturbationMap(tuple(map(tuple, balls)))
    # alternating maps replaces the distribution's kept gather each time;
    # an equal map built anew reads the kept one
    for perturbations in (first, second, first, PerturbationMap(first.sets), second):
        risk = population_robust_risk(predictor, dist, perturbations)
        expected = _whole_space_population_risk(predictor, dist, perturbations)
        assert type(risk) is Fraction and risk == expected
    for wrong_size in (PerturbationMap.identity(size + 1), PerturbationMap.identity(size + 3)):
        with pytest.raises(StructuralError, match="^perturbation map and labels disagree on the instance space$"):
            population_robust_risk(predictor, dist, wrong_size)


def _same_risk(got, want) -> bool:
    """Equal Fractions."""
    return type(got) is type(want) is Fraction and got == want


def _dyadic_weighted(dist: FiniteDistribution, seed: int) -> FiniteDistribution:
    """The same atoms under random dyadic weights, drawn as the bound check draws them."""
    weights = _exact_dirichlet(len(dist), rng_stream(seed))
    return FiniteDistribution(tuple((e, w) for (e, _), w in zip(dist.atoms, weights)))


@pytest.mark.parametrize(
    "instance",
    [make_proper_failure(1), make_proper_failure(2), make_proper_failure(3), make_union_truncation([1, 2])],
    ids=["pf1", "pf2", "pf3", "union-1-2"],
)
def test_member_risks_equal_population_risk_of_every_member(instance):
    family, perturbations = instance.family, instance.perturbations
    dists = list(instance.distributions) + [_dyadic_weighted(instance.distributions[0], len(family))]
    for dist in dists:
        risks = dist._member_risks(family, perturbations)
        assert len(risks) == len(family)
        for h, risk in zip(family, risks):
            assert _same_risk(risk, population_robust_risk(h, dist, perturbations))
        assert dist._member_risks(family, perturbations) is risks  # kept


def test_member_risks_follow_the_family_and_map_they_are_asked_for():
    inst = make_proper_failure(2)
    family, u = inst.family, inst.perturbations
    reversed_family = HypothesisFamily(family.matrix[::-1])
    identity = PerturbationMap.identity(family.space_size)
    for dist in (inst.distributions[3], _dyadic_weighted(inst.distributions[3], 5)):
        # each new (family, map) replaces the kept risks; an equal family or map built anew reads them
        for f, v in [
            (family, u), (reversed_family, u), (family, identity), (family, u),
            (HypothesisFamily(family.matrix, name=family.name), PerturbationMap(u.sets)),
        ]:
            risks = dist._member_risks(f, v)
            assert all(_same_risk(r, population_robust_risk(h, dist, v)) for h, r in zip(f, risks))
        assert dist._member_risks(reversed_family, u) != dist._member_risks(family, u)


def test_atom_losses_are_the_one_read_only_table_the_member_risks_sum(monkeypatch):
    inst = make_proper_failure(2)
    family, u = inst.family, inst.perturbations
    reversed_family = HypothesisFamily(family.matrix[::-1])
    identity = PerturbationMap.identity(family.space_size)
    real = RobustTable.loss_at
    calls = []

    def counted(table, points, labels):
        calls.append(table)
        return real(table, points, labels)

    monkeypatch.setattr(RobustTable, "loss_at", counted)
    dist = FiniteDistribution(inst.distributions[3].atoms)  # a fresh distribution keeps nothing yet
    points, labels, _ = dist._columns
    tables = []
    # each new (family, map) replaces the kept table; asked in either order, the
    # table and the risks summed from it cost one loss_at between them
    for f, v, risks_first in [
        (family, u, True), (reversed_family, u, False), (family, identity, True), (family, u, False),
    ]:
        before = len(calls)
        if risks_first:
            risks = dist._member_risks(f, v)
        table = dist._atom_losses(f, v)
        if not risks_first:
            risks = dist._member_risks(f, v)
        assert len(calls) == before + 1
        assert dist._atom_losses(f, v) is table and dist._member_risks(f, v) is risks
        assert len(calls) == before + 1
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = not table[0, 0]
        np.testing.assert_array_equal(table, real(f.robust_table(v), points, labels))
        assert risks == tuple(Fraction(int(row.sum()), len(dist)) for row in table)  # uniform atoms
        tables.append(table)
    first, reordered, _, again = tables
    assert again is not first and np.array_equal(again, first)  # rebuilt after the pair changed
    assert not np.array_equal(reordered, first)


@dataclass(frozen=True)
class _Owner:
    """A frozen owner of kept values."""


def test_kept_builds_once_per_key_and_replaces_on_a_new_key():
    owner, builds = _Owner(), []

    def build():
        builds.append(None)
        return object()

    key = (PerturbationMap.identity(2), 1)
    first = _kept(owner, "_slot", key, build)
    assert _kept(owner, "_slot", key, build) is first  # the same key
    assert _kept(owner, "_slot", (PerturbationMap.identity(2), 1), build) is first  # equal, distinct parts
    assert len(builds) == 1
    second = _kept(owner, "_slot", (PerturbationMap.identity(3), 1), build)
    assert second is not first and len(builds) == 2
    assert _kept(owner, "_slot", (PerturbationMap.identity(3), 1), build) is second
    assert _kept(owner, "_slot", key, build) not in (first, second)  # one slot: the first was replaced
    assert len(builds) == 3
    nan = float("nan")  # a part is matched by identity before equality
    assert _kept(owner, "_nan", (nan,), build) is _kept(owner, "_nan", (nan,), build)
    assert len(builds) == 4
    assert _kept(owner, "_once", (), lambda: 7) == 7
    assert _kept(owner, "_once", (), lambda: pytest.fail("built twice")) == 7
