"""Differential tests: every reader of the robust-loss table against a naive per-ball scan.

The references below walk each perturbation set point by point, which is
how the robust loss sup_{z in U(x)} 1[h(z) != y] reads on paper.  Balls are
drawn freely, so a point need not lie in its own set and set sizes vary.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustpac.agnostic import max_realizable_subsequence
from robustpac.core import (
    FiniteDistribution,
    HypothesisFamily,
    LabeledExample,
    MajorityVotePredictor,
    PerturbationMap,
    Sample,
    StructuralError,
    empirical_robust_risk,
    population_robust_risk,
    robust_loss,
)
from robustpac.dimensions import _slot_table, _structural_bound, restriction_count
from robustpac.learner import _first_dead_example, inflate, learn_realizable_report
from robustpac.oracles import rerm
from robustpac.prng import rng_stream

SIGNS = st.sampled_from((-1, 1))


@st.composite
def instances(draw):
    """(family, perturbations, sample) on at most 6 points and 8 members."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.tuples(*[SIGNS] * n), min_size=1, max_size=8, unique=True))
    point = st.integers(min_value=0, max_value=n - 1)
    balls = draw(st.lists(st.lists(point, min_size=1, max_size=n), min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(point, SIGNS), min_size=1, max_size=10))
    return HypothesisFamily.from_rows(rows), PerturbationMap(tuple(map(tuple, balls))), Sample.from_pairs(pairs)


def naive_label(predictor, z: int) -> int:
    if isinstance(predictor, MajorityVotePredictor):
        return +1 if sum(v.labels[z] for v in predictor.voters) >= 0 else -1
    return predictor.labels[z]


def naive_loss(predictor, perturbations: PerturbationMap, point: int, label: int) -> int:
    return int(any(naive_label(predictor, z) != label for z in perturbations.sets[point]))


def naive_constant(h, perturbations: PerturbationMap, point: int, label: int) -> bool:
    return all(h.labels[z] == label for z in perturbations.sets[point])


def predictors(family: HypothesisFamily, data):
    """A family member and a majority vote over members (repeats allowed, ties possible)."""
    member = family[data.draw(st.integers(0, len(family) - 1))]
    picks = data.draw(st.lists(st.integers(0, len(family) - 1), min_size=1, max_size=6))
    return member, MajorityVotePredictor(tuple(family[i] for i in picks))


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_losses_and_risks_match_the_per_ball_scan(case, data):
    family, perturbations, sample = case
    for predictor in predictors(family, data):
        losses = [naive_loss(predictor, perturbations, e.point, e.label) for e in sample]
        for e, expected in zip(sample, losses):
            assert robust_loss(predictor, e, perturbations) == expected
        assert empirical_robust_risk(predictor, sample, perturbations) == Fraction(sum(losses), len(sample))

        keys = sorted({(e.point, e.label) for e in sample})
        weights = data.draw(st.lists(st.integers(1, 9), min_size=len(keys), max_size=len(keys)))
        total = sum(weights)
        dist = FiniteDistribution(
            tuple((LabeledExample(p, y), Fraction(w, total)) for (p, y), w in zip(keys, weights))
        )
        expected = Fraction(0)
        for e, p in dist.atoms:
            if naive_loss(predictor, perturbations, e.point, e.label):
                expected += p
        got = population_robust_risk(predictor, dist, perturbations)
        assert type(got) is Fraction and got == expected


def test_exact_vote_ties_resolve_to_plus_one():
    family = HypothesisFamily.from_rows([(1, 1, -1), (-1, 1, 1)])
    vote = MajorityVotePredictor(tuple(family))
    u = PerturbationMap(((0,), (0, 1), (2,)))
    assert [robust_loss(vote, LabeledExample(x, 1), u) for x in range(3)] == [0, 0, 0]
    assert [robust_loss(vote, LabeledExample(x, -1), u) for x in range(3)] == [1, 1, 1]


@settings(max_examples=150, deadline=None)
@given(instances())
def test_oracle_and_learner_reads_match_the_per_ball_scan(case):
    family, perturbations, sample = case
    counts = [
        sum(naive_loss(h, perturbations, e.point, e.label) for e in sample) for h in family
    ]
    result = rerm(family, sample, perturbations)
    assert result.risk == Fraction(min(counts), len(sample))
    assert result.hypothesis_index == counts.index(min(counts))

    alive = set(range(len(family)))
    expected = None
    for i, e in enumerate(sample):
        alive = {h for h in alive if naive_constant(family[h], perturbations, e.point, e.label)}
        if not alive:
            expected = i
            break
    distinct = sample.distinct  # the check names a distinct example; its first position is the answer
    dead = _first_dead_example(family.robust_table(perturbations).loss_at(distinct.points, distinct.labels))
    assert (dead if dead is None else distinct.positions[dead][0]) == expected


@settings(max_examples=150, deadline=None)
@given(instances())
def test_core_extraction_matches_the_per_ball_scan(case):
    family, perturbations, sample = case
    covered = [
        [j for j, e in enumerate(sample) if naive_constant(h, perturbations, e.point, e.label)]
        for h in family
    ]
    best = max(covered, key=len)  # max() keeps the first, i.e. lowest-index, maximizer
    assert max_realizable_subsequence(family, sample, perturbations) == tuple(best)


def _mask(bits) -> int:
    return sum(1 << i for i, b in enumerate(bits) if b)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_dimension_tables_match_the_per_ball_scan(case):
    family, perturbations, _ = case
    # loss_vc slot (x, y): + is robust loss 1 there, - is robust loss 0
    loss, no_loss, domain = _slot_table("loss_vc", family, perturbations)
    assert domain == [(x, y) for x in range(perturbations.size) for y in (-1, 1)]
    for j, (x, y) in enumerate(domain):
        assert loss[j] == _mask(naive_loss(h, perturbations, x, y) for h in family)
        assert no_loss[j] == _mask(not naive_loss(h, perturbations, x, y) for h in family)

    const_plus, const_minus, points = _slot_table("disjoint_robust", family, perturbations)
    assert points == list(range(perturbations.size))
    for x in points:
        assert const_plus[x] == _mask(naive_constant(h, perturbations, x, +1) for h in family)
        assert const_minus[x] == _mask(naive_constant(h, perturbations, x, -1) for h in family)

    # robust slots: (z_plus, z_minus) with meeting balls and both sides realized, x the least common point
    plus, minus, triples = _slot_table("robust", family, perturbations)
    expected = [
        (min(set(perturbations[zp]) & set(perturbations[zm])), zp, zm)
        for zp in points
        for zm in points
        if set(perturbations[zp]) & set(perturbations[zm])
        and any(naive_constant(h, perturbations, zp, +1) for h in family)
        and any(naive_constant(h, perturbations, zm, -1) for h in family)
    ]
    assert triples == expected
    assert plus == [_mask(naive_constant(h, perturbations, zp, +1) for h in family) for _, zp, _ in triples]
    assert minus == [_mask(naive_constant(h, perturbations, zm, -1) for h in family) for _, _, zm in triples]


@settings(max_examples=150, deadline=None)
@given(instances())
def test_loss_class_bound_counts_the_distinct_loss_rows(case):
    family, perturbations, _ = case
    rows = {
        tuple(naive_loss(h, perturbations, x, y) for x in range(perturbations.size) for y in (-1, 1))
        for h in family
    }
    assert _structural_bound("loss_vc", family, perturbations) == math.floor(math.log2(len(rows)))


def test_out_of_range_points_and_mismatched_maps_raise_structural_errors():
    family = HypothesisFamily.from_rows([(1, -1, 1), (1, 1, 1)])
    u = PerturbationMap(((0, 1), (1,), (2, 0)))
    vote = MajorityVotePredictor(tuple(family))
    outside = Sample.from_pairs([(0, 1), (3, 1)])
    for call in (
        lambda: robust_loss(family[0], LabeledExample(3, 1), u),
        lambda: empirical_robust_risk(vote, outside, u),
        lambda: rerm(family, outside, u),
        lambda: learn_realizable_report(family, outside, u, rng=rng_stream(0)),
        lambda: max_realizable_subsequence(family, outside, u),
    ):
        with pytest.raises(StructuralError, match="point 3 outside instance space of size 3"):
            call()

    # every point lookup refuses -1 (where a caller can pass it) and n with one message
    table = family.robust_table(u)
    lookups = [
        lambda p: table.loss_at(np.array([0, p]), np.array([1, 1])),
        lambda p: vote.labels_at([0, p]),
        lambda p: vote.label_of(p),
        lambda p: family[0].label_of(p),
        lambda p: u[p],
        lambda p: u.balls([0, p]),
        lambda p: restriction_count(family, (0, p)),
    ]
    for point in (-1, 3, 2**70):  # numpy keeps 2**70 as a Python int in an object array
        for lookup in lookups:
            with pytest.raises(StructuralError, match=f"^point {point} outside instance space of size 3$"):
                lookup(point)
    # the first bad point is named, even when a later one is not an integer
    for lookup in (
        lambda ps: table.loss_at(np.array(ps), np.array([1, 1])),
        vote.labels_at,
        u.balls,
        lambda ps: restriction_count(family, tuple(ps)),
    ):
        with pytest.raises(StructuralError, match=f"^point {2**70} outside instance space of size 3$"):
            lookup([2**70, None])
    # inflate takes a Sample, whose examples refuse negative points themselves
    with pytest.raises(StructuralError, match="^point 3 outside instance space of size 3$"):
        inflate(outside, u)

    inside = Sample.from_pairs([(0, 1)])
    for wrong_size in (PerturbationMap.identity(2), PerturbationMap.identity(4)):
        for call in (
            lambda: empirical_robust_risk(family[0], inside, wrong_size),
            lambda: empirical_robust_risk(vote, inside, wrong_size),
            lambda: rerm(family, inside, wrong_size),
            lambda: _slot_table("loss_vc", family, wrong_size),
            lambda: _slot_table("disjoint_robust", family, wrong_size),
        ):
            with pytest.raises(StructuralError, match="disagree on the instance space"):
                call()


_FAMILY = HypothesisFamily.from_rows([(1, -1, 1), (1, 1, 1)])
_MAP = PerturbationMap(((0, 1), (1,), (2, 0)))
_VOTE = MajorityVotePredictor(tuple(_FAMILY))


@pytest.mark.parametrize("point", [1.7, True])
@pytest.mark.parametrize(
    "lookup",
    [
        lambda p: _FAMILY.robust_table(_MAP).loss_at(np.array([p]), np.array([1])),
        lambda p: _MAP.balls([p]),
        lambda p: _FAMILY[0].label_of(p),
        lambda p: _VOTE.label_of(p),
        lambda p: _VOTE.labels_at([p]),
        lambda p: _MAP[p],
        lambda p: restriction_count(_FAMILY, (p,)),
    ],
    ids=["loss_at", "balls", "Hypothesis.label_of", "MajorityVotePredictor.label_of",
         "labels_at", "PerturbationMap.__getitem__", "restriction_count"],
)
def test_point_lookups_refuse_float_and_bool_indices(lookup, point):
    # 1.7 would truncate to point 1 and True would read as point 1
    with pytest.raises(StructuralError, match=f"^point {point} is not an integer index$"):
        lookup(point)


def test_point_lookups_take_an_empty_list():
    # numpy reads [] as float64, which must not count as a float index
    assert _MAP.balls([])[0].size == 0
    assert _VOTE.labels_at([]).size == 0
    assert restriction_count(_FAMILY, ()) == 1
