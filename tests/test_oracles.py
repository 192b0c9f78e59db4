from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from robustpac.core import (
    HypothesisFamily,
    PerturbationMap,
    Sample,
    empirical_robust_risk,
)
from robustpac.oracles import rerm
from robustpac.constructions import make_proper_failure, make_vc_blowup
from robustpac.prng import rng_stream

from conftest import random_labeled_sample


def test_rerm_realizable_sample_reaches_zero():
    inst = make_proper_failure(1)
    sample = Sample(tuple(e for e, _ in inst.distributions[0].atoms))
    result = rerm(inst.family, sample, inst.perturbations)
    assert result.risk == 0


def test_rerm_full_cover_picks_the_complement_member():
    # covering all 2m support anchors forces the unique member whose
    # non-robust anchors avoid the support; verify by exhaustive scan
    inst = make_proper_failure(2)
    anchors = inst.anchors["anchors"]
    for support in list(combinations(anchors, 4))[:5]:
        sample = Sample.from_pairs([(x, 1) for x in support])
        result = rerm(inst.family, sample, inst.perturbations)
        assert result.risk == 0
        scan = [
            empirical_robust_risk(h, sample, inst.perturbations) for h in inst.family
        ]
        assert scan[result.hypothesis_index] == 0
        assert result.hypothesis_index == scan.index(min(scan))


def test_rerm_tie_breaks_to_lowest_index():
    family = HypothesisFamily.from_rows([(1, -1), (-1, 1)])
    sample = Sample.from_pairs([(0, -1), (1, -1)])
    result = rerm(family, sample, PerturbationMap.identity(2))
    assert result.hypothesis_index == 0
    assert result.risk == Fraction(1, 2)


def test_rerm_matches_independent_scan_on_random_instances():
    for seed in range(25):
        family, perturbations, sample = random_labeled_sample(seed)
        result = rerm(family, sample, perturbations)
        scan = [empirical_robust_risk(h, sample, perturbations) for h in family]
        best = min(scan)
        assert result.risk == best
        assert result.hypothesis_index == scan.index(best)
        assert all(result.risk <= r for r in scan)


def test_rerm_is_permutation_invariant():
    for seed in range(10):
        family, perturbations, sample = random_labeled_sample(seed)
        rng = rng_stream(seed, 77)
        perm = rng.permutation(len(sample))
        shuffled = Sample(tuple(sample[int(i)] for i in perm))
        a = rerm(family, sample, perturbations)
        b = rerm(family, shuffled, perturbations)
        assert a.risk == b.risk
        assert a.hypothesis_index == b.hypothesis_index


def test_robustly_consistent_present_and_absent():
    inst = make_vc_blowup(2)
    anchors_plus = Sample.from_pairs([(0, 1), (1, 1)])
    hit = rerm(inst.family, anchors_plus, inst.perturbations)
    # the all-plus member (code 0) is robustly right on every anchor
    assert hit.hypothesis_index == 0 and hit.risk == 0

    # (x, +1) and (x, -1) with x in U(x): nothing is robustly right on both
    family = HypothesisFamily.from_rows([(1, 1), (-1, -1)])
    sample = Sample.from_pairs([(0, 1), (0, -1)])
    assert rerm(family, sample, PerturbationMap.identity(2)).risk > 0


def test_consistency_scan_on_blowup_needs_the_all_zero_pattern():
    inst = make_vc_blowup(3)
    sample = Sample.from_pairs([(i, 1) for i in range(3)])
    hit = rerm(inst.family, sample, inst.perturbations)
    assert hit.hypothesis_index == 0 and hit.risk == 0  # the all-plus member, bit pattern zero

    # the weight-restricted variant drops that member, so nothing is consistent
    # on the full anchor set: every member is robustly wrong somewhere
    restricted = make_proper_failure(1)
    anchors = Sample.from_pairs([(i, 1) for i in restricted.anchors["anchors"]])
    assert rerm(restricted.family, anchors, restricted.perturbations).risk > 0
