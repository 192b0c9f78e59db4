from __future__ import annotations

import math
from fractions import Fraction

import pytest

from robustpac.constructions import (
    make_agnostic_lower_bound,
    make_lower_bound_family,
    make_pair_gap,
    make_proper_failure,
    make_union_truncation,
    make_vc_blowup,
)
from robustpac.core import (
    ContractError,
    LabeledExample,
    population_robust_risk,
    robust_loss,
)
from robustpac.dimensions import (
    DimensionWitness,
    disjoint_robust_shattering_dim,
    robust_shattering_dim,
    vc,
    verify_witness,
)


def test_blowup_shape_and_counts():
    for m in (1, 2, 3):
        inst = make_vc_blowup(m)
        assert inst.space.size == m + m * 2 ** (m - 1)
        assert len(inst.family) == 2 ** m
        # anchor sets are mutually disjoint
        anchors = inst.anchors["anchors"]
        for i in anchors:
            for j in anchors:
                if i < j:
                    assert not set(inst.perturbations[i]) & set(inst.perturbations[j])


def test_blowup_m1_has_two_members_and_loss_dimension_one():
    inst = make_vc_blowup(1)
    assert len(inst.family) == 2
    pairs = ((0, 1),)
    assert verify_witness(inst.family, DimensionWitness("loss_vc", len(pairs), pairs), inst.perturbations)


def test_blowup_vc_at_most_one_and_loss_class_shatters_anchors():
    for m in (1, 2, 3, 4):
        inst = make_vc_blowup(m)
        assert vc(inst.family).value <= 1
        anchors = tuple((x, 1) for x in inst.anchors["anchors"])
        assert verify_witness(inst.family, DimensionWitness("loss_vc", len(anchors), anchors), inst.perturbations)


def test_blowup_cap_is_enforced():
    with pytest.raises(ContractError):
        make_vc_blowup(9)
    with pytest.raises(ContractError):
        make_vc_blowup(0)


def test_proper_failure_family_size_and_wrongness():
    for m in (1, 2):
        inst = make_proper_failure(m)
        assert len(inst.family) == math.comb(3 * m, m)
        anchors = inst.anchors["anchors"]
        for h in inst.family:
            wrong = sum(
                robust_loss(h, LabeledExample(x, 1), inst.perturbations) for x in anchors
            )
            assert wrong == m


def test_proper_failure_distributions_each_have_a_zero_risk_member():
    inst = make_proper_failure(2)
    assert len(inst.distributions) == math.comb(6, 4)
    for dist in inst.distributions:
        risks = [population_robust_risk(h, dist, inst.perturbations) for h in inst.family]
        assert min(risks) == 0
        # and it is unique: the member wrong exactly on the excluded anchors
        assert risks.count(0) == 1


def test_union_single_block_matches_proper_failure():
    single = make_union_truncation([2])
    direct = make_proper_failure(2)
    assert single.space == direct.space
    assert single.perturbations == direct.perturbations
    assert [h.labels for h in single.family] == [h.labels for h in direct.family]
    assert single.distributions == direct.distributions


def test_union_two_blocks_keeps_vc_at_one():
    inst = make_union_truncation([1, 2])
    assert vc(inst.family).value <= 1


def test_union_members_fail_robustly_on_foreign_anchors():
    inst = make_union_truncation([1, 2])
    sizes = inst.metadata["block_sizes"]
    offsets = inst.metadata["block_offsets"]
    block_anchor_sets = []
    for m, off in zip(sizes, offsets):
        block_anchor_sets.append([off + i for i in range(3 * m)])
    counts = [math.comb(3 * m, m) for m in sizes]
    member = 0
    for j, count in enumerate(counts):
        for _ in range(count):
            h = inst.family[member]
            for jj, anchors in enumerate(block_anchor_sets):
                for x in anchors:
                    loss = robust_loss(h, LabeledExample(x, 1), inst.perturbations)
                    if jj != j:
                        assert loss == 1
            member += 1


def test_pair_gap_dimensions_and_disjointness():
    for p in (1, 2, 3):
        inst = make_pair_gap(p)
        assert disjoint_robust_shattering_dim(inst.family, inst.perturbations).value == 0
        assert robust_shattering_dim(inst.family, inst.perturbations).value == p
        assert vc(inst.family).value == p
        # pairs are mutually disjoint; within a pair the sets share exactly u_i
        for i in range(p):
            a, u, c = 3 * i, 3 * i + 1, 3 * i + 2
            assert set(inst.perturbations[a]) & set(inst.perturbations[c]) == {u}
            for j in range(i + 1, p):
                for x in (3 * i, 3 * i + 2):
                    for z in (3 * j, 3 * j + 2):
                        assert not set(inst.perturbations[x]) & set(inst.perturbations[z])


def test_generators_are_deterministic():
    assert make_vc_blowup(3) == make_vc_blowup(3)
    assert make_pair_gap(4) == make_pair_gap(4)
    assert make_lower_bound_family(3, Fraction(1, 10)) == make_lower_bound_family(3, Fraction(1, 10))


def test_lower_bound_masses_are_exact():
    inst = make_lower_bound_family(4, Fraction(1, 16))
    for dist in inst.distributions:
        assert sum(p for _, p in dist.atoms) == 1
        assert len(dist) == 4


def test_lower_bound_designated_member_has_zero_risk():
    d = 3
    inst = make_lower_bound_family(d, Fraction(1, 10))
    for code, dist in enumerate(inst.distributions):
        assert population_robust_risk(inst.family[code], dist, inst.perturbations) == 0


def test_lower_bound_parameter_ranges():
    with pytest.raises(ContractError):
        make_lower_bound_family(1, Fraction(1, 10))
    with pytest.raises(ContractError):
        make_lower_bound_family(3, Fraction(1, 8))
    with pytest.raises(ContractError):
        make_agnostic_lower_bound(3, 1)


def test_agnostic_lower_bound_best_risk_is_half_one_minus_alpha():
    d, alpha = 3, Fraction(1, 2)
    inst = make_agnostic_lower_bound(d, alpha)
    for dist in inst.distributions:
        assert sum(p for _, p in dist.atoms) == 1
        risks = [population_robust_risk(h, dist, inst.perturbations) for h in inst.family]
        assert min(risks) == (1 - alpha) / 2
