from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustpac.core import (
    ContractError,
    HypothesisFamily,
    LabeledExample,
    PerturbationMap,
    StructuralError,
    robust_loss,
)
from robustpac.dimensions import (
    DimensionWitness,
    _distinct_slots,
    _floor_log2,
    _max_shattered,
    _run_search,
    disjoint_robust_shattering_dim,
    dual_vc,
    restriction_count,
    robust_shattering_dim,
    sauer_bound,
    vc,
    vc_of_robust_loss_family,
    verify_witness,
)
from robustpac.constructions import make_pair_gap, make_proper_failure, make_vc_blowup
from robustpac.prng import rng_stream

from conftest import random_family, random_perturbations


def brute_force_vc_of_table(rows: list[tuple[int, ...]]) -> int:
    """Independent oracle: exhaustive subset scan over a binary function table."""
    n = len(rows[0])
    best = 0
    for k in range(1, n + 1):
        hit = False
        for pts in combinations(range(n), k):
            patterns = {tuple(row[p] for p in pts) for row in rows}
            if len(patterns) == 2 ** k:
                hit = True
                break
        if not hit:
            break
        best = k
    return best


def test_full_cube_shatters_everything():
    family = HypothesisFamily.full_cube(3)
    w = vc(family)
    assert w.value == 3 and not w.capped
    assert verify_witness(family, w)


def test_two_constants_have_vc_one():
    family = HypothesisFamily.from_rows([(1, 1, 1), (-1, -1, -1)])
    w = vc(family)
    assert w.value == 1
    assert verify_witness(family, w)


def test_vc_matches_brute_force_on_random_families():
    for seed in range(30):
        rng = rng_stream(seed, 10)
        family = random_family(rng, int(rng.integers(2, 7)), 16)
        expected = brute_force_vc_of_table([h.labels for h in family])
        got = vc(family)
        assert got.value == expected
        assert not got.capped
        assert verify_witness(family, got)


def test_dual_vc_constant_singleton_is_zero():
    family = HypothesisFamily.from_rows([(1, 1, 1)])
    assert dual_vc(family).value == 0


def test_dual_vc_of_full_cube_on_four_points():
    # shattering k dual points needs 2^k distinct label columns among 4 coordinates
    family = HypothesisFamily.full_cube(4)
    w = dual_vc(family)
    assert w.value == 2
    assert verify_witness(family, w)


def test_dual_vc_matches_brute_force_on_transpose():
    for seed in range(20):
        rng = rng_stream(seed, 11)
        family = random_family(rng, int(rng.integers(2, 6)), 12)
        rows = [h.labels for h in family]
        transpose = [tuple(row[x] for row in rows) for x in range(family.space_size)]
        assert dual_vc(family).value == brute_force_vc_of_table(transpose)


def test_assouad_bound_holds():
    for seed in range(30):
        rng = rng_stream(seed, 12)
        family = random_family(rng, int(rng.integers(2, 8)), 32)
        assert dual_vc(family).value < 2 ** (vc(family).value + 1)


def check_loss_vc_against_direct_enumeration(family, perturbations):
    """Value and witness against the lexicographically first (x, y) combination scan."""
    domain = [(x, y) for x in range(perturbations.size) for y in (-1, 1)]
    table = [
        tuple(robust_loss(h, LabeledExample(x, y), perturbations) for x, y in domain)
        for h in family
    ]

    def shattered(pairs):
        columns = [domain.index(p) for p in pairs]
        return realizes_every_pattern(
            table, len(pairs), lambda row, i, sign: row[columns[i]] == (sign == 1)
        )

    expected = naive_first_shattered(domain, shattered)
    assert len(expected) == brute_force_vc_of_table(table)
    got = vc_of_robust_loss_family(family, perturbations)
    assert (got.value, got.witness, got.capped) == (len(expected), expected, False)
    assert verify_witness(family, got, perturbations)


def test_loss_vc_identity_adversary_matches_direct_enumeration():
    # every ball is a singleton, so (x, -1) and (x, +1) are mirror slots everywhere
    for seed in range(20):
        rng = rng_stream(seed, 13)
        n = int(rng.integers(2, 6))
        family = random_family(rng, n, 12)
        check_loss_vc_against_direct_enumeration(family, PerturbationMap.identity(n))


def test_loss_vc_random_adversary_matches_direct_enumeration():
    # at extra rate 0.1 most balls are singletons: mirror slots at some points only
    for stream, extra_rate in ((14, 0.25), (19, 0.1)):
        for seed in range(20):
            rng = rng_stream(seed, stream)
            n = int(rng.integers(2, 6))
            family = random_family(rng, n, 12)
            perturbations = random_perturbations(rng, n, extra_rate)
            check_loss_vc_against_direct_enumeration(family, perturbations)


def test_loss_vc_of_constant_family_is_zero():
    family = HypothesisFamily.from_rows([(1, 1, 1)])
    identity = PerturbationMap.identity(3)
    assert vc_of_robust_loss_family(family, identity).value == 0


def test_blowup_gap_between_vc_and_loss_vc():
    for m in (1, 2, 3, 4):
        inst = make_vc_blowup(m)
        assert vc(inst.family).value <= 1
        w = vc_of_robust_loss_family(inst.family, inst.perturbations)
        assert w.value >= m
        # the anchors with label +1 are the canonical shattered set
        anchors = tuple((x, 1) for x in inst.anchors["anchors"])
        assert verify_witness(inst.family, DimensionWitness("loss_vc", len(anchors), anchors), inst.perturbations)


def test_disjoint_robust_dim_equals_vc_under_identity():
    for seed in range(20):
        rng = rng_stream(seed, 15)
        family = random_family(rng, int(rng.integers(2, 7)), 16)
        identity = PerturbationMap.identity(family.space_size)
        assert disjoint_robust_shattering_dim(family, identity).value == vc(family).value


def test_all_powerful_adversary_with_both_constants():
    family = HypothesisFamily.from_rows([(1, 1, 1), (-1, -1, -1), (1, -1, 1)])
    whole = PerturbationMap(tuple(tuple(range(3)) for _ in range(3)))
    # a single point takes both labels via the constants; two cannot mix
    assert disjoint_robust_shattering_dim(family, whole).value == 1


def test_robust_dim_equals_vc_under_identity():
    for seed in range(20):
        rng = rng_stream(seed, 16)
        family = random_family(rng, int(rng.integers(2, 7)), 16)
        identity = PerturbationMap.identity(family.space_size)
        assert robust_shattering_dim(family, identity).value == vc(family).value


def test_pair_gap_dimension_split():
    for p in (1, 2, 3):
        inst = make_pair_gap(p)
        assert disjoint_robust_shattering_dim(inst.family, inst.perturbations).value == 0
        w = robust_shattering_dim(inst.family, inst.perturbations)
        assert w.value == p
        assert verify_witness(inst.family, w, inst.perturbations)
        # the shattered points are exactly the per-pair intersection points
        assert tuple(t[0] for t in w.witness) == inst.anchors["shattered"]


def test_dimension_sandwich_on_random_instances():
    for seed in range(40):
        rng = rng_stream(seed, 17)
        n = int(rng.integers(2, 8))
        family = random_family(rng, n, 24)
        perturbations = random_perturbations(rng, n, self_contained=False)
        lo = disjoint_robust_shattering_dim(family, perturbations).value
        mid = robust_shattering_dim(family, perturbations).value
        hi = vc(family).value
        assert lo <= mid <= hi


def test_sauer_counting_on_random_families():
    for seed in range(20):
        rng = rng_stream(seed, 18)
        n = int(rng.integers(3, 8))
        family = random_family(rng, n, 32)
        d = vc(family).value
        for k in range(1, n + 1):
            pts = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
            assert restriction_count(family, pts) <= sauer_bound(k, d)


def test_capped_search_reports_a_lower_bound():
    family = HypothesisFamily.full_cube(5)
    w = vc(family, cap=3)
    assert w.value == 3 and w.capped
    assert verify_witness(family, w)


def test_a_negative_cap_is_a_contract_error_and_cap_zero_is_capped():
    family, perturbations = HypothesisFamily.full_cube(3), PerturbationMap.identity(3)
    searches = (
        lambda cap: vc(family, cap=cap),
        lambda cap: dual_vc(family, cap=cap),
        lambda cap: vc_of_robust_loss_family(family, perturbations, cap=cap),
        lambda cap: disjoint_robust_shattering_dim(family, perturbations, cap=cap),
        lambda cap: robust_shattering_dim(family, perturbations, cap=cap),
    )
    for search in searches:
        with pytest.raises(ContractError, match="cap must be >= 0"):
            search(-1)
        w = search(0)
        assert (w.value, w.witness, w.capped) == (0, (), True)


def test_distinct_slots_drops_later_copies_and_mirrors():
    plus = [0b001, 0b110, 0b001, 0b011, 0b110, 0b000, 0b100, 0b100]
    minus = [0b110, 0b001, 0b110, 0b100, 0b001, 0b111, 0b011, 0b010]
    # 1 and 4 mirror 0, 2 copies 0, 5 has an empty side, 6 mirrors 3
    assert _distinct_slots(plus, minus) == ([(0b001, 0b110), (0b011, 0b100), (0b100, 0b010)], [0, 3, 7])


def test_every_witness_replays(tmp_path):
    inst = make_pair_gap(2)
    for w in (
        vc(inst.family),
        dual_vc(inst.family),
        vc_of_robust_loss_family(inst.family, inst.perturbations),
        disjoint_robust_shattering_dim(inst.family, inst.perturbations),
        robust_shattering_dim(inst.family, inst.perturbations),
    ):
        assert verify_witness(inst.family, w, inst.perturbations)


# Two members on three points.  Only point 2 takes both signs, and only member 1
# takes both signs in the dual, so a wrapped index -1 would name a shattered slot.
TWO = HypothesisFamily.from_rows([(1, 1, 1), (1, 1, -1)])
IDENTITY3 = PerturbationMap.identity(3)


def test_vc_witness_outside_the_space_fails():
    assert verify_witness(TWO, DimensionWitness("vc", 1, (2,)))
    for point in (-1, 3):
        assert not verify_witness(TWO, DimensionWitness("vc", 1, (point,)))


def test_dual_vc_witness_outside_the_family_fails():
    assert verify_witness(TWO, DimensionWitness("dual_vc", 1, (1,)))
    for member in (-1, 2):
        assert not verify_witness(TWO, DimensionWitness("dual_vc", 1, (member,)))


def test_loss_vc_witness_outside_the_domain_fails():
    assert verify_witness(TWO, DimensionWitness("loss_vc", 1, ((2, 1),)), IDENTITY3)
    for pair in ((3, 1), (-1, 1), (2, 0), (2, 2)):
        assert not verify_witness(TWO, DimensionWitness("loss_vc", 1, (pair,)), IDENTITY3)


def test_disjoint_robust_witness_outside_the_space_fails():
    assert verify_witness(TWO, DimensionWitness("disjoint_robust", 1, (2,)), IDENTITY3)
    for point in (-1, 3):
        assert not verify_witness(TWO, DimensionWitness("disjoint_robust", 1, (point,)), IDENTITY3)


def test_robust_witness_outside_the_space_fails():
    assert verify_witness(TWO, DimensionWitness("robust", 1, ((2, 2, 2),)), IDENTITY3)
    for triple in ((2, -1, 2), (2, 2, -1), (2, 3, 2), (-1, 2, 2), (1, 2, 2)):
        assert not verify_witness(TWO, DimensionWitness("robust", 1, (triple,)), IDENTITY3)


def test_witness_descriptors_of_the_wrong_shape_fail():
    # a bool or float is not an index, even where it equals one that replays,
    # and a descriptor of the wrong shape fails rather than raises
    gap = make_pair_gap(2)
    cases = [
        (gap, "vc", (1,), [(True,), (1.0,), (np.float64(1),), ((1,),)]),
        (gap, "dual_vc", (1,), [(True,), (1.0,), ((1,),)]),
        (gap, "loss_vc", ((0, 1), (3, 1)), [([0, 1], [3, 1]), ((0, True), (3, 1)), ((0.0, 1), (3, 1)), ((0, 1, 0), (3, 1)), (0, 3)]),
        (gap, "robust", ((1, 0, 2),), [((True, 0, 2),), ((1.0, 0, 2),), ((0, 2),), (5,), ([1, 0, 2],)]),
        (None, "disjoint_robust", (2,), [(2.0,), (np.float64(2),), ((2,),)]),
    ]
    for inst, kind, good, bad in cases:
        family, perturbations = (TWO, IDENTITY3) if inst is None else (inst.family, inst.perturbations)
        assert verify_witness(family, DimensionWitness(kind, len(good), good), perturbations), kind
        numpy_good = tuple(np.int64(d) if isinstance(d, int) else tuple(map(np.int64, d)) for d in good)
        assert verify_witness(family, DimensionWitness(kind, len(good), numpy_good), perturbations), kind
        for entries in bad:
            assert not verify_witness(family, DimensionWitness(kind, len(entries), entries), perturbations), entries


def test_verify_witness_checks_length_then_map_then_kind():
    for kind in ("vc", "loss_vc", "robust", "no_such_kind"):
        assert not verify_witness(TWO, DimensionWitness(kind, 2, (0,)))
    for kind in ("loss_vc", "disjoint_robust", "robust", "no_such_kind"):
        with pytest.raises(StructuralError, match="needs the perturbation map"):
            verify_witness(TWO, DimensionWitness(kind, 1, (0,)))
    with pytest.raises(StructuralError, match="unknown witness kind 'no_such_kind'"):
        verify_witness(TWO, DimensionWitness("no_such_kind", 1, (0,)), IDENTITY3)


def test_restriction_count_rejects_points_outside_the_space():
    assert restriction_count(TWO, (0, 2)) == 2
    for point in (-1, 3):
        with pytest.raises(StructuralError, match=f"point {point} outside instance space of size 3"):
            restriction_count(TWO, (0, point))


# --- differential tests against naive subset scans ---------------------------


def naive_first_shattered(items, shattered, limit=None) -> tuple:
    """Lexicographically first shattered combination of the largest size (at most `limit`).

    Scans sizes upward through `itertools.combinations`; shattering is
    hereditary, so the first size with no shattered combination ends the scan.
    """
    best: tuple = ()
    for k in range(1, len(items) + 1):
        if limit is not None and k > limit:
            break
        hit = next((c for c in combinations(items, k) if shattered(c)), None)
        if hit is None:
            break
        best = hit
    return best


def realizes_every_pattern(members, k: int, takes) -> bool:
    """Every sign pattern over k slots has a member h with takes(h, i, sign) for all i."""
    return all(
        any(all(takes(h, i, sign) for i, sign in enumerate(pattern)) for h in members)
        for pattern in product((1, -1), repeat=k)
    )


SLOT_SIDE = st.sampled_from((1, -1, 0))


@st.composite
def slot_lists(draw, min_universe: int = 1, max_universe: int = 8, max_slots: int = 7):
    """Slots over a universe of min..max_universe members; each member is +, - or absent per slot."""
    universe = draw(st.integers(min_value=min_universe, max_value=max_universe))
    sides = draw(
        st.lists(st.lists(SLOT_SIDE, min_size=universe, max_size=universe), max_size=max_slots)
    )
    slots = [
        (
            sum(1 << h for h, side in enumerate(row) if side == 1),
            sum(1 << h for h, side in enumerate(row) if side == -1),
        )
        for row in sides
    ]
    return universe, slots


def slot_shattering(universe: int, slots):
    """Naive test of whether members 0..universe-1 shatter the slots at the given indices."""
    return lambda chosen: realizes_every_pattern(
        range(universe),
        len(chosen),
        lambda h, i, sign: (slots[chosen[i]][0 if sign == 1 else 1] >> h) & 1,
    )


def check_max_shattered_against_naive_scan(universe: int, slots, limit: int) -> None:
    shattered = slot_shattering(universe, slots)

    items = range(len(slots))
    expected = naive_first_shattered(items, shattered, limit)
    assert _max_shattered(slots, limit) == (len(expected), expected)

    # `_run_search` with cap = limit: exact unless capped, and capped only at the ceiling.
    full = len(naive_first_shattered(items, shattered))
    hard = min(_floor_log2(universe), len(slots))
    ceiling = min(limit, hard)
    w = _run_search("t", slots, list(items), limit, _floor_log2(universe))
    assert w.value == min(full, ceiling)
    assert w.capped == (w.value == ceiling and ceiling < hard)
    assert w.capped or w.value == full


@settings(max_examples=300, deadline=None)
@given(slot_lists(), st.integers(min_value=0, max_value=8))
def test_max_shattered_matches_naive_combination_scan(inputs, limit):
    check_max_shattered_against_naive_scan(*inputs, limit)


@settings(max_examples=100, deadline=None)
@given(slot_lists(min_universe=60, max_universe=70, max_slots=6), st.integers(min_value=0, max_value=8))
def test_max_shattered_matches_naive_combination_scan_past_64_members(inputs, limit):
    # masks of more than one machine word, and cells wide enough for the bit-counted cut
    check_max_shattered_against_naive_scan(*inputs, limit)


@st.composite
def slot_lists_with_echoes(draw):
    """`slot_lists` plus copies and mirrors of its slots planted at later positions."""
    universe, slots = draw(slot_lists())
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if not slots:
            break
        i = draw(st.integers(min_value=0, max_value=len(slots) - 1))
        plus, minus = slots[i]
        echo = draw(st.sampled_from(((plus, minus), (minus, plus))))
        slots.insert(draw(st.integers(min_value=i + 1, max_value=len(slots))), echo)
    return universe, slots


@settings(max_examples=300, deadline=None)
@given(slot_lists_with_echoes(), st.integers(min_value=0, max_value=8))
def test_dropping_copies_and_mirrors_keeps_the_first_witness(inputs, limit):
    universe, slots = inputs
    shattered = slot_shattering(universe, slots)

    reduced, reps = _distinct_slots([p for p, _ in slots], [m for _, m in slots])
    value, chosen = _max_shattered(reduced, limit)
    mapped = tuple(reps[j] for j in chosen)
    assert (value, mapped) == _max_shattered(slots, limit)
    assert mapped == naive_first_shattered(range(len(slots)), shattered, limit)


def reference_max_shattered(slots, limit):
    """`_max_shattered` as it stood with one `fits` call per candidate, frozen as a reference."""
    if limit <= 0 or not slots:
        return 0, ()
    best_value = 0
    best_choice = ()

    def fits(cells, plus, minus, need):
        if need == 1:
            for m in cells:
                if not (m & plus and m & minus):
                    return False
            return True
        for m in cells:
            if (m & plus).bit_count() < need or (m & minus).bit_count() < need:
                return False
        return True

    def extend(cells, candidates, chosen):
        nonlocal best_value, best_choice
        depth = len(chosen)
        if depth > best_value:
            best_value = depth
            best_choice = tuple(chosen)
            if best_value == limit:
                return True
        for i, j in enumerate(candidates):
            if depth + len(candidates) - i <= best_value:
                break
            plus, minus = slots[j]
            need = 1 << (best_value - depth)
            if need > 1 and not fits(cells, plus, minus, need):
                continue
            split = [h for m in cells for h in (m & plus, m & minus)]
            need = 1 << max(best_value - depth - 1, 0)
            later = [k for k in candidates[i + 1 :] if fits(split, *slots[k], need)]
            if extend(split, later, chosen + [j]):
                return True
        return False

    root = [-1]
    extend(root, [j for j, (plus, minus) in enumerate(slots) if fits(root, plus, minus, 1)], [])
    return best_value, best_choice


def random_slots(rng, n_slots: int, members: int, absent: float) -> list[tuple[int, int]]:
    """Each member is absent from a slot with probability `absent`, else + or - evenly."""
    draws = rng.random((n_slots, members))
    plus, minus = draws < (1 - absent) / 2, draws >= (1 + absent) / 2
    return [
        (sum(1 << h for h in np.flatnonzero(p).tolist()), sum(1 << h for h in np.flatnonzero(q).tolist()))
        for p, q in zip(plus, minus)
    ]


# Robust kinds: few slots over many members, some of them absent from a slot.
# Dual: many slots over few members, every member on one side.
DIMS_SHAPES = {
    "robust": lambda rng: random_slots(
        rng, int(rng.integers(10, 14)), int(rng.integers(64, 257)), float(rng.uniform(0.05, 0.6))
    ),
    "dual": lambda rng: random_slots(rng, int(rng.integers(100, 301)), int(rng.integers(10, 14)), 0.0),
}


@pytest.mark.parametrize("shape", sorted(DIMS_SHAPES))
def test_max_shattered_matches_the_per_candidate_reference_on_dims_sizes(shape):
    for seed in range(25):
        slots = DIMS_SHAPES[shape](rng_stream(seed, 21))
        for limit in range(13):
            assert _max_shattered(slots, limit) == reference_max_shattered(slots, limit), (seed, limit)


@st.composite
def tiny_free_instances(draw):
    """Up to 4 points, up to 12 distinct members, balls not required to contain their point."""
    size = draw(st.integers(min_value=1, max_value=4))
    point = st.integers(min_value=0, max_value=size - 1)
    signs = st.sampled_from((-1, 1))
    rows = draw(st.lists(st.tuples(*[signs] * size), min_size=1, max_size=12, unique=True))
    balls = draw(st.lists(st.lists(point, min_size=1, max_size=size), min_size=size, max_size=size))
    return HypothesisFamily.from_rows(rows), PerturbationMap(tuple(tuple(b) for b in balls))


def constant_on(row, ball, sign) -> bool:
    return all(row[z] == sign for z in ball)


@settings(max_examples=150, deadline=None)
@given(tiny_free_instances())
def test_disjoint_robust_dim_matches_naive_point_scan(instance):
    family, perturbations = instance
    rows = [h.labels for h in family]

    def shattered(points):
        return realizes_every_pattern(
            rows, len(points), lambda row, i, sign: constant_on(row, perturbations[points[i]], sign)
        )

    expected = naive_first_shattered(range(perturbations.size), shattered)
    w = disjoint_robust_shattering_dim(family, perturbations)
    assert (w.value, w.witness, w.capped) == (len(expected), expected, False)


@settings(max_examples=150, deadline=None)
@given(tiny_free_instances())
def test_robust_dim_matches_naive_pair_scan(instance):
    family, perturbations = instance
    rows = [h.labels for h in family]
    n = perturbations.size
    pairs = [
        (zp, zm)
        for zp in range(n)
        for zm in range(n)
        if set(perturbations[zp]) & set(perturbations[zm])
    ]

    def shattered(chosen):
        return realizes_every_pattern(
            rows,
            len(chosen),
            lambda row, i, sign: constant_on(row, perturbations[chosen[i][0 if sign == 1 else 1]], sign),
        )

    expected = tuple(
        (min(set(perturbations[zp]) & set(perturbations[zm])), zp, zm)
        for zp, zm in naive_first_shattered(pairs, shattered)
    )
    w = robust_shattering_dim(family, perturbations)
    assert (w.value, w.witness, w.capped) == (len(expected), expected, False)
    assert verify_witness(family, w, perturbations)


def naive_replay(kind, rows, perturbations, descriptors) -> bool:
    """Definition-level check of a witness: domain membership, then every sign pattern."""
    n, ball = perturbations.size, perturbations.sets
    if kind == "vc":
        valid = all(0 <= x < n for x in descriptors)
        objects, takes = rows, lambda row, i, sign: row[descriptors[i]] == sign
    elif kind == "dual_vc":
        valid = all(0 <= h < len(rows) for h in descriptors)
        objects, takes = range(n), lambda x, i, sign: rows[descriptors[i]][x] == sign
    elif kind == "loss_vc":
        valid = all(0 <= x < n and y in (-1, 1) for x, y in descriptors)

        def takes(row, i, sign):  # sign +1: robust loss 1 at (x, y)
            x, y = descriptors[i]
            return (not constant_on(row, ball[x], y)) == (sign == 1)

        objects = rows
    elif kind == "disjoint_robust":
        valid = all(0 <= x < n for x in descriptors)
        objects, takes = rows, lambda row, i, sign: constant_on(row, ball[descriptors[i]], sign)
    else:
        valid = all(
            0 <= zp < n and 0 <= zm < n and x in ball[zp] and x in ball[zm] for x, zp, zm in descriptors
        )
        objects = rows
        takes = lambda row, i, sign: constant_on(row, ball[descriptors[i][1 if sign == 1 else 2]], sign)
    return valid and realizes_every_pattern(objects, len(descriptors), takes)


SEARCHES = {
    "vc": lambda f, u: vc(f),
    "dual_vc": lambda f, u: dual_vc(f),
    "loss_vc": vc_of_robust_loss_family,
    "disjoint_robust": disjoint_robust_shattering_dim,
    "robust": robust_shattering_dim,
}


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_verify_witness_matches_naive_replay(seed, data):
    """Random descriptor tuples, shattered or not, in or out of range, and the search's witness."""
    rng = rng_stream(seed, 20)
    n = int(rng.integers(1, 5))
    family = random_family(rng, n, 8)
    perturbations = random_perturbations(rng, n, 0.3, self_contained=bool(rng.integers(2)))
    rows = [h.labels for h in family]
    point = st.integers(min_value=-1, max_value=n)
    descriptor = {
        "vc": point,
        "dual_vc": st.integers(min_value=-1, max_value=len(family)),
        "loss_vc": st.tuples(point, st.sampled_from((-1, 0, 1))),
        "disjoint_robust": point,
        "robust": st.tuples(point, point, point),
    }
    for kind, search in SEARCHES.items():
        found = search(family, perturbations)
        assert naive_replay(kind, rows, perturbations, found.witness)
        assert verify_witness(family, found, perturbations)
        for _ in range(4):
            drawn = tuple(data.draw(st.lists(descriptor[kind], max_size=3)))
            w = DimensionWitness(kind, len(drawn), drawn)
            assert verify_witness(family, w, perturbations) == naive_replay(kind, rows, perturbations, drawn)


# --- pinned witnesses ---------------------------------------------------------

# The five witnesses of each construction, as the unpruned lexicographic scan
# finds them: a change to the search order or to slot building shows here even
# when every value stays the same.
PINNED = {
    "vc-blowup(8)": (
        lambda: make_vc_blowup(8),
        {
            "vc": DimensionWitness("vc", 1, (8,)),
            "dual_vc": DimensionWitness("dual_vc", 1, (1,)),
            "loss_vc": DimensionWitness("loss_vc", 8, tuple((x, 1) for x in range(8))),
            "disjoint_robust": DimensionWitness("disjoint_robust", 1, (8,)),
            "robust": DimensionWitness("robust", 1, ((8, 0, 8),)),
        },
    ),
    "pair-gap(10)": (
        lambda: make_pair_gap(10),
        {
            "vc": DimensionWitness("vc", 10, tuple(range(1, 30, 3))),
            "dual_vc": DimensionWitness("dual_vc", 3, (7, 25, 42)),
            "loss_vc": DimensionWitness("loss_vc", 10, tuple((x, 1) for x in range(0, 30, 3))),
            "disjoint_robust": DimensionWitness("disjoint_robust", 0, ()),
            "robust": DimensionWitness(
                "robust", 10, tuple((3 * i + 1, 3 * i, 3 * i + 2) for i in range(10))
            ),
        },
    ),
    "proper-failure(3, cap=9)": (
        lambda: make_proper_failure(3, cap=9),
        {
            "vc": DimensionWitness("vc", 1, (9,)),
            "dual_vc": DimensionWitness("dual_vc", 1, (0,)),
            "loss_vc": DimensionWitness("loss_vc", 3, ((0, 1), (1, 1), (2, 1))),
            "disjoint_robust": DimensionWitness("disjoint_robust", 1, (9,)),
            "robust": DimensionWitness("robust", 1, ((9, 0, 9),)),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_construction_witnesses_are_pinned(name):
    build, expected = PINNED[name]
    inst = build()
    family, perturbations = inst.family, inst.perturbations
    got = {
        "vc": vc(family),
        "dual_vc": dual_vc(family),
        "loss_vc": vc_of_robust_loss_family(family, perturbations),
        "disjoint_robust": disjoint_robust_shattering_dim(family, perturbations),
        "robust": robust_shattering_dim(family, perturbations),
    }
    assert got == expected
