"""Deterministic generators for the adversarial instance families.

Metric balls are realized combinatorially: each generator lays out an explicit
finite point set and perturbation sets with exactly the disjointness /
single-point-intersection pattern its guarantees need.  No generator uses
randomness; identical parameters always produce identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Sequence, Union

import numpy as np

from .core import (
    ContractError,
    FiniteDistribution,
    HypothesisFamily,
    InstanceSpace,
    LabeledExample,
    PerturbationMap,
    _checked_int,
    parse_probability,
)

__all__ = [
    "ConstructedInstance",
    "make_vc_blowup",
    "make_proper_failure",
    "make_union_truncation",
    "make_pair_gap",
    "make_lower_bound_family",
    "make_agnostic_lower_bound",
    "BLOWUP_CAP",
    "PROPER_FAILURE_CAP",
    "PAIR_CAP",
]

BLOWUP_CAP = 8
PROPER_FAILURE_CAP = 12  # anchors 3m, so m <= 4: the family has C(3m, m) members
PAIR_CAP = 10

RationalLike = Union[Fraction, float, int, str]


@dataclass
class ConstructedInstance:
    """A generated instance: space, adversary, family, designated points, data."""

    space: InstanceSpace
    perturbations: PerturbationMap
    family: HypothesisFamily
    anchors: dict[str, tuple[int, ...]]
    distributions: tuple[FiniteDistribution, ...] | None
    metadata: dict


def _blowup_parts(
    anchor_count: int, patterns: Sequence[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Lay out one fresh point per (pattern, set bit) after the anchors.

    Returns the perturbation sets (anchor i with the fresh points of its bit,
    then a singleton per fresh point) and the label matrix, whose width is the
    space size: one row per pattern, labeling exactly that pattern's fresh
    points -1.
    """
    owners = [(row, i) for row, pattern in enumerate(patterns) for i in pattern]
    size = anchor_count + len(owners)
    balls = [[i] for i in range(anchor_count)]
    matrix = np.ones((len(patterns), size), dtype=np.int8)
    for z, (row, i) in enumerate(owners, start=anchor_count):
        balls[i].append(z)
        matrix[row, z] = -1
    sets = [tuple(ball) for ball in balls] + [(z,) for z in range(anchor_count, size)]
    return sets, matrix


def make_vc_blowup(m: int) -> ConstructedInstance:
    """Family with VC dimension <= 1 whose robust loss class shatters m points.

    m anchor points have mutually disjoint perturbation sets; every bit
    pattern over the anchors gets its own private batch of fresh points, one
    inside each selected anchor's set, and the pattern's member labels exactly
    that batch -1.  The worst-case loss at anchor i then reads off bit i, so
    the loss class shatters the anchors while no two points of the base space
    are ever labeled (-1, -1) by one member.  m is at most BLOWUP_CAP.
    """
    m = _checked_int("m", m, 1, BLOWUP_CAP)
    patterns = [tuple(i for i in range(m) if (code >> i) & 1) for code in range(2 ** m)]
    sets, matrix = _blowup_parts(m, patterns)
    return ConstructedInstance(
        space=InstanceSpace(matrix.shape[1]),
        perturbations=PerturbationMap(tuple(sets)),
        family=HypothesisFamily(matrix, name=f"vc-blowup(m={m})"),
        anchors={"anchors": tuple(range(m))},
        distributions=None,
        metadata={"generator": "vc_blowup", "m": m},
    )


def make_proper_failure(m: int, cap: int = PROPER_FAILURE_CAP) -> ConstructedInstance:
    """Instance family on which every proper rule fails with constant probability.

    The blowup construction on 3m anchors, restricted to the members that are
    robustly wrong on exactly m anchors.  Ships all C(3m, 2m) uniform
    distributions over 2m-subsets of the positively-labeled anchors: each has
    a unique zero-robust-risk member (the one wrong precisely on the excluded
    m anchors), while any member a learner picks must sacrifice m anchors.
    3m is at most `cap`, by default PROPER_FAILURE_CAP (m <= 4).
    """
    m, cap = _checked_int("m", m, 1), _checked_int("cap", cap, 3)
    anchor_count = 3 * m
    if anchor_count > cap:
        raise ContractError(f"3m={anchor_count} exceeds the cap {cap}")
    patterns = list(combinations(range(anchor_count), m))
    sets, matrix = _blowup_parts(anchor_count, patterns)
    distributions = tuple(
        FiniteDistribution.uniform([LabeledExample(i, +1) for i in support])
        for support in combinations(range(anchor_count), 2 * m)
    )
    return ConstructedInstance(
        space=InstanceSpace(matrix.shape[1]),
        perturbations=PerturbationMap(tuple(sets)),
        family=HypothesisFamily(matrix, name=f"proper-failure(m={m})"),
        anchors={"anchors": tuple(range(anchor_count))},
        distributions=distributions,
        metadata={"generator": "proper_failure", "m": m},
    )


def make_union_truncation(block_sizes: Sequence[int]) -> ConstructedInstance:
    """Finite union of proper-failure blocks with the cross-block adjustment.

    Members of one block additionally label every other block's anchors -1,
    so they are robustly wrong there; this keeps the union's VC dimension at 1
    while each block retains its own realizable distributions.  Each block
    size m needs 3m <= PROPER_FAILURE_CAP.
    """
    if not block_sizes:
        raise ContractError("at least one block size is required")
    blocks = [make_proper_failure(m) for m in block_sizes]
    block_sizes = [inst.metadata["m"] for inst in blocks]  # checked ints, as the document stores them
    offsets = list(accumulate((inst.space.size for inst in blocks[:-1]), initial=0))
    total = offsets[-1] + blocks[-1].space.size
    pairs = list(zip(blocks, offsets))
    sets = [tuple(z + off for z in s) for inst, off in pairs for s in inst.perturbations.sets]
    all_anchors = [a + off for inst, off in pairs for a in inst.anchors["anchors"]]
    matrices = []
    for inst, off in pairs:
        block = np.ones((len(inst.family), total), dtype=np.int8)
        block[:, all_anchors] = -1  # the foreign anchors: the block's own are overwritten next
        block[:, off : off + inst.space.size] = inst.family.matrix
        matrices.append(block)
    distributions = tuple(
        FiniteDistribution(
            tuple((LabeledExample(e.point + off, e.label), p) for e, p in dist.atoms)
        )
        for inst, off in pairs
        for dist in (inst.distributions or ())
    )
    return ConstructedInstance(
        space=InstanceSpace(total),
        perturbations=PerturbationMap(tuple(sets)),
        family=HypothesisFamily(
            np.concatenate(matrices), name=f"union-truncation({list(block_sizes)})"
        ),
        anchors={"anchors": tuple(all_anchors)},
        distributions=distributions,
        metadata={
            "generator": "union_truncation",
            "block_sizes": list(block_sizes),
            "block_offsets": offsets,
        },
    )


def make_pair_gap(p: int) -> ConstructedInstance:
    """p point pairs whose perturbation sets intersect in a single point each.

    Pair i occupies the points a_i = 3i, u_i = 3i+1 and c_i = 3i+2, with
    U(a_i) = {a_i, u_i}, U(u_i) = {a_i, u_i, c_i} and U(c_i) = {u_i, c_i}.
    U(a_i) can be labeled all +1, U(c_i) all -1, and which one happens is
    decided by bit i.  No set can be labeled constantly both ways (disjoint
    robust shattering dimension 0), yet the shared points u_1..u_p are
    robustly shattered through the witnesses (a_i, c_i), so the robust
    shattering dimension is exactly p.  p is at most PAIR_CAP.
    """
    p = _checked_int("p", p, 1, PAIR_CAP)
    sets = [s for a in range(0, 3 * p, 3) for s in ((a, a + 1), (a, a + 1, a + 2), (a + 1, a + 2))]
    # Bit i of a member's code flips only the shared point u_i (code order is
    # full_cube's); the witness points keep fixed labels, so no single
    # perturbation set is ever labeled both ways.
    labels = np.ones((2 ** p, p, 3), dtype=np.int8)
    labels[:, :, 1] = HypothesisFamily.full_cube(p).matrix
    labels[:, :, 2] = -1
    return ConstructedInstance(
        space=InstanceSpace(3 * p),
        perturbations=PerturbationMap(tuple(sets)),
        family=HypothesisFamily(labels.reshape(2 ** p, 3 * p), name=f"pair-gap(p={p})"),
        anchors={
            "shattered": tuple(range(1, 3 * p, 3)),
            "witness_plus": tuple(range(0, 3 * p, 3)),
            "witness_minus": tuple(range(2, 3 * p, 3)),
        },
        distributions=None,
        metadata={"generator": "pair_gap", "p": p},
    )


def _rational_parameter(name: str, value: RationalLike) -> Fraction:
    """`parse_probability(value)`, refusing a boolean under the parameter's name."""
    if type(value) is bool:
        raise ContractError(f"{name} must be a number or a decimal or p/q string, got {value!r}")
    return parse_probability(value)


def make_lower_bound_family(d: int, epsilon: RationalLike) -> ConstructedInstance:
    """Robustly shattered base plus the 2^d realizable hard distributions.

    The base is `make_pair_gap(d)`.  Distribution D_y places mass 1-8eps on
    (witness of y_1, y_1) and 8eps/(d-1) on each remaining (witness of y_i,
    y_i), the witness being a_i for +1 and c_i for -1; the member whose bits
    match y has robust risk 0 on D_y.  Distributions are indexed by the bit
    code of y (bit i set means y_i = -1).  d is at most PAIR_CAP.
    """
    d = _checked_int("d", d, 2)
    eps = _rational_parameter("epsilon", epsilon)
    if not 0 < eps < Fraction(1, 8):
        raise ContractError(f"epsilon must lie in (0, 1/8), got {eps}")
    base = make_pair_gap(d)
    head = 1 - 8 * eps
    tail = 8 * eps / (d - 1)
    distributions = []
    for code in range(2 ** d):
        atoms = []
        for i in range(d):
            y = -1 if (code >> i) & 1 else +1
            point = 3 * i if y == +1 else 3 * i + 2
            atoms.append((LabeledExample(point, y), head if i == 0 else tail))
        distributions.append(FiniteDistribution(tuple(atoms)))
    metadata = {"generator": "lower_bound_family", "d": d, "epsilon": str(eps)}
    return replace(base, distributions=tuple(distributions), metadata=metadata)


def make_agnostic_lower_bound(d: int, alpha: RationalLike) -> ConstructedInstance:
    """The agnostic hard distributions over the robustly shattered base.

    The base is `make_pair_gap(d)`.  For each bit vector b, both labels
    appear at every pair: coordinate i carries mass (1 +/- alpha)/(2d) on
    its positive atom (a_i, +1) and its negative atom (c_i, -1), with the
    favored side selected by b_i.  The best member in the family has
    population robust risk exactly (1-alpha)/2.  alpha is exposed as a raw
    parameter; no sample-complexity calibration is implied.  d is at most
    PAIR_CAP.
    """
    d = _checked_int("d", d, 2)
    a = _rational_parameter("alpha", alpha)
    if not 0 < a < 1:
        raise ContractError(f"alpha must lie in (0, 1), got {a}")
    base = make_pair_gap(d)
    light = (1 - a) / (2 * d)
    heavy = (1 + a) / (2 * d)
    distributions = []
    for code in range(2 ** d):
        atoms = []
        for i in range(d):
            bit = (code >> i) & 1
            atoms.append((LabeledExample(3 * i, +1), heavy if bit else light))
            atoms.append((LabeledExample(3 * i + 2, -1), light if bit else heavy))
        distributions.append(FiniteDistribution(tuple(atoms)))
    metadata = {"generator": "agnostic_lower_bound", "d": d, "alpha": str(a)}
    return replace(base, distributions=tuple(distributions), metadata=metadata)
