"""Brute-force computation of combinatorial dimensions, with explicit witnesses.

All five quantities reduce to one search problem: given "slots", each carrying
a pair of disjoint member sets (who can realize + at the slot, who can realize
-), find the largest slot subset such that every sign pattern is realized by
some member.  Member sets are Python-int bitmasks.  The search is a DFS over
slot tuples in lexicographic order.  Each node keeps its cells (the member set
of every sign pattern over the chosen slots) and its candidates (the later
slots that split every cell into two nonempty halves); a child filters only
its parent's candidates, since its cells refine the parent's.  A branch is cut
when its depth plus its remaining candidates cannot beat the best size found,
or when a cell at depth s holds fewer than 2^(best + 1 - s) members: each sign
pattern of the slots still to come needs its own member.  Both cuts drop only
branches that cannot beat the best, so the first maximal witness the DFS meets,
the lexicographically first one, is the witness an unpruned scan returns.

Slot lists keep the first of each set of equal slots and drop a slot whose
mirror (minus, plus) came earlier: the two never lie in one shattered set, and
swapping the later for the earlier keeps a set shattered and makes it
lexicographically smaller, so the first maximal witness never uses the later
one.  A singleton ball makes (x, -1) and (x, +1) such a pair in the loss class.

Every search is exact up to a configurable ceiling (default 12).  A result
that hits the ceiling while larger witnesses may exist is flagged `capped`
("at least this much") rather than silently truncated.  Structural bounds
(a family of N members can never shatter more than log2(N) slots) are used
to declare exactness below the ceiling whenever possible, as is the slot
count: dropping mirrors can shrink it, so `capped` can only turn False, and
only where the shorter list proves the value exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import ContractError, HypothesisFamily, PerturbationMap, StructuralError

__all__ = [
    "DEFAULT_CAP",
    "DimensionWitness",
    "vc",
    "dual_vc",
    "vc_of_robust_loss_family",
    "disjoint_robust_shattering_dim",
    "robust_shattering_dim",
    "verify_witness",
    "is_shattered",
    "is_loss_shattered",
    "is_disjoint_robustly_shattered",
    "is_robustly_shattered",
    "restriction_count",
    "sauer_bound",
]

DEFAULT_CAP = 12


@dataclass(frozen=True)
class DimensionWitness:
    """A dimension value plus the witness that re-verifies it.

    `witness` holds one descriptor per shattered slot: a point for vc and the
    disjoint robust dimension, a member index for the dual dimension, a
    (point, label) pair for the loss-class dimension, and an
    (x, z_plus, z_minus) triple for the robust shattering dimension.
    `capped` means the search stopped at its ceiling, so `value` is a lower
    bound rather than the exact dimension.
    """

    kind: str
    value: int
    witness: tuple
    capped: bool = False


def _column_masks(matrix: np.ndarray) -> list[int]:
    """Per column of a bool matrix: the bitmask of its set rows (row i is bit i)."""
    packed = np.packbits(matrix, axis=0, bitorder="little")
    return [int.from_bytes(packed[:, x].tobytes(), "little") for x in range(matrix.shape[1])]


def _distinct_slots(plus: list[int], minus: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Slots with both masks nonempty, less later copies and mirrors; representative = first index.

    A slot (plus, minus) and its mirror (minus, plus) never lie in one
    shattered set: the pattern (+, +) would need a member in plus & minus,
    which is empty.  Swapping one for the other keeps a set shattered, as it
    only renames the signs of one coordinate.  So the lexicographically first
    largest witness never uses the later of a mirror pair, and dropping it, as
    an exact copy is dropped, changes neither the value nor the witness.
    """
    slots: list[tuple[int, int]] = []
    reps: list[int] = []
    seen: set[tuple[int, int]] = set()
    for i, pair in enumerate(zip(plus, minus)):
        if pair[0] and pair[1] and pair not in seen and pair[::-1] not in seen:
            seen.add(pair)
            slots.append(pair)
            reps.append(i)
    return slots, reps


def _sign_slots(matrix: np.ndarray) -> tuple[list[tuple[int, int]], list[int]]:
    """Slots of the distinct non-constant columns of a +1/-1 matrix; representative = first one."""
    return _distinct_slots(_column_masks(matrix == 1), _column_masks(matrix == -1))


def _max_shattered(slots: list[tuple[int, int]], limit: int) -> tuple[int, tuple[int, ...]]:
    """Largest subset of slots whose every sign pattern keeps a nonempty member set.

    Slots are (plus_mask, minus_mask) with plus & minus == 0.  Returns the
    size and the lexicographically first witness of that size, searched with
    the candidate lists and the cell-size bound of the module docstring.
    """
    if limit <= 0 or not slots:
        return 0, ()
    best_value = 0
    best_choice: tuple[int, ...] = ()

    def fits(cells: list[int], plus: int, minus: int, need: int) -> bool:
        """Does the slot leave at least `need` members on both sides of every cell?"""
        if need == 1:
            for m in cells:
                if not (m & plus and m & minus):
                    return False
            return True
        for m in cells:
            if (m & plus).bit_count() < need or (m & minus).bit_count() < need:
                return False
        return True

    def extend(cells: list[int], candidates: list[int], chosen: list[int]) -> bool:
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
            # The candidate passed `fits` when `best_value` may have been
            # smaller, so the cell-size bound is checked again on picking.
            need = 1 << (best_value - depth)
            if need > 1 and not fits(cells, plus, minus, need):
                continue
            split = [h for m in cells for h in (m & plus, m & minus)]
            need = 1 << max(best_value - depth - 1, 0)
            later = [k for k in candidates[i + 1 :] if fits(split, *slots[k], need)]
            if extend(split, later, chosen + [j]):
                return True
        return False

    # The root cell -1 stands for every member.  Only split halves are
    # bit-counted, never -1 itself, whose bit_count() is 1.
    root = [-1]
    extend(root, [j for j, (plus, minus) in enumerate(slots) if fits(root, plus, minus, 1)], [])
    return best_value, best_choice


def _run_search(
    kind: str,
    slots: list[tuple[int, int]],
    reps: list,
    cap: int,
    structural_bound: int,
) -> DimensionWitness:
    if cap < 0:
        raise ContractError(f"cap must be >= 0, got {cap}")
    hard = min(structural_bound, len(slots))
    limit = min(cap, hard)
    value, chosen = _max_shattered(slots, limit)
    capped = value == limit and limit < hard
    return DimensionWitness(kind, value, tuple(reps[j] for j in chosen), capped)


def _floor_log2(n: int) -> int:
    return n.bit_length() - 1 if n > 0 else 0


def vc(family: HypothesisFamily, cap: int = DEFAULT_CAP) -> DimensionWitness:
    """Exact VC dimension by exhaustive shattering search with early pruning."""
    slots, reps = _sign_slots(family.matrix)
    return _run_search("vc", slots, reps, cap, _floor_log2(len(family)))


def dual_vc(family: HypothesisFamily, cap: int = DEFAULT_CAP) -> DimensionWitness:
    """VC dimension of the dual family {g_x : h -> h(x)}.

    Here the shattered objects are hypotheses and the masks range over points:
    member h contributes the slot ({x : h(x)=+1}, {x : h(x)=-1}).
    """
    distinct_columns = len(set(_column_masks(family.matrix == 1)))
    slots, reps = _sign_slots(family.matrix.T)
    return _run_search("dual_vc", slots, reps, cap, _floor_log2(distinct_columns))


def _loss_matrix(family: HypothesisFamily, perturbations: PerturbationMap) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """0/1 matrix of robust losses over the domain X x {-1,+1}, plus that domain."""
    loss = family.robust_table(perturbations).loss_matrix
    return loss, [(x, y) for x in range(perturbations.size) for y in (-1, 1)]


def vc_of_robust_loss_family(
    family: HypothesisFamily, perturbations: PerturbationMap, cap: int = DEFAULT_CAP
) -> DimensionWitness:
    """VC dimension of {(x,y) -> sup_{z in U(x)} 1[h(z) != y] : h in family}."""
    loss, domain = _loss_matrix(family, perturbations)
    distinct_rows = len({loss[h].tobytes() for h in range(loss.shape[0])})
    slots, columns = _distinct_slots(_column_masks(loss), _column_masks(~loss))
    reps = [domain[j] for j in columns]
    return _run_search("loss_vc", slots, reps, cap, _floor_log2(distinct_rows))


def _constant_masks(
    family: HypothesisFamily, perturbations: PerturbationMap
) -> tuple[list[int], list[int]]:
    """Per point x: bitmasks of members constant +1 / constant -1 on U(x)."""
    table = family.robust_table(perturbations)
    return _column_masks(table.const_plus), _column_masks(table.const_minus)


def disjoint_robust_shattering_dim(
    family: HypothesisFamily, perturbations: PerturbationMap, cap: int = DEFAULT_CAP
) -> DimensionWitness:
    """Largest m with points whose entire perturbation sets are shattered.

    A slot for point x demands members constant over all of U(x); with the
    identity adversary this degenerates to the plain VC dimension.
    """
    slots, reps = _distinct_slots(*_constant_masks(family, perturbations))
    return _run_search("disjoint_robust", slots, reps, cap, _floor_log2(len(family)))


def robust_shattering_dim(
    family: HypothesisFamily, perturbations: PerturbationMap, cap: int = DEFAULT_CAP
) -> DimensionWitness:
    """Robust shattering dimension with witness points z_i^+/z_i^-.

    A slot is an ordered pair (z_plus, z_minus) whose perturbation sets
    intersect; realizing sign y at the slot means being constant y on the
    whole set U(z_y).  The shattered point x_i is reported as the smallest
    element of the intersection.  Witness points range over the full
    instance space, not only sample points.
    """
    const_plus, const_minus = _constant_masks(family, perturbations)
    sets = perturbations.sets
    balls = [sum(1 << x for x in s) for s in sets]  # point bitmask of U(z)
    owners = [0] * len(sets)  # owners[x]: bitmask of the z with x in U(z)
    for z, s in enumerate(sets):
        for x in s:
            owners[x] |= 1 << z
    minus_ok = sum(1 << z for z, mask in enumerate(const_minus) if mask)
    slots: list[tuple[int, int]] = []
    reps: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for zp, s in enumerate(sets):
        if not const_plus[zp]:
            continue
        meets = 0  # the z_minus whose ball meets U(zp), in increasing order below
        for x in s:
            meets |= owners[x]
        meets &= minus_ok
        while meets:
            low = meets & -meets
            meets ^= low
            zm = low.bit_length() - 1
            pair = (const_plus[zp], const_minus[zm])
            if pair in seen or pair[::-1] in seen:  # copies and mirrors, as in _distinct_slots
                continue
            seen.add(pair)
            slots.append(pair)
            common = balls[zp] & balls[zm]
            reps.append(((common & -common).bit_length() - 1, zp, zm))
    return _run_search("robust", slots, reps, cap, _floor_log2(len(family)))


# --- witness replay ---------------------------------------------------------


def _patterns_realized(slots: list[tuple[int, int]]) -> bool:
    """Check all 2^k sign patterns keep a nonempty member mask."""
    masks = [-1]
    for plus, minus in slots:
        split = []
        for m in masks:
            a = m & plus
            b = m & minus
            if not a or not b:
                return False
            split.append(a)
            split.append(b)
        masks = split
    return True


def is_shattered(family: HypothesisFamily, points: tuple[int, ...]) -> bool:
    plus, minus = _column_masks(family.matrix == 1), _column_masks(family.matrix == -1)
    return _patterns_realized([(plus[x], minus[x]) for x in points])


def is_loss_shattered(
    family: HypothesisFamily,
    perturbations: PerturbationMap,
    pairs: tuple[tuple[int, int], ...],
) -> bool:
    """Exhaustively check that the (point, label) pairs are shattered by the loss class."""
    loss, domain = _loss_matrix(family, perturbations)
    index = {d: j for j, d in enumerate(domain)}
    one, zero = _column_masks(loss), _column_masks(~loss)
    return _patterns_realized([(one[index[p]], zero[index[p]]) for p in pairs])


def is_disjoint_robustly_shattered(
    family: HypothesisFamily, perturbations: PerturbationMap, points: tuple[int, ...]
) -> bool:
    const_plus, const_minus = _constant_masks(family, perturbations)
    slots = [(const_plus[x], const_minus[x]) for x in points]
    return _patterns_realized(slots)


def is_robustly_shattered(
    family: HypothesisFamily,
    perturbations: PerturbationMap,
    triples: tuple[tuple[int, int, int], ...],
) -> bool:
    """Replay an (x, z_plus, z_minus) witness against Definition-style shattering."""
    const_plus, const_minus = _constant_masks(family, perturbations)
    slots = []
    for x, zp, zm in triples:
        if x not in perturbations[zp] or x not in perturbations[zm]:
            return False
        slots.append((const_plus[zp], const_minus[zm]))
    return _patterns_realized(slots)


def verify_witness(
    family: HypothesisFamily,
    witness: DimensionWitness,
    perturbations: PerturbationMap | None = None,
) -> bool:
    """Replay a witness through the checker matching its kind."""
    if len(witness.witness) != witness.value:
        return False
    if witness.kind == "vc":
        return is_shattered(family, witness.witness)
    if witness.kind == "dual_vc":
        plus, minus = _column_masks(family.matrix.T == 1), _column_masks(family.matrix.T == -1)
        return _patterns_realized([(plus[h], minus[h]) for h in witness.witness])
    if perturbations is None:
        raise StructuralError(f"witness kind {witness.kind!r} needs the perturbation map")
    if witness.kind == "loss_vc":
        return is_loss_shattered(family, perturbations, witness.witness)
    if witness.kind == "disjoint_robust":
        return is_disjoint_robustly_shattered(family, perturbations, witness.witness)
    if witness.kind == "robust":
        return is_robustly_shattered(family, perturbations, witness.witness)
    raise StructuralError(f"unknown witness kind {witness.kind!r}")


def restriction_count(family: HypothesisFamily, points: tuple[int, ...]) -> int:
    """Number of distinct restrictions of the family to the given points."""
    sub = family.matrix[:, np.asarray(points, dtype=np.intp)]
    return len({sub[h].tobytes() for h in range(sub.shape[0])})


def sauer_bound(k: int, dim: int) -> int:
    """Sauer's lemma ceiling on restrictions to k points for a dim-dimensional class."""
    return sum(comb(k, i) for i in range(0, min(dim, k) + 1))
