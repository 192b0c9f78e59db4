"""Brute-force computation of combinatorial dimensions, with explicit witnesses.

Each of the five kinds is one slot table, built by `_slot_table`: per slot,
the member sets realizing + and - there (Python-int bitmasks) and the
descriptor that names the slot in a `DimensionWitness`.  The same table feeds
the search and the witness replay.  The tables read bitmask views that
`core` keeps, all keyed by `core._column_masks`: the family's vc masks per
point, built on first use, its dual masks per member, built once by the
family's constructor for its distinct-rows check, and the constancy masks
per point of the map's `RobustTable`, which the three robust kinds read.
Every label is +1 or -1, so the minus mask of a vc or dual slot is the
complement of its plus mask, not a second read of the matrix.

The search finds the largest slot subset whose every sign pattern is realized
by some member.  It is a DFS over slot tuples in lexicographic order.  Each
node keeps its cells (the member set of every sign pattern over the chosen
slots) and its candidates (the later slots that split every cell into two
nonempty halves); a child filters only its parent's candidates, since its
cells refine the parent's.  A branch is cut when its depth plus its remaining
candidates cannot beat the best size found, or when a cell at depth s holds
fewer than 2^(best + 1 - s) members: each sign pattern of the slots still to
come needs its own member.  Both cuts drop only branches that cannot beat the
best, so the first maximal witness the DFS meets, the lexicographically first
one, is the witness an unpruned scan returns.  A child's candidate list is
built inline, one loop over the parent's later candidates and the child's
cells with no call per candidate.  The one helper, `wide`, checks the
cell-size bound again when a candidate is picked, since the best size may
have grown after the candidate was filtered.  A child at depth s + 1 that is
not a new best needs more than best - s - 1 candidates, else its first cut
drops it; so its filter stops, and the child is skipped, as soon as more of
the later candidates have failed than that allows.  The child would have
returned at once without touching the best, so the stop changes neither the
walk order nor the witness.

Before the search, `_distinct_slots` drops later copies and mirrors of a slot,
which changes neither the value nor the witness.  `verify_witness` maps each
descriptor of a witness to its slot in the table and checks every sign pattern
directly, without the search; a descriptor outside the kind's domain fails to
verify.

Every search is exact up to a configurable ceiling (default 12).  A result
that hits the ceiling while larger witnesses may exist is flagged `capped`
("at least this much") rather than silently truncated.  Structural bounds
(a family of N members can never shatter more than log2(N) slots, computed
by `_structural_bound` for the search only; a replay needs none) are used
to declare exactness below the ceiling whenever possible, as is the slot
count: dropping mirrors can shrink it, so `capped` can only turn False, and
only where the shorter list proves the value exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import (
    HypothesisFamily,
    PerturbationMap,
    StructuralError,
    _checked_int,
    _checked_points,
    _column_masks,
    _is_integer,
)

__all__ = [
    "DEFAULT_CAP",
    "DimensionWitness",
    "vc",
    "dual_vc",
    "vc_of_robust_loss_family",
    "disjoint_robust_shattering_dim",
    "robust_shattering_dim",
    "verify_witness",
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


def _distinct_slots(plus: Sequence[int], minus: Sequence[int]) -> tuple[list[tuple[int, int]], list[int]]:
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
    chosen: list[int] = []

    def wide(cells: list[int], plus: int, minus: int, need: int) -> bool:
        """Does the slot leave at least `need` members on both sides of every cell?"""
        for m in cells:
            if (m & plus).bit_count() < need or (m & minus).bit_count() < need:
                return False
        return True

    def extend(cells: list[int], candidates: list[int]) -> bool:
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
            # `spare`: how many later candidates may fail the child's filter
            # before the child keeps too few to beat the best; the filter then
            # stops and the child is skipped, as its own first cut would drop it.
            need = 1
            spare = len(candidates) - i - 1
            if best_value > depth:
                # The candidate passed the filter when `best_value` may have been
                # smaller, so the cell-size bound is checked again on picking.
                if not wide(cells, plus, minus, 1 << (best_value - depth)):
                    continue
                need = 1 << (best_value - depth - 1)
                spare -= best_value - depth
            split = [h for m in cells for h in (m & plus, m & minus)]
            # The child's candidates: the later ones that leave `need` members
            # on both sides of every child cell.
            later = []
            if need == 1:
                for k in candidates[i + 1 :]:
                    p, q = slots[k]
                    for m in split:
                        if not (m & p and m & q):
                            break
                    else:
                        later.append(k)
                        continue
                    spare -= 1
                    if spare < 0:
                        break
            else:
                for k in candidates[i + 1 :]:
                    p, q = slots[k]
                    for m in split:
                        if (m & p).bit_count() < need or (m & q).bit_count() < need:
                            break
                    else:
                        later.append(k)
                        continue
                    spare -= 1
                    if spare < 0:
                        break
            if spare < 0:
                continue
            chosen.append(j)
            if extend(split, later):
                return True
            chosen.pop()
        return False

    # The root cell -1 stands for every member: a slot splits it when both
    # masks are nonempty.  Only split halves are bit-counted, never -1 itself,
    # whose bit_count() is 1.
    extend([-1], [j for j, (plus, minus) in enumerate(slots) if plus and minus])
    return best_value, best_choice


def _run_search(
    kind: str,
    slots: list[tuple[int, int]],
    reps: list,
    cap: int,
    structural_bound: int,
) -> DimensionWitness:
    hard = min(structural_bound, len(slots))
    limit = min(_checked_int("cap", cap, 0), hard)
    value, chosen = _max_shattered(slots, limit)
    capped = value == limit and limit < hard
    return DimensionWitness(kind, value, tuple(reps[j] for j in chosen), capped)


def _floor_log2(n: int) -> int:
    return n.bit_length() - 1 if n > 0 else 0


def _slot_table(
    kind: str, family: HypothesisFamily, perturbations: PerturbationMap | None
) -> tuple[Sequence[int], Sequence[int], list]:
    """A kind's slots before `_distinct_slots`: plus masks, minus masks and descriptors."""
    if kind in ("vc", "dual_vc"):
        plus, minus = family._point_masks if kind == "vc" else family._member_masks
        return plus, minus, list(range(len(plus)))
    if kind not in ("loss_vc", "disjoint_robust", "robust"):
        raise StructuralError(f"unknown witness kind {kind!r}")
    const_plus, const_minus = family.robust_table(perturbations)._constancy_masks
    if kind == "loss_vc":
        # slot (x, y) loses on the members not constant y on U(x), and
        # keeps the loss at 0 on the rest
        everyone = (1 << len(family)) - 1
        kept = [m for pair in zip(const_minus, const_plus) for m in pair]
        domain = [(x, y) for x in range(perturbations.size) for y in (-1, 1)]
        return [everyone ^ m for m in kept], kept, domain
    if kind == "disjoint_robust":
        return const_plus, const_minus, list(range(perturbations.size))
    # robust: the pairs (z_plus, z_minus) whose balls meet, z_plus ascending, then z_minus,
    # where some member is constant +1 on U(z_plus) and some member constant -1 on U(z_minus)
    sets = perturbations.sets
    owners = [[] for _ in sets]  # owners[x]: the z with x in U(z)
    for z, s in enumerate(sets):
        for x in s:
            owners[x].append(z)
    plus, minus, triples = [], [], []
    for zp, s in enumerate(sets):
        if not const_plus[zp]:
            continue
        least = {}  # z_minus -> the least point of U(zp) & U(z_minus); sets are sorted
        for x in s:
            for zm in owners[x]:
                least.setdefault(zm, x)
        for zm in sorted(least):
            if const_minus[zm]:
                plus.append(const_plus[zp])
                minus.append(const_minus[zm])
                triples.append((least[zm], zp, zm))
    return plus, minus, triples


def _structural_bound(
    kind: str, family: HypothesisFamily, perturbations: PerturbationMap | None
) -> int:
    """floor(log2) of the number of distinct objects that split a kind's slots.

    No shattered set can exceed it.  The objects are the members, except for
    the dual dimension, whose slots are members split by the distinct
    columns (the distinct kept vc + masks), and the loss class, whose
    objects are the distinct loss rows: one per distinct pair of constancy
    rows, which fix the loss row, read as one mask per member.
    """
    if kind == "dual_vc":
        objects = len(set(family._point_masks[0]))
    elif kind == "loss_vc":
        table = family.robust_table(perturbations)
        objects = len(set(_column_masks(np.concatenate((table.const_plus, table.const_minus), axis=1).T)))
    else:
        objects = len(family)
    return _floor_log2(objects)


def _search(
    kind: str, family: HypothesisFamily, perturbations: PerturbationMap | None, cap: int
) -> DimensionWitness:
    plus, minus, descriptors = _slot_table(kind, family, perturbations)
    slots, reps = _distinct_slots(plus, minus)
    bound = _structural_bound(kind, family, perturbations)
    return _run_search(kind, slots, [descriptors[j] for j in reps], cap, bound)


def vc(family: HypothesisFamily, cap: int = DEFAULT_CAP) -> DimensionWitness:
    """Exact VC dimension by exhaustive shattering search with early pruning."""
    return _search("vc", family, None, cap)


def dual_vc(family: HypothesisFamily, cap: int = DEFAULT_CAP) -> DimensionWitness:
    """VC dimension of the dual family {g_x : h -> h(x)}.

    Here the shattered objects are hypotheses and the masks range over points:
    member h contributes the slot ({x : h(x)=+1}, {x : h(x)=-1}).
    """
    return _search("dual_vc", family, None, cap)


def vc_of_robust_loss_family(
    family: HypothesisFamily, perturbations: PerturbationMap, cap: int = DEFAULT_CAP
) -> DimensionWitness:
    """VC dimension of {(x,y) -> sup_{z in U(x)} 1[h(z) != y] : h in family}."""
    return _search("loss_vc", family, perturbations, cap)


def disjoint_robust_shattering_dim(
    family: HypothesisFamily, perturbations: PerturbationMap, cap: int = DEFAULT_CAP
) -> DimensionWitness:
    """Largest m with points whose entire perturbation sets are shattered.

    A slot for point x demands members constant over all of U(x); with the
    identity adversary this degenerates to the plain VC dimension.
    """
    return _search("disjoint_robust", family, perturbations, cap)


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
    return _search("robust", family, perturbations, cap)


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


def verify_witness(
    family: HypothesisFamily, witness: DimensionWitness, perturbations: PerturbationMap | None = None
) -> bool:
    """Replay a witness against the slot table of its kind.

    The value must be an integer equal to the number of descriptors.  Each
    descriptor must have its kind's shape, an integer or a tuple of 2
    (loss_vc) or 3 (robust) integers, and name a slot of the kind's domain,
    else the witness fails; a robust (x, z_plus, z_minus) names the slot of
    the pair and must have x in U(z_plus) & U(z_minus).  The named slots are
    then checked pattern by pattern, independently of the search.
    """
    if not _is_integer(witness.value) or len(witness.witness) != witness.value:
        return False
    if witness.kind not in ("vc", "dual_vc") and perturbations is None:
        raise StructuralError(f"witness kind {witness.kind!r} needs the perturbation map")
    plus, minus, descriptors = _slot_table(witness.kind, family, perturbations)
    robust = witness.kind == "robust"
    arity = {"loss_vc": 2, "robust": 3}.get(witness.kind)
    index = {(d[1:] if robust else d): j for j, d in enumerate(descriptors)}
    slots = []
    for d in witness.witness:
        shaped = isinstance(d, tuple) and len(d) == arity and all(map(_is_integer, d)) if arity else _is_integer(d)
        j = index.get(d[1:] if robust else d) if shaped else None
        if j is None or robust and any(d[0] not in perturbations.sets[z] for z in d[1:]):
            return False
        slots.append((plus[j], minus[j]))
    return _patterns_realized(slots)


def restriction_count(family: HypothesisFamily, points: tuple[int, ...]) -> int:
    """Number of distinct restrictions of the family to the given points."""
    sub = family.matrix[:, _checked_points(points, family.space_size)]
    return len(set(_column_masks(sub.T == 1)))


def sauer_bound(k: int, dim: int) -> int:
    """Sauer's lemma ceiling on restrictions to k points for a dim-dimensional class."""
    k = _checked_int("k", k, 0)
    dim = _checked_int("dim", dim, 0)
    return sum(comb(k, i) for i in range(0, min(dim, k) + 1))
