"""The improper realizable learner: compression-boosting over oracle candidates.

Pipeline: generate candidate predictors by running the exact robust-ERM oracle
on every size-n subsequence of the sample, inflate the sample to all
perturbation points with min-index labels, discretize the inflation down to
one representative per candidate error pattern, boost weak candidates by
multiplicative weights until every representative has vote margin >= 5/9
(doubling n while no candidate is a weak learner, in `_boost_growing_n`,
which the agnostic reduction shares), then sparsify the ensemble to its
smallest sub-multiset whose majority is strictly correct on every
representative.  Each surviving voter carries the sample indices that
reconstruct it, so the final majority vote is a sample compression scheme
and the compression generalization bound applies.  No step draws
randomness, so the learner takes no generator.

The data between stages are arrays: the inflation is a (points, labels)
pair, the discretized set adds the (candidates, representatives) mistake
matrix `wrong`, and boosting and sparsification both read correctness as
`~wrong` rows indexed by candidate id.

For a given family and perturbation map, the realizability check reads the
(members, distinct examples) robust mistake matrix of the sample's distinct
examples in first-appearance order, and inflation their balls.  Since
candidates are listed in member order, every stage at subset size n
(`_build_stages`) is a function of that matrix, the inflation and the
counts clipped at n, and receives no sample: the candidate members and the
greatest count vector that yields each, discretization, boosting or its
weak-learner failure, and the sparsified vote.  The realizable learner
keeps the stages, each with the inflation, in a stage cache on the family
per perturbation map (`core._kept`): one flat dict keyed by (sample key, n,
counts clipped at n), the sample key being the distinct points and labels
as bytes, of at most `STAGE_CACHE_ENTRIES` stages, the oldest dropped
first.  A call's first miss builds the matrix, checks realizability
(refusing an unrealizable sample, which keeps nothing) and inflates, for
all its n.  A hit runs only what depends on the sample's positions: the
voters' provenance (the sample positions of their count vectors, `_vote`)
and the closing fit check, so outputs do not depend on what the cache
holds.  The agnostic learner keeps nothing: it enumerates candidates on
columns of its own mistake matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

import numpy as np

from .core import (
    ContractError,
    HypothesisFamily,
    MajorityVotePredictor,
    PerturbationMap,
    Sample,
    _checked_delta,
    _checked_int,
    _column_masks,
    _kept,
    _read_only,
    empirical_robust_risk,
)
from .dimensions import vc

__all__ = [
    "LearnerConfig",
    "DiscretizedSet",
    "CandidateSet",
    "BoostResult",
    "RealizableRunReport",
    "WeakLearnerFailure",
    "BoostingFailure",
    "build_candidates",
    "inflate",
    "discretize",
    "weak_learn",
    "alpha_boost",
    "sparsify",
    "learn_realizable",
    "learn_realizable_report",
    "compression_bound",
]

WEAK_ERROR_BOUND = 1.0 / 3.0
CANDIDATE_ENUMERATION_LIMIT = 500_000
_SCORE_BLOCK = 1 << 17  # count vectors x members per product in build_candidates, and per check in sparsify
ALPHA = 0.125
MARGIN_TARGET = Fraction(5, 9)
# stages per stage-cache slot; 20,000 separation trials on proper-failure(2) at seed 7 meet 360
STAGE_CACHE_ENTRIES = 1024


class WeakLearnerFailure(RuntimeError):
    """No candidate achieved weighted error below 1/3: n is too small."""

    def __init__(self, min_error: float):
        super().__init__(
            f"no candidate has weighted error < 1/3 (best = {min_error:.6f}); "
            "the candidate subset size n is too small"
        )
        self.min_error = min_error


class BoostingFailure(RuntimeError):
    """The round cap was reached before every point met the margin target."""

    def __init__(self, achieved_margin: Fraction, rounds: int):
        super().__init__(
            f"margin target not reached after {rounds} rounds "
            f"(achieved min margin {achieved_margin})"
        )
        self.achieved_margin = achieved_margin
        self.rounds = rounds


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs of the compression-boosting pipeline.

    `n_initial` defaults to vc(family)+1, is clamped to the sample size and
    doubles on weak-learner failure up to it.  The rest is fixed: the
    realizable round cap ceil(1 + 48 ln |discretized|) + 10
    (`default_round_cap`), boosting step `ALPHA` 1/8, `MARGIN_TARGET` 5/9
    (which leaves the 1/18 sparsification slack above 1/2), and sparsify's
    search for the smallest strictly-correct sub-vote, bounded by
    `CANDIDATE_ENUMERATION_LIMIT`.  `seed` is read by no library code (no
    step draws randomness); it stays while `perfbench/workloads.py` passes it.
    """

    n_initial: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_initial is not None:
            object.__setattr__(self, "n_initial", _checked_int("n_initial", self.n_initial, 1))


@dataclass(frozen=True)
class CandidateSet:
    """Distinct oracle outputs over size-n subsequences, as member indices, with provenance.

    `members` lists, ascending, the indices in the family the oracle ran
    over, and `provenance[i]` is an ordered index tuple whose subsequence
    makes the oracle return `members[i]`: the one of the greatest count
    vector over the distinct examples that does (see `build_candidates`).
    """

    members: tuple[int, ...]
    provenance: tuple[tuple[int, ...], ...]
    subset_size: int

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class DiscretizedSet:
    """One representative inflated point per distinct candidate error pattern.

    `points` (intp) and `labels` (int8) list the representatives in point
    order; `wrong[c, j]` is True when candidate c errs on representative j.
    """

    points: np.ndarray
    labels: np.ndarray
    wrong: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class BoostResult:
    voter_ids: tuple[int, ...]
    min_margin: Fraction

    @property
    def rounds(self) -> int:
        return len(self.voter_ids)


@dataclass(frozen=True)
class RealizableRunReport:
    """Diagnostics of one realizable run (the predictor plus pipeline sizes).

    `sparsified_to` is the vote's voter count: the size of the smallest
    sub-multiset of the T boosted voters whose majority is strictly correct
    on every representative, else T (no smaller one, or the search's limit).
    """

    predictor: MajorityVotePredictor
    n_used: int
    inflated_size: int
    discretized_size: int
    rounds: int
    min_margin: Fraction
    sparsified_to: int

    @property
    def compression_size(self) -> int:
        return self.predictor.compression_size


def build_candidates(
    family: HypothesisFamily,
    sample: Sample,
    perturbations: PerturbationMap,
    n: int,
) -> CandidateSet:
    """Oracle outputs over all size-n subsequences, deduplicated by member index.

    Subsequences with equal example multisets share one oracle call: the
    multisets are count vectors over `sample.distinct`, generated a block
    at a time in descending lexicographic order and scored by one matrix
    product per block.  Candidates come in member order, and the provenance
    of each is `_indices` of the greatest count vector that yields it, so
    results match a naive scan over all C(m, n) index combinations that
    keeps that vector per member.  Family rows are distinct, so distinct
    members are distinct labelings.
    """
    n = _checked_int("subset size n", n, 1, len(sample))
    distinct = sample.distinct
    mistakes = family.robust_table(perturbations).loss_at(distinct.points, distinct.labels)
    members, vectors = _enumerated_candidates(mistakes, distinct.counts, n)
    return CandidateSet(members, tuple(_indices(distinct.positions, v) for v in vectors), n)


def _enumerated_candidates(
    mistakes: np.ndarray, counts: Sequence[int], n: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The members the oracle returns on a size-n multiset, ascending, and the greatest count vector yielding each.

    `mistakes` is the (members, distinct examples) robust mistake matrix and
    `counts[s]` the copies of distinct example s a multiset may take; count
    vectors are compared lexicographically.  n is checked by the caller.
    """
    d = len(counts)
    # C(d + n - 1, n) bounds the count, so it is computed only near the limit
    if math.comb(d + n - 1, n) > CANDIDATE_ENUMERATION_LIMIT:
        total = _multiset_count(counts, n)
        if total > CANDIDATE_ENUMERATION_LIMIT:
            raise ContractError(
                f"candidate enumeration needs {total} multisets of size {n} over {d} distinct "
                f"examples, more than CANDIDATE_ENUMERATION_LIMIT = {CANDIDATE_ENUMERATION_LIMIT}"
            )

    scores = mistakes.T.astype(np.float64)

    available_after = [0] * (d + 1)
    for slot in range(d - 1, -1, -1):
        available_after[slot] = available_after[slot + 1] + counts[slot]

    # A multiset taking k copies of distinct example s adds k * wrong[:, s] to
    # every member's mistake count.  Count vectors are met in descending
    # lexicographic order and scored a block at a time in one float product,
    # exact since the counts are integers <= n; argmin takes the lowest
    # member on ties, as the oracle does.  A member's first vector is its greatest.
    block = max(1, _SCORE_BLOCK // len(mistakes))
    vector = [0] * d
    vectors: list[int] = []  # the block's count vectors, concatenated
    greatest: dict[int, tuple[int, ...]] = {}

    def score() -> None:
        mistakes = np.array(vectors, dtype=np.float64).reshape(-1, d) @ scores
        for i, member in enumerate(mistakes.argmin(axis=1).tolist()):
            if member not in greatest:
                greatest[member] = tuple(vectors[i * d : (i + 1) * d])
        vectors.clear()

    def fill(slot: int, remaining: int) -> None:
        if remaining == 0:
            vectors.extend(vector)
            if len(vectors) == block * d:
                score()
            return
        # k copies of this example leave remaining - k for the later ones, which hold `rest`
        rest = available_after[slot + 1]
        for k in range(min(counts[slot], remaining), max(remaining - rest, 0) - 1, -1):
            vector[slot] = k
            fill(slot + 1, remaining - k)
        vector[slot] = 0

    fill(0, n)
    if vectors:
        score()
    members = tuple(sorted(greatest))
    return members, tuple(greatest[c] for c in members)


def _indices(runs: Sequence[Sequence[int]], vector: Sequence[int]) -> tuple[int, ...]:
    """A count vector's index tuple under the positions `runs`.

    It takes the first k positions of each distinct example the vector
    holds k copies of, sorted.
    """
    return tuple(sorted(itertools.chain.from_iterable([run[:k] for run, k in zip(runs, vector)])))


def _multiset_count(counts: Sequence[int], n: int) -> int:
    """Number of size-n multisets taking at most counts[i] copies of item i.

    A bounded-composition count: after each item, ways[r] holds the number
    of ways to pick r copies from the items so far.
    """
    ways = [1] + [0] * n
    for c in counts:
        prefix = [0, *itertools.accumulate(ways)]
        ways = [prefix[r + 1] - prefix[max(0, r - c)] for r in range(n + 1)]
    return ways[n]


def inflate(sample: Sample, perturbations: PerturbationMap) -> tuple[np.ndarray, np.ndarray]:
    """Expand the sample to all perturbation points, labeled by min-index owner.

    Returns (points, labels) as read-only intp and int8 arrays sorted by
    point, with exactly one entry per point of the union of the perturbation
    sets; a point reachable from several examples takes the label of the
    earliest one.
    """
    # a repeat reaches the same points as its first appearance, so the
    # distinct examples, in first-appearance order, own exactly what the sample owns
    distinct = sample.distinct
    reach, begins = perturbations.balls(distinct.points)
    points, first = np.unique(reach, return_index=True)  # first occurrence = min-index owner
    owner = np.searchsorted(begins, first, side="right") - 1  # the ball holding each first occurrence
    return _read_only(points), _read_only(distinct.labels[owner])


def discretize(inflated: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> DiscretizedSet:
    """Keep one point of an `inflate` result per distinct error pattern of `rows`.

    `rows` is a (candidates, space size) +1/-1 label matrix, such as
    `family.matrix[list(candidates.members)]`.  The representative of a
    pattern is its first point in point order; any representative works
    since the majority margin only depends on the pattern.  Patterns are
    compared as the mistake matrix's column masks (`core._column_masks`),
    and the kept columns stay in point order.
    """
    if len(rows) == 0:
        raise ContractError("discretization requires a nonempty candidate set")
    points, labels = inflated
    wrong = rows[:, points] != labels
    first: dict[int, int] = {}  # mask -> its first column; kept in column order, so ascending
    keep = [j for j, mask in enumerate(_column_masks(wrong)) if first.setdefault(mask, j) == j]
    return DiscretizedSet(points[keep], labels[keep], _read_only(wrong[:, keep]))


def weak_learn(wrong: np.ndarray, dist: np.ndarray) -> tuple[int, np.ndarray]:
    """Lowest-index candidate minimizing the dist-weighted error, with its correct points.

    `wrong` is the (candidates, points) mistake matrix.  Raises
    WeakLearnerFailure when even the best candidate has error >= 1/3, which
    signals the caller to grow the candidate subset size.
    """
    if len(wrong) == 0:
        raise ContractError("weak learning requires a nonempty candidate set")
    errors = wrong @ dist
    index = int(np.argmin(errors))
    if errors[index] >= WEAK_ERROR_BOUND:
        raise WeakLearnerFailure(float(errors[index]))
    return index, ~wrong[index]


def alpha_boost(
    wrong: np.ndarray,
    margin_target: Fraction | None = MARGIN_TARGET,
    T_max: int | None = None,
) -> BoostResult:
    """Multiplicative-weights boosting of `weak_learn` over a mistake matrix.

    `wrong` is the (candidates, points) mistake matrix; each round's voter is
    `weak_learn(wrong, dist)`, starting from the uniform distribution, and
    weights update by exp(-2 ALPHA) = exp(-1/4) on points that voter gets
    right.  With margin_target set, stops at the first round where every
    point's exact vote margin reaches the target and raises BoostingFailure
    at T_max otherwise; with margin_target None, runs exactly T_max rounds.
    A candidate with no mistakes would win every round, so it is returned as
    the one voter, with margin 1, in both modes.
    """
    n_points = wrong.shape[1]
    if n_points < 1:
        raise ContractError("boosting requires a nonempty point set")
    T_max = default_round_cap(n_points) if T_max is None else _checked_int("T_max", T_max, 1)
    # A row with no mistakes has weighted error exactly 0.0 under every
    # distribution, while every lower-index row errs on a point of positive
    # weight, so weak_learn picks the lowest perfect row in round 1.  It is
    # right everywhere, so the update scales every weight by the same factor:
    # the weights stay positive and it wins every later round too, with vote
    # margin 1.  One vote of it has the sign of any number of copies.
    perfect = np.flatnonzero(~wrong.any(axis=1))
    if perfect.size and (margin_target is None or margin_target <= 1):
        return BoostResult((int(perfect[0]),), Fraction(1))
    target = None if margin_target is None else Fraction(margin_target).as_integer_ratio()
    dist = np.full(n_points, 1.0 / n_points)
    counts = np.zeros(n_points, dtype=np.int64)
    ids: list[int] = []
    for t in range(1, T_max + 1):
        voter_id, correct = weak_learn(wrong, dist)
        ids.append(voter_id)
        counts += correct
        low = int(counts.min())
        if target is not None and low * target[1] >= target[0] * t:
            return BoostResult(tuple(ids), Fraction(low, t))
        dist = dist * np.exp(-2.0 * ALPHA * correct)
        dist = dist / dist.sum()
    margin = Fraction(low, T_max)
    if margin_target is None:
        return BoostResult(tuple(ids), margin)
    raise BoostingFailure(margin, T_max)


def default_round_cap(n_points: int) -> int:
    """Round ceiling ceil(1 + 48 ln |points|) + 10 used by the realizable path."""
    n_points = _checked_int("n_points", n_points, 0)
    return math.ceil(1.0 + 48.0 * math.log(max(n_points, 1))) + 10


def sparsify(voter_ids: Sequence[int], wrong: np.ndarray) -> tuple[int, ...]:
    """Positions into `voter_ids` (with replacement) of the smallest vote whose majority stays strictly correct.

    Voter ids index the rows of the (candidates, points) mistake matrix
    `wrong`, so voter v is correct on point j exactly when `wrong[v, j]` is
    False; each id must be an integer in 0..len(wrong) - 1, so a negative
    id or a bool is refused rather than read as a row.  Requires the full
    ensemble to hold a strict majority on every point (guaranteed upstream
    by the 5/9 margin, which leaves 1/18 slack over 1/2).  The vote is
    `_smallest_vote`'s: the first sub-multiset, by size and then in boost
    order, whose strict majority is correct on every point, or the full list
    0..T-1 when none smaller than T exists or the search passes its limit.
    """
    if len(voter_ids) == 0:
        raise ContractError("sparsification requires at least one voter")
    voter_ids = [_checked_int("voter id", v, 0, len(wrong) - 1) for v in voter_ids]
    return _smallest_vote(_majority_correct(voter_ids, wrong))


def _majority_correct(voter_ids: Sequence[int], wrong: np.ndarray) -> np.ndarray:
    """The voters' correctness rows `~wrong[voter_ids]`, once their strict majority on every point is checked."""
    correct = ~wrong[np.asarray(voter_ids, dtype=np.intp)]
    if not np.all(2 * correct.sum(axis=0) > len(voter_ids)):
        raise ContractError(
            "voters lack a strict majority on some discretized point; "
            "the margin precondition of sparsification is violated"
        )
    return correct


def _smallest_vote(correct: np.ndarray) -> tuple[int, ...]:
    """`sparsify`'s search over checked rows of `_majority_correct`: positions of the smallest strictly-correct vote.

    With T rows, odd sizes s = 1, 3, 5, ... < T are tried in turn; an even
    size is never needed, since dropping one voter from a strict majority
    of 2k leaves a strict majority of 2k - 1.  Each size runs over the
    multisets of the distinct rows, in lexicographic order of their first
    positions, and the first whose strict majority is correct on every
    column is returned as those positions, ascending: the lexicographically
    first such multiset of positions.  When no size below T holds one, or
    the next size would take the multisets tried past
    `CANDIDATE_ENUMERATION_LIMIT`, the full list 0..T-1 is kept, which the
    precondition makes correct.
    """
    T = len(correct)
    first: dict[bytes, int] = {}  # row -> its first position; kept in position order, so ascending
    firsts = np.array([t for t, row in enumerate(correct) if first.setdefault(row.tobytes(), t) == t])
    rows, tried = correct[firsts], 0
    for s in range(1, T, 2):
        tried += math.comb(len(firsts) + s - 1, s)
        if tried > CANDIDATE_ENUMERATION_LIMIT:
            break
        multisets = itertools.combinations_with_replacement(range(len(firsts)), s)
        block = max(1, _SCORE_BLOCK // (s * max(rows.shape[1], 1)))  # multisets x voters x points per check
        while chunk := list(itertools.islice(multisets, block)):
            picks = np.array(chunk)
            held = (2 * rows[picks].sum(axis=1) > s).all(axis=1)
            if held.any():
                return tuple(firsts[picks[held.argmax()]].tolist())
    return tuple(range(T))


_Boosted = TypeVar("_Boosted")


def _boost_growing_n(
    family: HypothesisFamily,
    m: int,
    n_initial: int | None,
    outcome: Callable[[int], _Boosted],
) -> _Boosted:
    """The boosting outcome of the size-n subsamples of m examples, doubling n until weak learning succeeds.

    The loop both learners share: n starts at min(n_initial, m), where a
    None `n_initial` means vc(family) + 1 (`_default_n_initial`), and
    `outcome` maps n to the outcome of boosting the candidates of the size-n
    subsamples.  A WeakLearnerFailure from it doubles n (capped at m) or, at
    n = m, propagates.
    """
    n = min(_default_n_initial(family) if n_initial is None else n_initial, m)
    while True:
        try:
            return outcome(n)
        except WeakLearnerFailure:
            if n == m:
                raise
            n = min(m, 2 * n)


def _default_n_initial(family: HypothesisFamily) -> int:
    """vc(family) + 1, the default start of n; found once per family and kept on it."""
    return _kept(family, "_default_n_initial", (), lambda: vc(family).value + 1)


@dataclass(eq=False)
class _Stages:
    """The deterministic stages of one sample key at one n and one set of counts clipped at n.

    `members` are the candidate members, ascending, and `vectors[i]` the
    greatest count vector whose multiset makes the oracle return
    `members[i]`, from which `_indices` builds provenance for any sample of
    the key: one vector per candidate.  `inflated` is the key's read-only
    inflation, which the closing fit check reads.  `voters` are the
    candidate ids of the sparsified vote, the boost's voters at the
    positions `sparsify` keeps, found with the stage.  When no candidate is
    a weak learner, `boost` and `voters` are None and `min_error` is the
    best weighted error.
    """

    n: int
    members: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]
    inflated: tuple[np.ndarray, np.ndarray]
    discretized_size: int
    boost: BoostResult | None
    voters: tuple[int, ...] | None = None
    min_error: float | None = None


def _build_stages(
    family: HypothesisFamily,
    mistakes: np.ndarray,
    inflated: tuple[np.ndarray, np.ndarray],
    n: int,
    clipped_counts: tuple[int, ...],
) -> _Stages:
    """The `_Stages` of the size-n multisets over the distinct examples, a weak-learner failure included.

    It reads their mistake matrix, inflation and counts clipped at n, never sample positions.
    """
    members, vectors = _enumerated_candidates(mistakes, clipped_counts, n)
    wrong = discretize(inflated, family.matrix[list(members)]).wrong
    try:
        boost = alpha_boost(wrong)
    except WeakLearnerFailure as failure:
        return _Stages(n, members, vectors, inflated, wrong.shape[1], None, min_error=failure.min_error)
    chosen = _smallest_vote(_majority_correct(boost.voter_ids, wrong))
    voters = tuple(boost.voter_ids[j] for j in chosen)
    return _Stages(n, members, vectors, inflated, wrong.shape[1], boost, voters)


def _stage_slot(family: HypothesisFamily, perturbations: PerturbationMap) -> dict[tuple, _Stages]:
    """The family's stages under `perturbations` per (sample key, n, clipped counts); the last map's are kept."""
    return _kept(family, "_learner_stages", (perturbations,), dict)


def _sample_key(sample: Sample) -> tuple[bytes, bytes]:
    """The stage cache's key of a sample: its distinct points and labels, in first-appearance order, as bytes."""
    distinct = sample.distinct
    return distinct.points.tobytes(), distinct.labels.tobytes()


def _first_dead_example(mistakes: np.ndarray) -> int | None:
    """The first distinct example s with no member robustly correct on distinct examples 0..s, or None.

    `mistakes` is the (members, distinct examples) robust mistake matrix.
    The prefixes of a sample cover the prefixes of its distinct examples,
    each growing where an example first appears, so the first prefix of the
    sample with no robustly consistent member ends at
    `sample.distinct.positions[s][0]`.
    """
    correct = ~mistakes
    dead = np.flatnonzero(~np.logical_and.accumulate(correct, axis=1).any(axis=0))
    return int(dead[0]) if dead.size else None


def _vote(
    family: HypothesisFamily,
    members: Sequence[int],
    vectors: Sequence[Sequence[int]],
    runs: Sequence[Sequence[int]],
    ids: Sequence[int],
) -> MajorityVotePredictor:
    """The vote of candidates `ids`: voter `family[members[i]]`, provenance `_indices(runs, vectors[i])`.

    Both learners build their vote here, each provenance once per distinct i.
    """
    origin = {i: _indices(runs, vectors[i]) for i in set(ids)}
    return MajorityVotePredictor(tuple(family[members[i]] for i in ids), tuple(origin[i] for i in ids))


def _fits_inflation(predictor: MajorityVotePredictor, inflated: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether the vote labels every inflated point as `inflate` did.

    On a robustly realizable sample, a member robustly correct on every
    example labels each point of a ball with that example's label, so all
    examples whose balls hold a point share its label, the one `inflate`
    gave it.  The vote then has empirical robust risk 0 on the sample
    exactly when it fits the inflation.
    """
    points, labels = inflated
    return bool((predictor.label_row[points] == labels).all())


def learn_realizable_report(
    family: HypothesisFamily,
    sample: Sample,
    perturbations: PerturbationMap,
    config: LearnerConfig | None = None,
) -> RealizableRunReport:
    """Full pipeline run returning the predictor plus per-stage diagnostics.

    No step draws randomness: the report is a function of its arguments.
    Inflation, candidates, discretization, boosting (or its weak-learner
    failure) and the sparsified vote come from the family's stage cache
    when this (map, distinct examples) key was met before at this n and
    these counts clipped at n.
    """
    config = config or LearnerConfig()
    slot, key, distinct = _stage_slot(family, perturbations), _sample_key(sample), sample.distinct
    runs = distinct.positions
    built: list = []  # the mistake matrix and inflation, made on this call's first miss

    def stages(n: int) -> _Stages:
        clipped = tuple(min(len(run), n) for run in runs)
        found = slot.get((key, n, clipped))
        if found is None:
            if not built:
                mistakes = family.robust_table(perturbations).loss_at(distinct.points, distinct.labels)
                dead = _first_dead_example(mistakes)
                if dead is not None:
                    offending = runs[dead][0]
                    example = sample[offending]
                    raise ContractError(
                        f"sample is not robustly realizable: no member is robustly correct on "
                        f"examples 0..{offending}; offending example {offending} is "
                        f"(point={example.point}, label={example.label:+d})"
                    )
                built[:] = mistakes, inflate(sample, perturbations)
            found = _build_stages(family, *built, n, clipped)
            if len(slot) >= STAGE_CACHE_ENTRIES:
                del slot[next(iter(slot))]  # the oldest stage
            slot[key, n, clipped] = found
        if found.boost is None:
            raise WeakLearnerFailure(found.min_error)
        return found

    found = _boost_growing_n(family, len(sample), config.n_initial, stages)
    predictor = _vote(family, found.members, found.vectors, runs, found.voters)
    if not _fits_inflation(predictor, found.inflated):
        risk = empirical_robust_risk(predictor, sample, perturbations)
        raise RuntimeError(f"pipeline produced nonzero empirical robust risk {risk}")
    return RealizableRunReport(
        predictor=predictor,
        n_used=found.n,
        inflated_size=len(found.inflated[0]),
        discretized_size=found.discretized_size,
        rounds=found.boost.rounds,
        min_margin=found.boost.min_margin,
        sparsified_to=len(found.voters),
    )


def learn_realizable(
    family: HypothesisFamily,
    sample: Sample,
    perturbations: PerturbationMap,
    config: LearnerConfig | None = None,
) -> MajorityVotePredictor:
    """Majority-vote predictor with empirical robust risk 0 on the sample."""
    return learn_realizable_report(family, sample, perturbations, config).predictor


def compression_bound(k: int, m: int, delta: float) -> float:
    """Generalization bound (k ln m + ln(1/delta)) / (m - k) for size-k compressions."""
    k = _checked_int("k", k, 1)
    m = _checked_int("m", m, k + 1, message=f"compression bound requires integers m > k >= 1, got k={k}, m={m}")
    _checked_delta(delta)
    return (k * math.log(m) + math.log(1.0 / delta)) / (m - k)
