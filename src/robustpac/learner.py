"""The improper realizable learner: compression-boosting over oracle candidates.

Pipeline: generate candidate predictors by running the exact robust-ERM oracle
on every size-n subsequence of the sample, inflate the sample to all
perturbation points with min-index labels, discretize the inflation down to
one representative per candidate error pattern, boost weak candidates by
multiplicative weights until every representative has vote margin >= 5/9
(doubling n while no candidate is a weak learner, in `_boost_growing_n`,
which the agnostic reduction shares), then sparsify the ensemble to a few
voters while preserving strict majority correctness.  Each surviving voter
carries the sample indices that reconstruct it, so the final majority vote
is a sample compression scheme and the compression generalization bound
applies.

The data between stages are arrays: the inflation is a (points, labels)
pair, the discretized set adds the (candidates, representatives) mistake
matrix `wrong`, and boosting and sparsification both read correctness as
`~wrong` rows indexed by candidate id.

Inflation, discretization, boosting and the default sparsify size are pure
functions of the sample's distinct examples (in first-appearance order) and
the candidate members, for a given family and perturbation map.  The
realizable learner keeps them in a stage cache held on the family, one slot
for the last map met (as `HypothesisFamily.robust_table` keeps its table),
keyed by the distinct points and labels as bytes plus `candidates.members`
and holding at most `STAGE_CACHE_ENTRIES` entries, the oldest dropped
first.  Candidate building (whose provenance depends on positions), the
realizability check, sparsification with its draws and the closing fit
check run on every call, so outputs and draws do not depend on what the
cache holds.
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
    _same_key,
    empirical_robust_risk,
)
from .dimensions import dual_vc, vc

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
_SCORE_BLOCK = 1 << 17  # count vectors x members per product in build_candidates
ALPHA = 0.125
MARGIN_TARGET = Fraction(5, 9)
SPARSIFY_ATTEMPTS = 100
# entries per stage-cache slot; 20,000 separation trials on proper-failure(2) at seed 7 meet 612 keys
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
    doubles on weak-learner failure up to it.  `N_sparsify` defaults to the
    candidate family's dual VC dimension (minimum 3, forced odd).  The
    search is skipped when boosting returns one voter, since sparsify keeps
    a lone voter, and when the candidates' label rows have fewer than 16
    distinct columns: shattering d candidates takes 2^d distinct columns, so
    the dual VC dimension is at most 3 and N is 3.  Columns are counted only
    for 4 or more candidates, since 3 rows have at most 2^3 = 8.  The rest
    is fixed: the realizable round cap ceil(1 + 48 ln |discretized|) + 10
    (`default_round_cap`), boosting step `ALPHA` 1/8, `MARGIN_TARGET` 5/9
    (which leaves the 1/18 sparsification slack above 1/2) and
    `SPARSIFY_ATTEMPTS` 100 draws before the full-list fallback.  `seed` is
    read by no library code (sparsify draws from the caller's generator);
    it stays while `perfbench/workloads.py` passes it.
    """

    n_initial: int | None = None
    N_sparsify: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_initial", "N_sparsify"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ContractError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class CandidateSet:
    """Distinct oracle outputs over size-n subsequences, as member indices, with provenance.

    `members[i]` is the index of candidate i in the family the oracle ran
    over, and `provenance[i]` is the lexicographically first ordered index
    tuple whose subsequence makes the oracle return it; candidates are in
    provenance order.
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
    """Diagnostics of one realizable run (the predictor plus pipeline sizes)."""

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
    at a time and scored by one matrix product per block.  The provenance
    kept for each distinct candidate is the lexicographically first index
    tuple that produces it, so results match a naive scan over all C(m, n)
    index combinations.  Family rows are distinct, so distinct members are
    distinct labelings.
    """
    m = len(sample)
    if not 1 <= n <= m:
        raise ContractError(f"subset size n={n} must lie in [1, {m}]")
    distinct = sample.distinct
    runs = distinct.positions
    counts = [len(r) for r in runs]
    d = len(runs)
    # C(d + n - 1, n) bounds the count, so it is computed only near the limit
    if math.comb(d + n - 1, n) > CANDIDATE_ENUMERATION_LIMIT:
        total = _multiset_count(counts, n)
        if total > CANDIDATE_ENUMERATION_LIMIT:
            raise ContractError(
                f"candidate enumeration needs {total} multisets of size {n} over {d} distinct "
                f"examples, more than CANDIDATE_ENUMERATION_LIMIT = {CANDIDATE_ENUMERATION_LIMIT}"
            )

    scores = sample._distinct_mistakes(family, perturbations).T.astype(np.float64)

    available_after = [0] * (d + 1)
    for slot in range(d - 1, -1, -1):
        available_after[slot] = available_after[slot + 1] + counts[slot]

    # A multiset taking k copies of distinct example s adds k * wrong[:, s] to
    # every member's mistake count, and its first index tuple is the first k
    # positions of each example, sorted.  Count vectors are scored a block at
    # a time in one float product, exact since the counts are integers <= n;
    # argmin takes the lowest member on ties, as the oracle does.
    block = max(1, _SCORE_BLOCK // len(family))
    vector = [0] * d
    vectors: list[int] = []  # the block's count vectors, concatenated
    tuples: list[tuple[int, ...]] = []
    first: dict[int, tuple[int, ...]] = {}

    def score() -> None:
        mistakes = np.array(vectors, dtype=np.float64).reshape(len(tuples), d) @ scores
        for indices, member in zip(tuples, mistakes.argmin(axis=1).tolist()):
            known = first.get(member)
            if known is None or indices < known:
                first[member] = indices
        vectors.clear()
        tuples.clear()

    def fill(slot: int, remaining: int, picked: tuple[int, ...]) -> None:
        if remaining == 0:
            vectors.extend(vector)
            tuples.append(tuple(sorted(picked)))
            if len(tuples) == block:
                score()
            return
        # k copies of this example leave remaining - k for the later ones, which hold `rest`
        rest = available_after[slot + 1]
        for k in range(min(counts[slot], remaining), max(remaining - rest, 0) - 1, -1):
            vector[slot] = k
            fill(slot + 1, remaining - k, picked + runs[slot][:k])
        vector[slot] = 0

    fill(0, n, ())
    if tuples:
        score()
    order = sorted(first, key=first.__getitem__)  # index tuples are distinct
    return CandidateSet(tuple(order), tuple(first[c] for c in order), n)


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
    if len(sample) == 0:
        raise ContractError("inflation requires a nonempty sample")
    # a repeat reaches the same points as its first appearance, so the
    # distinct examples, in first-appearance order, own exactly what the sample owns
    distinct = sample.distinct
    reach, begins = perturbations.balls(distinct.points)
    points, first = np.unique(reach, return_index=True)  # first occurrence = min-index owner
    owner = np.searchsorted(begins, first, side="right") - 1  # the ball holding each first occurrence
    labels = distinct.labels[owner]
    points.setflags(write=False)
    labels.setflags(write=False)
    return points, labels


def discretize(inflated: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> DiscretizedSet:
    """Keep one point of an `inflate` result per distinct error pattern of `rows`.

    `rows` is a (candidates, space size) +1/-1 label matrix, such as
    `family.matrix[list(candidates.members)]`.  The representative of a
    pattern is its first point in point order; any representative works
    since the majority margin only depends on the pattern.  Patterns are
    compared as bit-packed columns of the mistake matrix, and the kept
    columns stay in point order.
    """
    if len(rows) == 0:
        raise ContractError("discretization requires a nonempty candidate set")
    points, labels = inflated
    wrong = rows[:, points] != labels
    keep = np.sort(np.unique(_column_keys(wrong), return_index=True)[1])
    wrong = wrong[:, keep]
    wrong.setflags(write=False)
    return DiscretizedSet(points[keep], labels[keep], wrong)


def _column_keys(matrix: np.ndarray) -> np.ndarray:
    """One void key per column of a bool matrix, its bits packed: equal columns, equal keys."""
    packed = np.packbits(matrix, axis=0)
    return np.ascontiguousarray(packed.T).view(np.dtype((np.void, len(packed)))).ravel()


def weak_learn(wrong: np.ndarray, dist: np.ndarray) -> tuple[int, np.ndarray]:
    """Lowest-index candidate minimizing the dist-weighted error, with its correct points.

    `wrong` is the (candidates, points) mistake matrix.  Raises
    WeakLearnerFailure when even the best candidate has error >= 1/3, which
    signals the caller to grow the candidate subset size.
    """
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
    A candidate with no mistakes would win every round, so it is returned
    without running them.
    """
    n_points = wrong.shape[1]
    if n_points < 1:
        raise ContractError("boosting requires a nonempty point set")
    if T_max is None:
        T_max = default_round_cap(n_points)
    if T_max < 1:
        raise ContractError(f"T_max must be >= 1, got {T_max}")
    # A row with no mistakes has weighted error exactly 0.0 under every
    # distribution, while every lower-index row errs on a point of positive
    # weight, so weak_learn picks the lowest perfect row in round 1.  It is
    # right everywhere, so the update scales every weight by the same factor:
    # the weights stay positive and it wins every later round too, with vote
    # margin 1.  The loop would return it once, or T_max times without a target.
    perfect = np.flatnonzero(~wrong.any(axis=1))
    if perfect.size and (margin_target is None or margin_target <= 1):
        rounds = T_max if margin_target is None else 1
        return BoostResult((int(perfect[0]),) * rounds, Fraction(1))
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
    return math.ceil(1.0 + 48.0 * math.log(max(n_points, 1))) + 10


def sparsify(
    voter_ids: Sequence[int],
    wrong: np.ndarray,
    N: int,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Positions into `voter_ids` (with replacement) whose majority stays strictly correct.

    Voter ids index the rows of the (candidates, points) mistake matrix
    `wrong`, so voter v is correct on point j exactly when `wrong[v, j]` is
    False.  Requires the full ensemble to hold a strict majority on every
    point (guaranteed upstream by the 5/9 margin, which leaves 1/18 slack
    over 1/2).  Draws N positions from `rng` up to `SPARSIFY_ATTEMPTS` times,
    then falls back to the full voter list, which satisfies the property by
    the precondition.
    """
    T = len(voter_ids)
    if T == 0:
        raise ContractError("sparsification requires at least one voter")
    correct = ~wrong[np.asarray(voter_ids, dtype=np.intp)]
    totals = correct.sum(axis=0)
    if not np.all(2 * totals > T):
        raise ContractError(
            "voters lack a strict majority on some discretized point; "
            "the margin precondition of sparsification is violated"
        )
    if T == 1:
        return (0,)
    for _ in range(SPARSIFY_ATTEMPTS):
        draw = rng.integers(0, T, size=N)
        if 2 * correct[draw].sum(axis=0).min() > N:
            return tuple(int(i) for i in draw)
    return tuple(range(T))


_Boosted = TypeVar("_Boosted")


def _boost_growing_n(
    family: HypothesisFamily,
    sample: Sample,
    perturbations: PerturbationMap,
    n_initial: int | None,
    boost: Callable[[CandidateSet], _Boosted],
) -> tuple[CandidateSet, _Boosted]:
    """Boost the candidates of size-n subsamples, doubling n until weak learning succeeds.

    The loop both learners share: n starts at min(n_initial, |sample|),
    where a None `n_initial` means vc(family) + 1 (`_default_n_initial`),
    and `boost` maps the candidate set to its boosting outcome.  A
    WeakLearnerFailure from it doubles n (capped at |sample|) or, at
    n = |sample|, propagates.  Returns the candidates and the outcome.
    """
    m = len(sample)
    n = min(_default_n_initial(family) if n_initial is None else n_initial, m)
    while True:
        candidates = build_candidates(family, sample, perturbations, n)
        try:
            return candidates, boost(candidates)
        except WeakLearnerFailure:
            if n == m:
                raise
            n = min(m, 2 * n)


def _default_n_initial(family: HypothesisFamily) -> int:
    """vc(family) + 1, the default start of n; found once per family and kept on it."""
    n = family.__dict__.get("_default_n_initial")
    if n is None:
        n = vc(family).value + 1
        object.__setattr__(family, "_default_n_initial", n)
    return n


@dataclass(eq=False)
class _Stages:
    """The deterministic stage results of one (distinct examples, candidate members) key.

    `inflated` and `wrong` are read-only; `n_sparse`, the default sparsify
    size, is found on the first run that leaves `N_sparsify` unset.
    """

    inflated: tuple[np.ndarray, np.ndarray]
    wrong: np.ndarray
    boost: BoostResult
    n_sparse: int | None = None


def _stage_slot(family: HypothesisFamily, perturbations: PerturbationMap) -> dict[tuple, _Stages]:
    """The family's stage cache under `perturbations`; the one for the last map asked for is kept.

    It is held on the family, so it lives no longer than the family does.
    """
    kept = family.__dict__.get("_learner_stages")
    if kept is None or not _same_key(kept[0], (perturbations,)):
        kept = ((perturbations,), {})
        object.__setattr__(family, "_learner_stages", kept)
    return kept[1]


def _default_sparsify_size(family: HypothesisFamily, members: tuple[int, ...], boost: BoostResult) -> int:
    """The candidates' dual VC dimension (at least 3, made odd), searched only when it can matter."""
    if len(boost.voter_ids) == 1:
        return 1  # sparsify keeps a lone voter whatever N is, so skip the dual-VC search
    if len(members) <= 3:  # 3 rows have at most 2^3 = 8 distinct columns
        return 3
    rows = family.matrix[list(members)]
    if len(set(_column_keys(rows == 1).tolist())) < 16:
        return 3  # below 16 distinct columns dual_vc <= 3 (2^dual_vc are needed), so max(3, .) is 3
    n_sparse = max(3, dual_vc(HypothesisFamily(rows)).value)
    return n_sparse + 1 if n_sparse % 2 == 0 else n_sparse


def _first_unrealizable_index(
    family: HypothesisFamily, sample: Sample, perturbations: PerturbationMap
) -> int | None:
    """Index i such that sample[:i+1] has no robustly consistent member, or None.

    The prefixes of the sample cover the prefixes of its distinct examples,
    each growing where an example first appears, so the first dead prefix
    ends at the first position of the first dead distinct example.
    """
    correct = ~sample._distinct_mistakes(family, perturbations)
    dead = np.flatnonzero(~np.logical_and.accumulate(correct, axis=1).any(axis=0))
    return sample.distinct.positions[dead[0]][0] if dead.size else None


def _fits_inflation(predictor: MajorityVotePredictor, inflated: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether the vote labels every inflated point as `inflate` did.

    On a robustly realizable sample, a member robustly correct on every
    example labels each point of a ball with that example's label, so all
    examples whose balls hold a point share its label, the one `inflate`
    gave it.  The vote then has empirical robust risk 0 on the sample
    exactly when it fits the inflation.
    """
    points, labels = inflated
    return bool(np.array_equal(predictor.label_row[points], labels))


def learn_realizable_report(
    family: HypothesisFamily,
    sample: Sample,
    perturbations: PerturbationMap,
    config: LearnerConfig | None = None,
    *,
    rng: np.random.Generator,
) -> RealizableRunReport:
    """Full pipeline run returning the predictor plus per-stage diagnostics.

    Sparsification, the only random step, continues the caller's generator
    `rng`.  Inflation, discretization, boosting and the default sparsify
    size come from the family's stage cache when this (map, distinct
    examples, candidate members) key was met before; a set `N_sparsify`
    overrides the cached default without replacing it.
    """
    config = config or LearnerConfig()
    if len(sample) == 0:
        raise ContractError("learning requires a nonempty sample")
    offending = _first_unrealizable_index(family, sample, perturbations)
    if offending is not None:
        example = sample[offending]
        raise ContractError(
            f"sample is not robustly realizable: no member is robustly correct on "
            f"examples 0..{offending}; offending example {offending} is "
            f"(point={example.point}, label={example.label:+d})"
        )

    slot = _stage_slot(family, perturbations)
    distinct = sample.distinct
    sample_key = (distinct.points.tobytes(), distinct.labels.tobytes())
    inflated = None  # built on the first miss of this call

    def stages(candidates: CandidateSet) -> _Stages:
        nonlocal inflated
        key = (*sample_key, candidates.members)
        found = slot.get(key)
        if found is None:
            if inflated is None:
                inflated = inflate(sample, perturbations)
            wrong = discretize(inflated, family.matrix[list(candidates.members)]).wrong
            found = _Stages(inflated, wrong, alpha_boost(wrong))  # a WeakLearnerFailure stores nothing
            if len(slot) >= STAGE_CACHE_ENTRIES:
                del slot[next(iter(slot))]  # the oldest entry
            slot[key] = found
        return found

    candidates, found = _boost_growing_n(family, sample, perturbations, config.n_initial, stages)
    n_sparse = config.N_sparsify
    if n_sparse is None:
        if found.n_sparse is None:
            found.n_sparse = _default_sparsify_size(family, candidates.members, found.boost)
        n_sparse = found.n_sparse
    voter_ids = found.boost.voter_ids
    chosen = sparsify(voter_ids, found.wrong, n_sparse, rng)
    voters = tuple(family[candidates.members[voter_ids[j]]] for j in chosen)
    provenance = tuple(candidates.provenance[voter_ids[j]] for j in chosen)
    predictor = MajorityVotePredictor(voters, provenance)
    if not _fits_inflation(predictor, found.inflated):
        risk = empirical_robust_risk(predictor, sample, perturbations)
        raise RuntimeError(f"pipeline produced nonzero empirical robust risk {risk}")
    return RealizableRunReport(
        predictor=predictor,
        n_used=candidates.subset_size,
        inflated_size=len(found.inflated[0]),
        discretized_size=found.wrong.shape[1],
        rounds=found.boost.rounds,
        min_margin=found.boost.min_margin,
        sparsified_to=len(chosen),
    )


def learn_realizable(
    family: HypothesisFamily,
    sample: Sample,
    perturbations: PerturbationMap,
    config: LearnerConfig | None = None,
    *,
    rng: np.random.Generator,
) -> MajorityVotePredictor:
    """Majority-vote predictor with empirical robust risk 0 on the sample."""
    return learn_realizable_report(family, sample, perturbations, config, rng=rng).predictor


def compression_bound(k: int, m: int, delta: float) -> float:
    """Generalization bound (k ln m + ln(1/delta)) / (m - k) for size-k compressions."""
    if not (isinstance(k, int) and isinstance(m, int)) or not m > k >= 1:
        raise ContractError(f"compression bound requires integers m > k >= 1, got k={k}, m={m}")
    if not 0 < delta < 1:
        raise ContractError(f"delta must lie in (0, 1), got {delta}")
    return (k * math.log(m) + math.log(1.0 / delta)) / (m - k)
