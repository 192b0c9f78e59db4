"""Domain types and exact loss/risk computations for the robust 0-1 setting.

Everything here is finite and exact: instance spaces are index sets
0..size-1, hypotheses are total +1/-1 labelings, and an adversary is an
explicit nonempty set of allowed perturbations per point.  Empirical risks
are returned as `fractions.Fraction`; population risks stay rational
whenever the distribution's probabilities are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "ContractError",
    "StructuralError",
    "InstanceSpace",
    "PerturbationMap",
    "Hypothesis",
    "HypothesisFamily",
    "LabeledExample",
    "Sample",
    "FiniteDistribution",
    "MajorityVotePredictor",
    "Predictor",
    "RobustTable",
    "robust_loss",
    "empirical_robust_risk",
    "population_robust_risk",
    "check_self_containment",
]

PROB_TOLERANCE = 1e-12

Probability = Union[Fraction, float]


class StructuralError(ValueError):
    """Malformed data: indices out of range, bad labels, inconsistent sizes."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _check_label(value: int) -> int:
    if value not in (+1, -1):
        raise StructuralError(f"label must be +1 or -1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class InstanceSpace:
    """A finite set of points identified by index 0..size-1."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise StructuralError(f"instance space must have size >= 1, got {self.size}")

    def __contains__(self, point: int) -> bool:
        return 0 <= point < self.size


@dataclass(frozen=True)
class PerturbationMap:
    """The adversary: for each point, the nonempty set of allowed perturbations.

    Note that x in U(x) is deliberately NOT required; use
    :func:`check_self_containment` to opt into that extra validation.
    """

    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        canonical = []
        for x, s in enumerate(self.sets):
            members = tuple(sorted(set(int(z) for z in s)))
            if not members:
                raise StructuralError(f"perturbation set of point {x} is empty")
            if members[0] < 0 or members[-1] >= len(self.sets):
                raise StructuralError(
                    f"perturbation set of point {x} leaves the instance space: {members}"
                )
            canonical.append(members)
        object.__setattr__(self, "sets", tuple(canonical))

    @classmethod
    def identity(cls, size: int) -> "PerturbationMap":
        """U(x) = {x}: the adversary that cannot move anything."""
        return cls(tuple((x,) for x in range(size)))

    @property
    def size(self) -> int:
        return len(self.sets)

    def __getitem__(self, point: int) -> tuple[int, ...]:
        if not 0 <= point < len(self.sets):
            raise StructuralError(f"point {point} outside instance space of size {self.size}")
        return self.sets[point]

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(members, starts): all sets concatenated in point order, and where each begins."""
        starts = np.cumsum([0] + [len(s) for s in self.sets[:-1]])
        return np.fromiter(chain.from_iterable(self.sets), dtype=np.intp), starts


@dataclass(frozen=True)
class RobustTable:
    """Per label row h and point x: is h constant +1 / constant -1 on U(x)?

    The robust loss sup_{z in U(x)} 1[h(z) != y] is 1 exactly when h is not
    constant y on U(x), so the two (rows, points) matrices hold the whole
    robust loss class.  Both are built in one pass over the CSR layout of
    the perturbation sets, and `loss_at` is the one reader of losses from
    them.
    """

    const_plus: np.ndarray
    const_minus: np.ndarray

    @classmethod
    def build(cls, labels: np.ndarray, perturbations: PerturbationMap) -> "RobustTable":
        """Table of a (rows, space size) +1/-1 label matrix under `perturbations`."""
        if labels.shape[1] != perturbations.size:
            raise StructuralError("perturbation map and labels disagree on the instance space")
        members, starts = perturbations.csr
        gathered = labels[:, members]
        return cls(
            _read_only(np.logical_and.reduceat(gathered == 1, starts, axis=1)),
            _read_only(np.logical_and.reduceat(gathered == -1, starts, axis=1)),
        )

    def loss_at(self, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """(rows, len(points)) bool: robust 0-1 loss of each row on each (point, label) column."""
        size = self.const_plus.shape[1]
        if len(points) and points.max() >= size:
            bad = points[points >= size][0]
            raise StructuralError(f"point {bad} outside instance space of size {size}")
        return np.where(labels == 1, ~self.const_plus[:, points], ~self.const_minus[:, points])


def check_self_containment(perturbations: PerturbationMap) -> None:
    """Opt-in validator: raise unless x in U(x) for every point."""
    for x, s in enumerate(perturbations.sets):
        if x not in s:
            raise StructuralError(f"perturbation set of point {x} does not contain the point itself")


@dataclass(frozen=True)
class Hypothesis:
    """A total +1/-1 labeling of the instance space."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(_check_label(v) for v in self.labels))
        if not self.labels:
            raise StructuralError("hypothesis must label a nonempty instance space")

    @classmethod
    def constant(cls, size: int, label: int) -> "Hypothesis":
        return cls((label,) * size)

    @property
    def size(self) -> int:
        return len(self.labels)

    def label_of(self, point: int) -> int:
        if not 0 <= point < len(self.labels):
            raise StructuralError(f"point {point} outside instance space of size {len(self.labels)}")
        return self.labels[point]

    @cached_property
    def label_row(self) -> np.ndarray:
        return _read_only(np.asarray(self.labels, dtype=np.int8))


@dataclass(frozen=True, eq=False)
class HypothesisFamily:
    """A finite ordered hypothesis class, stored as its label matrix.

    `matrix` is the read-only int8 (members, points) matrix whose row i is
    member i's labels; the index is the canonical tie-break key.  The
    constructor is the family's one validator: the matrix must be 2-D and
    nonempty, hold only +1/-1, and have pairwise distinct rows.  `members`
    holds the rows as Hypothesis objects, built on first use.  Families are
    equal when their names and matrices are.
    """

    matrix: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix)
        if matrix.ndim != 2:
            raise StructuralError(f"family label matrix must be 2-D, got shape {matrix.shape}")
        if matrix.size == 0:
            raise StructuralError("hypothesis family must be nonempty")
        bad = (matrix != 1) & (matrix != -1)
        if bad.any():
            raise StructuralError(f"label must be +1 or -1, got {matrix[bad].tolist()[0]!r}")
        object.__setattr__(self, "matrix", _read_only(matrix.astype(np.int8)))
        if len({row.tobytes() for row in self.matrix}) < len(self.matrix):
            raise StructuralError("family members must be pairwise distinct label sequences")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], name: str | None = None) -> "HypothesisFamily":
        """The family of the given label rows.

        The rows are stacked once and, if numeric, handed to the
        constructor; a row that is not a list or tuple is first read into a
        tuple, so one-shot iterables are replayed with the same values.  If
        the labels are not numeric, or the constructor fails, the rows are
        replayed for the error: a row with a bad label, or an empty row,
        raises through `Hypothesis` in member order; then come the nonempty
        and equal-length checks, and last the constructor's own.
        """
        rows = [r if isinstance(r, (list, tuple)) else tuple(r) for r in rows]
        try:
            matrix = np.array(rows)
            if matrix.dtype.kind in "biuf":  # complex, string and object labels are replayed
                return cls(matrix, name=name)
        except ValueError:  # a StructuralError, or rows numpy cannot stack
            pass
        for row in rows:
            Hypothesis(row)
        if not rows:
            raise StructuralError("hypothesis family must be nonempty")
        if len(set(map(len, rows))) > 1:
            raise StructuralError("family members must share one instance space")
        return cls(np.array(rows, dtype=np.int8), name=name)

    @classmethod
    def full_cube(cls, size: int, name: str | None = None) -> "HypothesisFamily":
        """All 2^size labelings of the space (desk-scale sizes only); bit i of row r set is -1."""
        bits = (np.arange(2 ** size)[:, np.newaxis] >> np.arange(size)) & 1
        return cls(1 - 2 * bits, name=name)

    @cached_property
    def members(self) -> tuple[Hypothesis, ...]:
        """The rows as Hypothesis objects whose `label_row` is the row; the constructor checked them."""
        members = tuple(object.__new__(Hypothesis) for _ in range(len(self.matrix)))
        for h, row in zip(members, self.matrix):
            h.__dict__.update(labels=tuple(row.tolist()), label_row=row)
        return members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HypothesisFamily):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.matrix, other.matrix)

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, index: int) -> Hypothesis:
        return self.members[index]

    def __iter__(self) -> Iterator[Hypothesis]:
        return iter(self.members)

    @property
    def space_size(self) -> int:
        return self.matrix.shape[1]

    def robust_table(self, perturbations: PerturbationMap) -> RobustTable:
        """The RobustTable of the members under `perturbations`; the last one built is kept."""
        cached = self.__dict__.get("_robust_table")
        if cached is None or (cached[0] is not perturbations and cached[0] != perturbations):
            cached = (perturbations, RobustTable.build(self.matrix, perturbations))
            object.__setattr__(self, "_robust_table", cached)
        return cached[1]


@dataclass(frozen=True)
class LabeledExample:
    point: int
    label: int

    def __post_init__(self) -> None:
        _check_label(self.label)
        if self.point < 0:
            raise StructuralError(f"point index must be nonnegative, got {self.point}")


class DistinctExamples(NamedTuple):
    """A sample's distinct examples in first-appearance order.

    `positions[s]` lists, ascending, the sample positions holding distinct
    example s, so `positions[s][0]` is where it first appears; `points`
    (intp) and `labels` (int8) are the distinct examples' columns.
    """

    positions: tuple[tuple[int, ...], ...]
    points: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class Sample:
    """An ordered sequence of labeled examples; repeats allowed and counted.

    Two views are built on first use and kept: `points()` / `labels()`, the
    examples as intp and int8 columns, and `distinct`, the distinct examples
    with their positions, which every learner stage that treats repeats
    alike reads instead of grouping the examples again.
    """

    examples: tuple[LabeledExample, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "examples", tuple(self.examples))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Sample":
        return cls(tuple(LabeledExample(p, y) for p, y in pairs))

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, index: int) -> LabeledExample:
        return self.examples[index]

    def __iter__(self) -> Iterator[LabeledExample]:
        return iter(self.examples)

    def points(self) -> np.ndarray:
        return self._columns[0]

    def labels(self) -> np.ndarray:
        return self._columns[1]

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        points = np.asarray([e.point for e in self.examples], dtype=np.intp)
        labels = np.asarray([e.label for e in self.examples], dtype=np.int8)
        return _read_only(points), _read_only(labels)

    @cached_property
    def distinct(self) -> DistinctExamples:
        """The distinct examples in first-appearance order, with their positions."""
        points, labels = self._columns
        positions: dict[tuple[int, int], list[int]] = {}
        for i, key in enumerate(zip(points.tolist(), labels.tolist())):
            positions.setdefault(key, []).append(i)
        firsts = [run[0] for run in positions.values()]
        return DistinctExamples(
            tuple(map(tuple, positions.values())),
            _read_only(points[firsts]),
            _read_only(labels[firsts]),
        )


def _sample_with_columns(
    examples: tuple[LabeledExample, ...], points: np.ndarray, labels: np.ndarray
) -> Sample:
    """A Sample of the examples that keeps the given arrays, their points and labels, as columns."""
    sample = Sample(examples)
    sample.__dict__["_columns"] = (_read_only(points), _read_only(labels))
    return sample


@dataclass(frozen=True)
class FiniteDistribution:
    """Exact finite-support distribution over labeled examples.

    Probabilities may be Fractions (exact) or floats; they must be positive,
    sum to 1 (exactly when all are Fractions, within 1e-12 otherwise), and
    sit on distinct (point, label) pairs.
    """

    atoms: tuple[tuple[LabeledExample, Probability], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple((e, p) for e, p in self.atoms))
        if not self.atoms:
            raise StructuralError("distribution must have at least one atom")
        seen = set()
        for example, p in self.atoms:
            if not p > 0:  # a NaN fails this test too
                raise StructuralError(f"atom probability must be positive, got {p!r}")
            key = (example.point, example.label)
            if key in seen:
                raise StructuralError(f"duplicate atom {key}")
            seen.add(key)
        if all(isinstance(p, Fraction) for _, p in self.atoms):
            total = _exact_sum(p for _, p in self.atoms)
            if total != 1:
                raise StructuralError(f"probabilities sum to {total}, not 1")
        else:
            s = float(sum(float(p) for _, p in self.atoms))
            if abs(s - 1.0) > PROB_TOLERANCE:
                raise StructuralError(f"probabilities sum to {s}, not 1")

    @classmethod
    def uniform(cls, examples: Sequence[LabeledExample]) -> "FiniteDistribution":
        n = len(examples)
        return cls(tuple((e, Fraction(1, n)) for e in examples))

    def __len__(self) -> int:
        return len(self.atoms)

    def probabilities(self) -> np.ndarray:
        return np.asarray([float(p) for _, p in self.atoms], dtype=np.float64)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """(points, labels, cdf, exact) of the atoms in stored order, built on first use.

        `cdf` is the running float sum of the probabilities with its last
        entry set to 1.0, and `exact` says whether every probability is a
        Fraction.  Sampling and population risk read these columns.
        """
        points = np.asarray([e.point for e, _ in self.atoms], dtype=np.intp)
        labels = np.asarray([e.label for e, _ in self.atoms], dtype=np.int8)
        cdf = np.cumsum(self.probabilities())
        cdf[-1] = 1.0
        exact = all(isinstance(p, Fraction) for _, p in self.atoms)
        return _read_only(points), _read_only(labels), _read_only(cdf), exact


def _exact_sum(probabilities: Iterable[Fraction]) -> Fraction:
    """Sum of Fractions in integers: numerators added per denominator, one lcm at the end."""
    numerators: dict[int, int] = {}
    for p in probabilities:
        n, d = p.as_integer_ratio()
        numerators[d] = numerators.get(d, 0) + n
    common = math.lcm(*numerators)
    return Fraction(sum(n * (common // d) for d, n in numerators.items()), common)


def _checked_distribution(
    atoms: tuple[tuple[LabeledExample, Fraction], ...]
) -> FiniteDistribution:
    """A FiniteDistribution over atoms already known valid, skipping the per-atom checks."""
    dist = object.__new__(FiniteDistribution)
    object.__setattr__(dist, "atoms", atoms)
    return dist


@dataclass(frozen=True)
class MajorityVotePredictor:
    """An improper predictor: a list of hypotheses combined by majority vote.

    Exact ties resolve to +1.  `provenance[i]` holds the ordered sample
    indices that reconstruct voter i through the compression scheme (empty
    for predictors that were not built by compression).
    """

    voters: tuple[Hypothesis, ...]
    provenance: tuple[tuple[int, ...], ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "voters", tuple(self.voters))
        if not self.voters:
            raise StructuralError("majority vote needs at least one voter")
        if len({v.size for v in self.voters}) != 1:
            raise StructuralError("voters must share one instance space")
        if self.provenance and len(self.provenance) != len(self.voters):
            raise StructuralError("provenance must list one index tuple per voter")

    @property
    def size(self) -> int:
        return self.voters[0].size

    @property
    def compression_size(self) -> int:
        return sum(len(t) for t in self.provenance)

    def label_of(self, point: int) -> int:
        if not 0 <= point < self.size:
            raise StructuralError(f"point {point} outside instance space of size {self.size}")
        return int(self.label_row[point])

    @cached_property
    def label_row(self) -> np.ndarray:
        """The vote over the whole space: voters summed once, ties to +1."""
        votes = np.sum([v.label_row for v in self.voters], axis=0, dtype=np.int64)
        return _read_only(np.where(votes >= 0, 1, -1).astype(np.int8))

    def labels_at(self, points: Sequence[int]) -> np.ndarray:
        return self.label_row[np.asarray(points, dtype=np.intp)]


Predictor = Union[Hypothesis, MajorityVotePredictor]


def _robust_losses(
    predictor: Predictor, sample: Sample, perturbations: PerturbationMap
) -> np.ndarray:
    """Robust 0-1 loss of the predictor on each example, read from its one-row table."""
    table = RobustTable.build(predictor.label_row[np.newaxis, :], perturbations)
    return table.loss_at(sample.points(), sample.labels())[0]


def robust_loss(predictor: Predictor, example: LabeledExample, perturbations: PerturbationMap) -> int:
    """Worst-case 0-1 loss over the example's perturbation set.

    Returns 1 iff some z in U(example.point) is mislabeled by the predictor.
    Under `PerturbationMap.identity(n)` this is the standard 0-1 loss.
    """
    return int(_robust_losses(predictor, Sample((example,)), perturbations)[0])


def empirical_robust_risk(
    predictor: Predictor, sample: Sample, perturbations: PerturbationMap
) -> Fraction:
    """Mean robust loss over the sample, counting repeats with multiplicity.

    Under `PerturbationMap.identity(n)` this is the standard empirical error.
    """
    if len(sample) == 0:
        raise ContractError("empirical robust risk requires a nonempty sample")
    mistakes = int(_robust_losses(predictor, sample, perturbations).sum())
    return Fraction(mistakes, len(sample))


def population_robust_risk(
    predictor: Predictor, dist: FiniteDistribution, perturbations: PerturbationMap
) -> Probability:
    """Probability-weighted robust loss; exact when all atom weights are rational.

    The predictor is scored on the distribution's cached support columns.
    The weights of the atoms it loses are summed as a Fraction when every
    weight is one, and otherwise added one by one in atom order from 0.0,
    so a float risk does not depend on how the losses were computed.
    """
    points, labels, _, exact = dist._columns
    table = RobustTable.build(predictor.label_row[np.newaxis, :], perturbations)
    losses = table.loss_at(points, labels)[0].tolist()
    weights = [p for (_, p), lost in zip(dist.atoms, losses) if lost]
    if exact:
        return _exact_sum(weights)
    total = 0.0
    for p in weights:
        total += p
    return total
