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
from typing import Iterable, Iterator, Sequence, Union

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
    "standard_loss",
    "empirical_error",
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

    @property
    def max_set_size(self) -> int:
        return max(len(s) for s in self.sets)

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
    the perturbation sets.
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

    @cached_property
    def loss_matrix(self) -> np.ndarray:
        """(rows, 2 * points) bool robust losses; column 2x is (x, -1), 2x + 1 is (x, +1)."""
        stacked = np.stack((self.const_minus, self.const_plus), axis=2)
        return _read_only(~stacked.reshape(len(stacked), -1))

    def loss(self, sample: Sample) -> np.ndarray:
        """(rows, len(sample)) bool: robust 0-1 loss of each row on each example."""
        points, labels = sample.points(), sample.labels()
        size = self.const_plus.shape[1]
        if len(sample) and points.max() >= size:
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

    def labels_at(self, points: Sequence[int]) -> np.ndarray:
        return self.label_row[np.asarray(points, dtype=np.intp)]


def _checked_hypothesis(labels: Sequence[int]) -> Hypothesis:
    """A Hypothesis over a nonempty row of +1/-1 Python ints, skipping the per-label check."""
    h = object.__new__(Hypothesis)
    object.__setattr__(h, "labels", tuple(labels))
    return h


@dataclass(frozen=True)
class HypothesisFamily:
    """A finite ordered hypothesis class; the index is the canonical tie-break key."""

    members: tuple[Hypothesis, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise StructuralError("hypothesis family must be nonempty")
        size = self.members[0].size
        seen = set()
        for h in self.members:
            if h.size != size:
                raise StructuralError("family members must share one instance space")
            if h.labels in seen:
                raise StructuralError("family members must be pairwise distinct label sequences")
            seen.add(h.labels)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], name: str | None = None) -> "HypothesisFamily":
        """The family of the given label rows, validated in bulk.

        All labels are checked in one pass.  Rows that fail it, or differ in
        length, go through the per-member constructors instead, which raise
        the first error in member order.  Members hold Python ints read back
        from the int8 label matrix, which becomes the family's `matrix`.
        """
        rows = [tuple(r) for r in rows]
        try:
            valid = all(rows) and set(chain.from_iterable(rows)) <= {+1, -1}
        except TypeError:  # an unhashable label
            valid = False
        if not valid or len(set(map(len, rows))) > 1:
            return cls(tuple(Hypothesis(r) for r in rows), name=name)
        matrix = _read_only(np.array(rows, dtype=np.int8))
        family = cls(tuple(_checked_hypothesis(row.tolist()) for row in matrix), name=name)
        object.__setattr__(family, "matrix", matrix)
        return family

    @classmethod
    def full_cube(cls, size: int, name: str | None = None) -> "HypothesisFamily":
        """All 2^size labelings of the space (desk-scale sizes only)."""
        rows = []
        for bits in range(2 ** size):
            rows.append(tuple(+1 if (bits >> i) & 1 == 0 else -1 for i in range(size)))
        return cls.from_rows(rows, name=name)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, index: int) -> Hypothesis:
        return self.members[index]

    def __iter__(self) -> Iterator[Hypothesis]:
        return iter(self.members)

    @property
    def space_size(self) -> int:
        return self.members[0].size

    @cached_property
    def matrix(self) -> np.ndarray:
        """(len(family), space_size) int8 matrix of labels; rows follow member order."""
        return _read_only(np.asarray([h.labels for h in self.members], dtype=np.int8))

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

    def key(self) -> tuple[int, int]:
        return (self.point, self.label)


@dataclass(frozen=True)
class Sample:
    """An ordered sequence of labeled examples; repeats allowed and counted."""

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
            if p <= 0:
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

    @classmethod
    def point_mass(cls, example: LabeledExample) -> "FiniteDistribution":
        return cls(((example, Fraction(1)),))

    def __len__(self) -> int:
        return len(self.atoms)

    def support(self) -> tuple[LabeledExample, ...]:
        return tuple(e for e, _ in self.atoms)

    def probabilities(self) -> np.ndarray:
        return np.asarray([float(p) for _, p in self.atoms], dtype=np.float64)


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
    return RobustTable.build(predictor.label_row[np.newaxis, :], perturbations).loss(sample)[0]


def robust_loss(predictor: Predictor, example: LabeledExample, perturbations: PerturbationMap) -> int:
    """Worst-case 0-1 loss over the example's perturbation set.

    Returns 1 iff some z in U(example.point) is mislabeled by the predictor.
    """
    return int(_robust_losses(predictor, Sample((example,)), perturbations)[0])


def standard_loss(predictor: Predictor, example: LabeledExample) -> int:
    """Plain 0-1 loss: robust loss under the identity adversary."""
    if not 0 <= example.point < predictor.size:
        raise StructuralError(f"point {example.point} outside instance space")
    return int(predictor.label_of(example.point) != example.label)


def empirical_robust_risk(
    predictor: Predictor, sample: Sample, perturbations: PerturbationMap
) -> Fraction:
    """Mean robust loss over the sample, counting repeats with multiplicity."""
    if len(sample) == 0:
        raise ContractError("empirical robust risk requires a nonempty sample")
    mistakes = int(_robust_losses(predictor, sample, perturbations).sum())
    return Fraction(mistakes, len(sample))


def empirical_error(predictor: Predictor, sample: Sample) -> Fraction:
    """Mean standard 0-1 loss over the sample."""
    if len(sample) == 0:
        raise ContractError("empirical error requires a nonempty sample")
    return empirical_robust_risk(predictor, sample, PerturbationMap.identity(predictor.size))


def population_robust_risk(
    predictor: Predictor, dist: FiniteDistribution, perturbations: PerturbationMap
) -> Probability:
    """Probability-weighted robust loss; exact when all atom weights are rational."""
    loss = _robust_losses(predictor, Sample(dist.support()), perturbations)
    exact = all(isinstance(p, Fraction) for _, p in dist.atoms)
    total: Probability = Fraction(0) if exact else 0.0
    for (_, p), lost in zip(dist.atoms, loss):
        if lost:
            total += p
    return total
