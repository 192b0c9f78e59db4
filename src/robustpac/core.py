"""Domain types and exact loss/risk computations for the robust 0-1 setting.

Everything here is finite and exact: instance spaces are index sets
0..size-1, hypotheses are total +1/-1 labelings, and an adversary is an
explicit nonempty set of allowed perturbations per point.  Probabilities,
empirical risks and population risks are all `fractions.Fraction`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar, Union

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

class StructuralError(ValueError):
    """Malformed data: indices out of range, bad labels, inconsistent sizes."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _check_label(value: object) -> int:
    """`value` as an int if it is an integer (`_is_integer`: no bool, no float) equal to +1 or -1."""
    if not (_is_integer(value) and value in (+1, -1)):
        raise StructuralError(f"label must be +1 or -1, got {value!r}")
    return int(value)


def _checked_points(points: int | Sequence[int] | np.ndarray, size: int) -> np.ndarray:
    """`points`, one index or many, as intp; raises on the first, in the order given, outside 0..size-1.

    Float and bool indices are refused, not truncated (an empty list, float64 to numpy, passes).
    One `max` over the unsigned view checks the range: a negative index wraps past any size there.
    """
    given = np.asarray(points)
    if given.dtype.kind not in "iu" and given.size:
        for p in given.ravel().tolist():  # ints past 64 bits, which numpy keeps as Python ints, land here
            if type(p) is not int:
                raise StructuralError(f"point {p!r} is not an integer index")
            if not 0 <= p < size:
                raise StructuralError(f"point {p} outside instance space of size {size}")
    points = given.astype(np.intp, copy=False)
    if points.size and points.view(np.uintp).max() >= size:
        bad = given[points.view(np.uintp) >= size][0]
        raise StructuralError(f"point {bad} outside instance space of size {size}")
    return points


def _is_integer(value: object) -> bool:
    """The one test of an integer argument: a Python int or a numpy integer, never a bool."""
    return type(value) is int or isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _checked_int(name: str, value: object, low: int, high: int | None = None, message: str = "") -> int:
    """`value` as an int in [low, high] (None: no cap), else a ContractError naming `name`, or `message`."""
    if not _is_integer(value):
        raise ContractError(message or f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low:
        raise ContractError(message or f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ContractError(message or f"{name}={value} exceeds the cap {high}")
    return value


_PROBABILITY = re.compile(r"-?[0-9]+(\.[0-9]+)?|-?[0-9]+/[0-9]+")


def parse_probability(text: str | float) -> Fraction:
    """The exact value of a decimal or "p/q" string, or of a number.

    A string must match `-?[0-9]+(\\.[0-9]+)?` or `-?[0-9]+/[0-9]+` in full:
    ASCII digits only, no whitespace, `+` sign, `_` separator or exponent.
    Exponent forms in particular would make Fraction build the power of ten
    in full, which for "1e999999999" does not finish.  Booleans are refused;
    other numbers are read exactly, and NaN and infinities are refused.
    """
    if type(text) is bool:  # Fraction(True) would be 1
        raise StructuralError(f"instance document has a boolean probability: {text!r}")
    if isinstance(text, str) and not _PROBABILITY.fullmatch(text):
        raise StructuralError(f"cannot parse probability {text!r}: write a decimal or p/q")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise StructuralError(f"cannot parse probability {text!r}") from exc


@dataclass(frozen=True)
class InstanceSpace:
    """A finite set of points identified by index 0..size-1."""

    size: int

    def __post_init__(self) -> None:
        if not (_is_integer(self.size) and self.size >= 1):
            raise StructuralError(f"instance space must have an integer size >= 1, got {self.size!r}")

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
            found = set()
            for z in s:
                if not _is_integer(z):
                    raise StructuralError(f"perturbation set of point {x} has a non-integer member {z!r}")
                found.add(int(z))
            members = tuple(sorted(found))
            if not members:
                raise StructuralError(f"perturbation set of point {x} is empty")
            if members[0] < 0 or members[-1] >= len(self.sets):
                raise StructuralError(f"perturbation set of point {x} leaves the instance space: {members}")
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
        _checked_points(point, self.size)
        return self.sets[point]

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """(members, bounds): the sets concatenated in point order; U(x) is members[bounds[x]:bounds[x+1]]."""
        bounds = np.cumsum([0] + [len(s) for s in self.sets])
        return np.fromiter(chain.from_iterable(self.sets), dtype=np.intp), bounds

    def balls(self, points: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(members, begins): the sets of `points` concatenated in the given order, where each begins."""
        points = _checked_points(points, self.size)
        members, bounds = self._layout
        sizes = bounds[points + 1] - bounds[points]
        begins = np.cumsum(sizes) - sizes
        offsets = np.repeat(bounds[points] - begins, sizes)
        return members[np.arange(len(offsets)) + offsets], begins


@dataclass(frozen=True)
class RobustTable:
    """Per label row h and point x: is h constant +1 / constant -1 on U(x)?

    The robust loss sup_{z in U(x)} 1[h(z) != y] is 1 exactly when h is not
    constant y on U(x), so the two (rows, points) matrices hold the whole
    robust loss class.  Both are built in one pass over the perturbation
    map's concatenated sets, and `loss_at` is the one reader of losses from
    them.  Their column masks, `_constancy_masks`, are built on first use.
    """

    const_plus: np.ndarray
    const_minus: np.ndarray

    @classmethod
    def build(cls, labels: np.ndarray, perturbations: PerturbationMap) -> "RobustTable":
        """Table of a (rows, space size) +1/-1 label matrix under `perturbations`."""
        if labels.shape[1] != perturbations.size:
            raise StructuralError("perturbation map and labels disagree on the instance space")
        members, bounds = perturbations._layout
        all_plus, any_plus = _plus_on_balls(labels[:, members] == 1, bounds[:-1])
        return cls(_read_only(all_plus), _read_only(~any_plus))

    def loss_at(self, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """(rows, len(points)) bool: robust 0-1 loss of each row on each (point, label) column."""
        points = _checked_points(points, self.const_plus.shape[1])
        return np.where(labels == 1, ~self.const_plus[:, points], ~self.const_minus[:, points])

    @cached_property
    def _constancy_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per point x, the bitmasks of the rows constant +1 and constant -1 on U(x)."""
        return tuple(_column_masks(self.const_plus)), tuple(_column_masks(self.const_minus))


def _plus_on_balls(plus: np.ndarray, begins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of +1 readings over balls laid end to end (last axis) and ball: all +1 on it, and any +1?"""
    return np.logical_and.reduceat(plus, begins, axis=-1), np.logical_or.reduceat(plus, begins, axis=-1)


def _column_masks(matrix: np.ndarray) -> list[int]:
    """Per column of a bool matrix: the bitmask of its set rows (row i is bit i).

    The library's one key of a bool column: two columns of one matrix are
    equal exactly when their masks are.  Masks of at most 64 rows are read
    in one call, as little-endian 64-bit words; wider ones column by column.
    """
    packed = np.packbits(matrix, axis=0, bitorder="little")
    if len(packed) <= 8:
        words = np.zeros((matrix.shape[1], 8), np.uint8)
        words[:, : len(packed)] = packed.T
        return words.view("<u8").ravel().tolist()
    columns = np.ascontiguousarray(packed.T)
    width, data = columns.shape[1], columns.tobytes()
    return [int.from_bytes(data[x * width : (x + 1) * width], "little") for x in range(len(columns))]


def _sign_masks(plus: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (+, -) column masks of a bool matrix of +1 readings; every label is +1 or -1, so - is the complement."""
    masks = tuple(_column_masks(plus))
    everyone = (1 << len(plus)) - 1
    return masks, tuple(everyone ^ m for m in masks)


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
        return cls((label,) * _checked_int("size", size, 1))

    @property
    def size(self) -> int:
        return len(self.labels)

    def label_of(self, point: int) -> int:
        _checked_points(point, len(self.labels))
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
    nonempty, have an integer dtype (bool and float matrices are refused, as
    `_check_label` refuses bool and float labels), hold only +1/-1, and have
    pairwise distinct rows, checked on `_member_masks`.  `members` holds the
    rows as Hypothesis objects and `_point_masks` the vc bitmasks, both built
    on first use.  Families are equal when their names and matrices are.
    """

    matrix: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix)
        if matrix.ndim != 2:
            raise StructuralError(f"family label matrix must be 2-D, got shape {matrix.shape}")
        if matrix.size == 0:
            raise StructuralError("hypothesis family must be nonempty")
        if matrix.dtype.kind not in "iu":
            raise StructuralError(f"family label matrix must hold integers, got dtype {matrix.dtype}")
        bad = (matrix != 1) & (matrix != -1)
        if bad.any():
            raise StructuralError(f"label must be +1 or -1, got {matrix[bad].tolist()[0]!r}")
        object.__setattr__(self, "matrix", _read_only(matrix.astype(np.int8)))
        if len(set(self._member_masks[0])) < len(self.matrix):
            raise StructuralError("family members must be pairwise distinct label sequences")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], name: str | None = None) -> "HypothesisFamily":
        """The family of the given label rows.

        A row that is not a list or tuple is first read into a tuple, so
        one-shot iterables are replayed with the same values.  numpy stacks a
        bool among ints as an int, so the label types are looked at one by
        one: rows of Python ints go on to `_from_int_rows`, and any other
        rows are replayed for the error (`_replayed`).
        """
        rows = [r if isinstance(r, (list, tuple)) else tuple(r) for r in rows]
        if set(map(type, chain.from_iterable(rows))) <= {int}:
            return cls._from_int_rows(rows, name)
        return cls._replayed(rows, name)

    @classmethod
    def _from_int_rows(cls, rows: Sequence[Sequence[int]], name: str | None) -> "HypothesisFamily":
        """`from_rows` of rows whose labels are all Python ints, such as a checked instance document's.

        The rows are stacked once, straight to int8, and handed to the
        constructor; if either fails, they are replayed for the error.
        """
        try:
            return cls(np.array(rows, dtype=np.int8), name=name)
        except (ValueError, OverflowError):  # a StructuralError, or rows numpy cannot stack, such as a label of 300
            pass
        return cls._replayed(rows, name)

    @classmethod
    def _replayed(cls, rows: Sequence[Sequence[object]], name: str | None) -> "HypothesisFamily":
        """The family of the rows, built so that the first error in member order is raised.

        A row with a bad label, or an empty row, raises through `Hypothesis`;
        then come the nonempty and equal-length checks, and last the
        constructor's own.
        """
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
        size = _checked_int("size", size, 1)
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

    @cached_property
    def _point_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per point, the (+, -) bitmasks of the members labeling it +1 and -1 (`_sign_masks`)."""
        return _sign_masks(self.matrix == 1)

    @cached_property
    def _member_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per member, the (+, -) bitmasks of the points it labels +1 and -1; the constructor reads them first."""
        return _sign_masks(self.matrix.T == 1)

    def robust_table(self, perturbations: PerturbationMap) -> RobustTable:
        """The RobustTable of the members under `perturbations`; the last one built is kept."""
        return _kept(self, "_robust_table", (perturbations,), lambda: RobustTable.build(self.matrix, perturbations))


@dataclass(frozen=True)
class LabeledExample:
    point: int
    label: int

    def __post_init__(self) -> None:
        label = _check_label(self.label)
        if not (_is_integer(self.point) and self.point >= 0):
            raise StructuralError(f"point index must be a nonnegative integer, got {self.point!r}")
        if type(self.point) is not int or type(self.label) is not int:  # numpy integers are stored as ints
            object.__setattr__(self, "point", int(self.point))
            object.__setattr__(self, "label", label)


class DistinctExamples(NamedTuple):
    """A sample's distinct examples in first-appearance order.

    `positions[s]` lists, ascending, the sample positions holding distinct
    example s, so `positions[s][0]` is where it first appears and `counts[s]`
    is how often it occurs; `points` (intp) and `labels` (int8) are the
    distinct examples' columns.
    """

    positions: tuple[tuple[int, ...], ...]
    points: np.ndarray
    labels: np.ndarray

    @property
    def counts(self) -> list[int]:
        """The multiplicity of each distinct example in the sample."""
        return [len(run) for run in self.positions]


@dataclass(frozen=True)
class Sample:
    """An ordered sequence of labeled examples; repeats allowed and counted.

    Its one derived view, `distinct`, is built on first use and kept: the
    distinct examples with their positions, through which every scorer and
    learner stage reads the sample, weighting each by its multiplicity.
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

    @cached_property
    def distinct(self) -> DistinctExamples:
        """The distinct examples in first-appearance order, with their positions."""
        positions: dict[tuple[int, int], list[int]] = {}
        for i, e in enumerate(self.examples):
            positions.setdefault((e.point, e.label), []).append(i)
        return DistinctExamples(
            tuple(map(tuple, positions.values())),
            _read_only(np.array([point for point, _ in positions], dtype=np.intp)),
            _read_only(np.array([label for _, label in positions], dtype=np.int8)),
        )


@dataclass(frozen=True)
class FiniteDistribution:
    """Exact finite-support distribution over labeled examples.

    Probabilities must be Fractions (floats, ints and bools are refused),
    positive, sum to exactly 1 and sit on distinct (point, label) pairs.
    """

    atoms: tuple[tuple[LabeledExample, Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple((e, p) for e, p in self.atoms))
        if not self.atoms:
            raise StructuralError("distribution must have at least one atom")
        seen = set()
        for example, p in self.atoms:
            if not isinstance(p, Fraction):
                raise StructuralError(f"atom probability must be a Fraction, got {p!r}")
            if p <= 0:
                raise StructuralError(f"atom probability must be positive, got {p!r}")
            key = (example.point, example.label)
            if key in seen:
                raise StructuralError(f"duplicate atom {key}")
            seen.add(key)
        total = _exact_sum(p for _, p in self.atoms)
        if total != 1:
            raise StructuralError(f"probabilities sum to {total}, not 1")

    @classmethod
    def uniform(cls, examples: Sequence[LabeledExample]) -> "FiniteDistribution":
        n = len(examples)
        return cls(tuple((e, Fraction(1, n)) for e in examples))

    def __len__(self) -> int:
        return len(self.atoms)

    def probabilities(self) -> np.ndarray:
        return np.asarray([float(p) for _, p in self.atoms], dtype=np.float64)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(points, labels, cdf) of the atoms in stored order, built on first use.

        `cdf` is the running float sum of the probabilities with its last
        entry set to 1.0.  Sampling and population risk read these columns.
        """
        points = np.asarray([e.point for e, _ in self.atoms], dtype=np.intp)
        labels = np.asarray([e.label for e, _ in self.atoms], dtype=np.int8)
        cdf = np.cumsum(self.probabilities())
        cdf[-1] = 1.0
        return _read_only(points), _read_only(labels), _read_only(cdf)

    def _support_balls(self, perturbations: PerturbationMap) -> tuple[np.ndarray, np.ndarray]:
        """`perturbations.balls` of the support points, in atom order; kept for the last map asked for."""

        def build() -> tuple[np.ndarray, np.ndarray]:
            members, begins = perturbations.balls(self._columns[0])
            return _read_only(members), _read_only(begins)

        return _kept(self, "_support_gather", (perturbations,), build)

    def _atom_losses(self, family: HypothesisFamily, perturbations: PerturbationMap) -> np.ndarray:
        """(members, atoms) bool: the family's robust loss on each atom, in atom order.

        One `loss_at` over the support columns, read-only; kept for the last
        (family, map) asked for.  Column i is the loss on atom i, so the
        columns of drawn atom indices are the losses on the drawn sample.
        """

        def build() -> np.ndarray:
            points, labels, _ = self._columns
            return _read_only(family.robust_table(perturbations).loss_at(points, labels))

        return _kept(self, "_atom_loss", (family, perturbations), build)

    def _member_risks(self, family: HypothesisFamily, perturbations: PerturbationMap) -> tuple[Fraction, ...]:
        """`population_robust_risk(family[i], self, perturbations)` for every member i.

        Row i of `_atom_losses` flags the atoms member i loses, and its lost
        weight is summed by `_lost_weight`, as `population_robust_risk` sums
        it.  The risks for the last (family, map) asked for are kept.
        """

        def build() -> tuple[Fraction, ...]:
            return tuple(_lost_weight(self, row) for row in self._atom_losses(family, perturbations).tolist())

        return _kept(self, "_member_risk", (family, perturbations), build)


_Kept = TypeVar("_Kept")


def _kept(owner: object, name: str, key: tuple, build: Callable[[], _Kept]) -> _Kept:
    """`build()`, kept on `owner` under `name` for the last `key` met.

    The one cache policy of the library's derived data: one slot per value,
    replaced when the key changes.  Tuple comparison matches each key part
    by identity first and by equality after.  The slot is written with
    `object.__setattr__`, so frozen owners keep it too.
    """
    kept = owner.__dict__.get(name)
    if kept is None or kept[0] != key:
        kept = (key, build())
        object.__setattr__(owner, name, kept)
    return kept[1]


def _lost_weight(dist: FiniteDistribution, lost: Sequence[bool]) -> Fraction:
    """Exact total weight of the atoms flagged lost."""
    return _exact_sum(p for (_, p), flag in zip(dist.atoms, lost) if flag)


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
        _checked_points(point, self.size)
        return int(self.label_row[point])

    @cached_property
    def label_row(self) -> np.ndarray:
        """The vote over the whole space, read-only int8: voters summed once, ties to +1.

        A one-voter vote is that voter's own row.  Any other vote is one
        `np.sum` over the voters' rows, which beats adding them one by one
        for wide votes.  No learner returns copies of one voter alone: a
        perfect boosting candidate is returned once, and a vote of copies of
        an imperfect one fails its majority or margin check.
        """
        if len(self.voters) == 1:
            return self.voters[0].label_row
        votes = np.sum([v.label_row for v in self.voters], axis=0, dtype=np.int64)
        return _read_only(np.where(votes >= 0, 1, -1).astype(np.int8))

    def labels_at(self, points: Sequence[int]) -> np.ndarray:
        return self.label_row[_checked_points(points, self.size)]


Predictor = Union[Hypothesis, MajorityVotePredictor]


def _robust_losses(
    predictor: Predictor,
    perturbations: PerturbationMap,
    balls: tuple[np.ndarray, np.ndarray],
    labels: np.ndarray | int,
) -> np.ndarray:
    """Robust 0-1 loss of the predictor on each example, from the examples' balls.

    `balls` is `perturbations.balls` of the examples' points and `labels`
    their labels.  An example is lost unless the predictor reads its label
    on every member of its ball (`_plus_on_balls`).
    """
    if predictor.size != perturbations.size:
        raise StructuralError("perturbation map and labels disagree on the instance space")
    members, begins = balls
    all_plus, any_plus = _plus_on_balls(predictor.label_row[members] == 1, begins)
    return np.where(labels == 1, ~all_plus, any_plus)


def robust_loss(predictor: Predictor, example: LabeledExample, perturbations: PerturbationMap) -> int:
    """Worst-case 0-1 loss over the example's perturbation set.

    Returns 1 iff some z in U(example.point) is mislabeled by the predictor.
    Under `PerturbationMap.identity(n)` this is the standard 0-1 loss.
    """
    balls = perturbations.balls([example.point])
    return int(_robust_losses(predictor, perturbations, balls, example.label)[0])


def empirical_robust_risk(
    predictor: Predictor, sample: Sample, perturbations: PerturbationMap
) -> Fraction:
    """Mean robust loss over the sample, counting repeats with multiplicity.

    Only the distinct examples' balls are gathered; each loss is weighted by
    the example's count.  Under `PerturbationMap.identity(n)` this is the
    standard empirical error.
    """
    if len(sample) == 0:
        raise ContractError("empirical robust risk requires a nonempty sample")
    distinct = sample.distinct
    balls = perturbations.balls(distinct.points)
    mistakes = int(_robust_losses(predictor, perturbations, balls, distinct.labels) @ distinct.counts)
    return Fraction(mistakes, len(sample))


def population_robust_risk(
    predictor: Predictor, dist: FiniteDistribution, perturbations: PerturbationMap
) -> Fraction:
    """Exact expected robust loss of the predictor under `dist`.

    The predictor is scored on the support atoms' balls alone, which the
    distribution gathers and keeps (`_kept`).  The weights of the atoms it
    loses are summed exactly by `_lost_weight`.
    """
    balls = dist._support_balls(perturbations)
    return _lost_weight(dist, _robust_losses(predictor, perturbations, balls, dist._columns[1]).tolist())
