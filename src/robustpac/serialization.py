"""Exact JSON serialization of instances.

One document per instance:

    {"space": {"size": N},
     "perturbations": [[...], ...],
     "family": {"members": [[1, -1, ...], ...], "name": ...},
     "distributions": [{"atoms": [{"point": i, "label": 1, "p": "0.25"}, ...]}, ...],
     "anchors": {...}, "metadata": {...}}

Probabilities are strings parsed exactly: plain decimals ("0.25") where the
value has a finite decimal expansion, "p/q" rationals otherwise, so
parse(serialize(x)) == x always holds.

Reading validates in bulk, with the per-item constructors' checks and
messages.  Integer fields, anchors included, must be JSON integers (floats
and booleans are rejected, never truncated), probabilities must not be
booleans, and atom points and anchors must lie in the space.  Within
one document each distinct probability value is parsed once and each
distinct (point, label) pair becomes one LabeledExample; these memos live for
one call, so nothing is cached across documents.

Writing produces exactly the bytes of `json.dumps(doc, indent=2,
sort_keys=True)` for the document `instance_to_dict` builds.  A list of
plain integers (a member's label row, a perturbation set, an anchor list)
is rendered with one string join; non-empty lists, tuples and string-keyed
dicts are written recursively; any other value goes to `json.dumps` itself,
re-indented to its depth, so its bytes and its errors are json's own.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable

from .constructions import ConstructedInstance
from .core import (
    ContractError,
    FiniteDistribution,
    HypothesisFamily,
    InstanceSpace,
    LabeledExample,
    PerturbationMap,
    StructuralError,
    _checked_distribution,
    _exact_sum,
    parse_probability,
)

__all__ = [
    "probability_to_string",
    "parse_probability",
    "instance_to_dict",
    "instance_from_dict",
    "dumps_instance",
    "loads_instance",
    "save_instance",
    "load_instance",
]


def probability_to_string(p: Fraction) -> str:
    """Exact string form: finite decimal when one exists, else "p/q"."""
    f = Fraction(p)
    den = f.denominator
    reduced = den
    twos = fives = 0
    while reduced % 2 == 0:
        reduced //= 2
        twos += 1
    while reduced % 5 == 0:
        reduced //= 5
        fives += 1
    if reduced != 1:
        return f"{f.numerator}/{f.denominator}"
    k = max(twos, fives)
    sign = "-" if f < 0 else ""
    digits = str(abs(f.numerator) * 10 ** k // den).rjust(k + 1, "0")
    if k == 0:
        return sign + digits
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def instance_to_dict(instance: ConstructedInstance) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "space": {"size": instance.space.size},
        "perturbations": list(instance.perturbations.sets),
        "family": {
            "members": instance.family.matrix.tolist(),
            "name": instance.family.name,
        },
    }
    if instance.distributions is not None:
        doc["distributions"] = [
            {
                "atoms": [
                    {"point": e.point, "label": e.label, "p": probability_to_string(p)}
                    for e, p in dist.atoms
                ]
            }
            for dist in instance.distributions
        ]
    if instance.anchors:
        doc["anchors"] = {k: list(v) for k, v in instance.anchors.items()}
    if instance.metadata:
        doc["metadata"] = instance.metadata
    return doc


def _non_integer(field: str, value: Any) -> StructuralError:
    return StructuralError(f"instance document has a non-integer {field}: {value!r}")


def _check_integers(rows: Iterable[Iterable[Any]], field: str) -> None:
    """Raise unless every value of every row is a JSON integer; floats and booleans are not."""
    if set(map(type, chain.from_iterable(rows))) - {int}:
        raise _non_integer(field, next(v for v in chain.from_iterable(rows) if type(v) is not int))


def _distributions(
    entries: list[dict[str, Any]], space: InstanceSpace
) -> tuple[FiniteDistribution, ...]:
    """Parse every distribution, each distinct probability and (point, label) pair once.

    A distribution whose atoms are positive, on distinct pairs and sum to
    exactly 1 is built trusted; any other goes through the FiniteDistribution
    constructor, which raises its first error.  Positivity is checked when a
    probability is first parsed, and the sum once per distinct multiset of
    parsed probabilities (documents often list one multiset in many orders).
    """
    probabilities: dict[tuple[type, Any], Fraction] = {}
    nonpositive: set[int] = set()  # ids of parsed probabilities <= 0
    examples: dict[tuple[int, int], LabeledExample] = {}
    valid_sums: dict[tuple[int, ...], bool] = {}  # sorted probability ids -> positive, sum 1
    distributions = []
    for entry in entries:
        support: list[LabeledExample] = []
        masses: list[Fraction] = []
        for a in entry["atoms"]:
            point, label = a["point"], a["label"]
            if type(point) is not int:
                raise _non_integer("atom point", point)
            if type(label) is not int:
                raise _non_integer("atom label", label)
            example = examples.get((point, label))
            if example is None:
                example = LabeledExample(point, label)
                if point not in space:
                    raise StructuralError(
                        f"instance document has atom point {point} outside instance space "
                        f"of size {space.size}"
                    )
                examples[point, label] = example
            value = a["p"]
            try:
                p = probabilities[type(value), value]
            except (KeyError, TypeError):  # not seen yet, or unhashable
                p = probabilities[type(value), value] = parse_probability(value)
                if p <= 0:
                    nonpositive.add(id(p))
            support.append(example)
            masses.append(p)
        atoms = tuple(zip(support, masses))
        key = tuple(sorted(map(id, masses)))
        valid = valid_sums.get(key)
        if valid is None:
            valid = valid_sums[key] = nonpositive.isdisjoint(key) and _exact_sum(masses) == 1
        if valid and len(set(map(id, support))) == len(support):
            distributions.append(_checked_distribution(atoms))
        else:  # an empty atom list lands here too: its sum is 0
            distributions.append(FiniteDistribution(atoms))
    return tuple(distributions)


def instance_from_dict(doc: dict[str, Any]) -> ConstructedInstance:
    """Build and validate the instance of one parsed document.

    Integer fields must be JSON integers.  Each distinct probability value
    and (point, label) pair is parsed once per call; nothing is kept across
    calls.
    """
    try:
        size = doc["space"]["size"]
        if type(size) is not int:
            raise _non_integer("space size", size)
        space = InstanceSpace(size)
        sets = doc["perturbations"]
        _check_integers(sets, "perturbation member")
        perturbations = PerturbationMap(tuple(tuple(s) for s in sets))
        rows = doc["family"]["members"]
        _check_integers(rows, "family label")  # every label is an int, so from_rows's type pass would repeat this one
        family = HypothesisFamily._from_int_rows(rows, doc["family"].get("name"))
        if perturbations.size != space.size or family.space_size != space.size:
            raise StructuralError("space, perturbations and family disagree on size")
        distributions = None
        if "distributions" in doc:
            distributions = _distributions(doc["distributions"], space)
        anchors = doc.get("anchors", {})
        if type(anchors) is not dict or any(type(v) is not list for v in anchors.values()):
            raise StructuralError(
                f"instance document has anchors that are not named point lists: {anchors!r}"
            )
        anchors = {k: tuple(v) for k, v in anchors.items()}
        _check_integers(anchors.values(), "anchor")
        outside = [a for a in chain.from_iterable(anchors.values()) if a not in space]
        if outside:
            raise StructuralError(
                f"instance document has anchor {outside[0]} outside instance space "
                f"of size {space.size}"
            )
        metadata = doc.get("metadata", {})
        if type(metadata) is not dict:
            raise StructuralError(f"instance document has metadata that is not an object: {metadata!r}")
    except KeyError as exc:
        raise StructuralError(f"instance document is missing key {exc}") from exc
    return ConstructedInstance(
        space=space,
        perturbations=perturbations,
        family=family,
        anchors=anchors,
        distributions=distributions,
        metadata=metadata,
    )


def _encode(obj: Any, level: int, out: list[str]) -> None:
    """Append `json.dumps(obj, indent=2, sort_keys=True)`, indented to depth `level`, to `out`."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif (kind is list or kind is tuple) and obj:
        pad = "\n" + "  " * (level + 1)
        if set(map(type, obj)) == {int}:
            out.append("[" + pad + ("," + pad).join(map(int.__repr__, obj)))
        else:
            out.append("[")
            for i, item in enumerate(obj):
                out.append("," + pad if i else pad)
                _encode(item, level + 1, out)
        out.append("\n" + "  " * level + "]")
    elif kind is dict and obj and all(type(k) is str for k in obj):
        pad = "\n" + "  " * (level + 1)
        out.append("{")
        for i, (key, value) in enumerate(sorted(obj.items())):
            out.append(("," + pad if i else pad) + encode_basestring_ascii(key) + ": ")
            _encode(value, level + 1, out)
        out.append("\n" + "  " * level + "}")
    else:  # bool, None, floats, empty containers, other keys, subclasses, unserializable
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level))


def dumps_instance(instance: ConstructedInstance) -> str:
    """`json.dumps(instance_to_dict(instance), indent=2, sort_keys=True)`, one join per integer row."""
    out: list[str] = []
    _encode(instance_to_dict(instance), 0, out)
    return "".join(out)


def loads_instance(text: str) -> ConstructedInstance:
    """Parse one instance document; malformed JSON and wrong-typed fields raise StructuralError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an integer past int's digit limit, or too deep
        raise StructuralError(f"instance document is not valid JSON: {exc}") from exc
    try:
        return instance_from_dict(doc)
    except (StructuralError, ContractError):
        raise
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise StructuralError(f"instance document has a field of the wrong type: {exc}") from exc


def save_instance(instance: ConstructedInstance, path: str) -> None:
    """Write the instance document; it is encoded first, so a failure leaves `path` untouched."""
    text = dumps_instance(instance)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_instance(path: str) -> ConstructedInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise StructuralError(f"instance document is not valid UTF-8: {exc}") from exc
    return loads_instance(text)
