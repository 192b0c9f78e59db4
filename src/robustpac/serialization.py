"""Exact JSON serialization of instances.

One document per instance:

    {"space": {"size": N},
     "perturbations": [[...], ...],
     "family": {"members": [[1, -1, ...], ...], "name": ...},
     "distributions": [{"atoms": [{"point": i, "label": 1, "p": "0.25"}, ...]}, ...],
     "anchors": {...}, "metadata": {...}}

Probabilities are strings parsed exactly: plain decimals ("0.25") where the
value has a finite decimal expansion, "p/q" rationals otherwise.  Float
inputs are converted to their exact binary fraction on write, so
parse(serialize(x)) == x always holds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .constructions import ConstructedInstance
from .core import (
    ContractError,
    FiniteDistribution,
    HypothesisFamily,
    InstanceSpace,
    LabeledExample,
    PerturbationMap,
    StructuralError,
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


def probability_to_string(p: Fraction | float) -> str:
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
    scaled = f.numerator * 10 ** k // den
    if k == 0:
        return str(scaled)
    digits = str(scaled).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}"


def parse_probability(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"cannot parse probability {text!r}") from exc


def instance_to_dict(instance: ConstructedInstance) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "space": {"size": instance.space.size},
        "perturbations": [list(s) for s in instance.perturbations.sets],
        "family": {
            "members": [list(h.labels) for h in instance.family],
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


def instance_from_dict(doc: dict[str, Any]) -> ConstructedInstance:
    try:
        space = InstanceSpace(int(doc["space"]["size"]))
        perturbations = PerturbationMap(tuple(tuple(s) for s in doc["perturbations"]))
        family = HypothesisFamily.from_rows(
            doc["family"]["members"], name=doc["family"].get("name")
        )
        if perturbations.size != space.size or family.space_size != space.size:
            raise StructuralError("space, perturbations and family disagree on size")
        distributions = None
        if "distributions" in doc:
            distributions = tuple(
                FiniteDistribution(
                    tuple(
                        (
                            LabeledExample(int(a["point"]), int(a["label"])),
                            parse_probability(a["p"]),
                        )
                        for a in entry["atoms"]
                    )
                )
                for entry in doc["distributions"]
            )
        anchors = {k: tuple(v) for k, v in doc.get("anchors", {}).items()}
    except KeyError as exc:
        raise StructuralError(f"instance document is missing key {exc}") from exc
    return ConstructedInstance(
        space=space,
        perturbations=perturbations,
        family=family,
        anchors=anchors,
        distributions=distributions,
        metadata=doc.get("metadata", {}),
    )


def dumps_instance(instance: ConstructedInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2, sort_keys=True)


def loads_instance(text: str) -> ConstructedInstance:
    """Parse one instance document; malformed JSON and wrong-typed fields raise StructuralError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"instance document is not valid JSON: {exc}") from exc
    try:
        return instance_from_dict(doc)
    except (StructuralError, ContractError):
        raise
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise StructuralError(f"instance document has a field of the wrong type: {exc}") from exc


def save_instance(instance: ConstructedInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(instance))
        fh.write("\n")


def load_instance(path: str) -> ConstructedInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())
