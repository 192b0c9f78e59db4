"""Differential tests: the bulk instance reader against the per-item reference.

`naive_from_rows` and `naive_instance_from_dict` build every Hypothesis,
LabeledExample and probability one item at a time and sum exact
probabilities one Fraction at a time, which is how the reader worked before
it validated in bulk.  On valid documents both must build equal objects; on
corrupted ones both must raise the same exception with the same message.
Documents hold JSON integers only and keep atom points inside the space:
the reader rejects anything else by rules the reference does not have, and
`tests/test_cli.py` covers those.

The writer is checked the same way, against `json.dumps(doc, indent=2,
sort_keys=True)` as the reference: on every constructor's document and on
generated instance-shaped documents that also hold values the writer hands
back to `json.dumps` (booleans, floats, None, int-keyed dicts).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustpac import serialization
from robustpac.constructions import (
    ConstructedInstance,
    make_agnostic_lower_bound,
    make_lower_bound_family,
    make_pair_gap,
    make_proper_failure,
    make_union_truncation,
    make_vc_blowup,
)
from robustpac.core import (
    PROB_TOLERANCE,
    FiniteDistribution,
    Hypothesis,
    HypothesisFamily,
    InstanceSpace,
    LabeledExample,
    PerturbationMap,
    StructuralError,
)
from robustpac.serialization import (
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    parse_probability,
    probability_to_string,
    save_instance,
)


def naive_from_rows(rows, name=None) -> HypothesisFamily:
    members = [Hypothesis(tuple(r)) for r in rows]
    if not members:
        raise StructuralError("hypothesis family must be nonempty")
    if len({h.size for h in members}) > 1:
        raise StructuralError("family members must share one instance space")
    if len({h.labels for h in members}) < len(members):
        raise StructuralError("family members must be pairwise distinct label sequences")
    return HypothesisFamily(np.array([h.labels for h in members], dtype=np.int8), name=name)


def naive_distribution(atoms) -> FiniteDistribution:
    atoms = tuple((e, p) for e, p in atoms)
    if not atoms:
        raise StructuralError("distribution must have at least one atom")
    seen = set()
    total = Fraction(0)
    exact = True
    for example, p in atoms:
        if p <= 0:
            raise StructuralError(f"atom probability must be positive, got {p!r}")
        key = (example.point, example.label)
        if key in seen:
            raise StructuralError(f"duplicate atom {key}")
        seen.add(key)
        if isinstance(p, Fraction):
            total += p
        else:
            exact = False
    if exact:
        if total != 1:
            raise StructuralError(f"probabilities sum to {total}, not 1")
    else:
        s = float(sum(float(p) for _, p in atoms))
        if abs(s - 1.0) > PROB_TOLERANCE:
            raise StructuralError(f"probabilities sum to {s}, not 1")
    dist = object.__new__(FiniteDistribution)
    object.__setattr__(dist, "atoms", atoms)
    return dist


def naive_instance_from_dict(doc) -> ConstructedInstance:
    try:
        space = InstanceSpace(int(doc["space"]["size"]))
        perturbations = PerturbationMap(tuple(tuple(s) for s in doc["perturbations"]))
        family = naive_from_rows(doc["family"]["members"], name=doc["family"].get("name"))
        if perturbations.size != space.size or family.space_size != space.size:
            raise StructuralError("space, perturbations and family disagree on size")
        distributions = None
        if "distributions" in doc:
            distributions = tuple(
                naive_distribution(
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


def outcome(build, *args):
    try:
        return "built", build(*args)
    except Exception as exc:  # the class and message are what the tests compare
        return "raised", (type(exc), str(exc))


def assert_same_family(bulk: HypothesisFamily, naive: HypothesisFamily) -> None:
    assert bulk == naive
    assert [tuple(map(type, h.labels)) for h in bulk] == [tuple(map(type, h.labels)) for h in naive]
    assert bulk.matrix.dtype == naive.matrix.dtype == np.int8
    assert np.array_equal(bulk.matrix, naive.matrix)
    assert not bulk.matrix.flags.writeable


PLUS = [1, 1.0, True, np.int8(1)]
MINUS = [-1, -1.0, np.int8(-1)]
BAD_LABELS = [0, 2, -2, 0.5, 1 + 0j, float("nan"), None, "1", [1]]


@st.composite
def label_rows(draw):
    """Distinct rows of +1/-1 written in several numeric types, sometimes corrupted."""
    n = draw(st.integers(1, 5))
    codes = draw(st.lists(st.integers(0, 2**n - 1), max_size=5, unique=True))
    rows = [
        [draw(st.sampled_from(MINUS if (c >> b) & 1 else PLUS)) for b in range(n)] for c in codes
    ]
    if rows:
        kind = draw(st.sampled_from(["none", "label", "ragged", "empty", "duplicate"]))
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "label":
            rows[i][draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_LABELS))
        elif kind == "ragged":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [1]
        elif kind == "empty":
            rows[i] = []
        elif kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    return rows


@settings(max_examples=300, deadline=None)
@given(label_rows())
def test_from_rows_matches_per_member_construction(rows):
    bulk = outcome(HypothesisFamily.from_rows, rows, "f")
    naive = outcome(naive_from_rows, rows, "f")
    assert bulk[0] == naive[0]
    if bulk[0] == "raised":
        assert bulk[1] == naive[1]
    else:
        assert_same_family(bulk[1], naive[1])


@settings(max_examples=150, deadline=None)
@given(label_rows())
def test_from_rows_reads_one_shot_rows_like_lists(rows):
    # lists are stacked as they are; other rows are read once, so generators replay the same labels
    listed = outcome(HypothesisFamily.from_rows, rows, "f")
    for form in (
        [tuple(r) for r in rows],
        (iter(r) for r in rows),
        ((v for v in r) for r in rows),
    ):
        once = outcome(HypothesisFamily.from_rows, form, "f")
        assert once[0] == listed[0]
        if once[0] == "raised":
            assert once[1] == listed[1]
        else:
            assert_same_family(once[1], listed[1])


@st.composite
def atom_lists(draw):
    """Atoms on distinct examples with exact, float or mixed weights, sometimes corrupted."""
    style = draw(st.sampled_from(["exact", "float", "mixed", "two_blocks"]))
    if style == "two_blocks":
        # Halves split into 1/(2 m1) and 1/(2 m2): neither denominator need be the common one.
        m1, m2 = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        total = 2 * m1 * m2
        probabilities = [Fraction(1, 2 * m1)] * m1 + [Fraction(1, 2 * m2)] * m2
    else:
        weights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
        total = sum(weights)
        probabilities = [Fraction(w, total) for w in weights]
    if style == "float":
        probabilities = [float(p) for p in probabilities]
    elif style == "mixed":
        probabilities[0] = float(probabilities[0])
    size = len(probabilities)
    examples = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from([1, -1])),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    kind = draw(st.sampled_from(["none", "duplicate", "nonpositive", "off_exact", "off_float"]))
    i = draw(st.integers(0, len(examples) - 1))
    if kind == "duplicate":
        examples.insert(draw(st.integers(0, len(examples))), examples[i])
        probabilities.insert(0, probabilities[i])
    elif kind == "nonpositive":
        probabilities[i] = draw(st.sampled_from([Fraction(0), Fraction(-1, 4), 0.0, -0.5]))
    elif kind == "off_exact":
        probabilities[i] += Fraction(draw(st.sampled_from([1, -1])), total)
    elif kind == "off_float":
        probabilities = [float(p) * (1 + draw(st.sampled_from([1e-9, -1e-9]))) for p in probabilities]
    return [(LabeledExample(*e), p) for e, p in zip(examples, probabilities)]


@settings(max_examples=300, deadline=None)
@given(atom_lists())
def test_distribution_checks_match_per_atom_sum(atoms):
    bulk = outcome(FiniteDistribution, atoms)
    naive = outcome(naive_distribution, atoms)
    assert bulk == naive


@st.composite
def instance_documents(draw):
    """JSON-shaped documents with integer fields only, sometimes corrupted."""
    n = draw(st.integers(1, 4))
    balls = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)) for _ in range(n)]
    codes = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=6, unique=True))
    members = [[-1 if (c >> b) & 1 else 1 for b in range(n)] for c in codes]
    distributions = []
    for _ in range(draw(st.integers(0, 3))):
        examples = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1])),
                min_size=1,
                max_size=2 * n,
                unique=True,
            )
        )
        weights = draw(st.lists(st.integers(1, 4), min_size=len(examples), max_size=len(examples)))
        total = sum(weights)
        as_float = draw(st.booleans())
        distributions.append(
            {
                "atoms": [
                    {
                        "point": x,
                        "label": y,
                        "p": w / total if as_float else probability_to_string(Fraction(w, total)),
                    }
                    for (x, y), w in zip(examples, weights)
                ]
            }
        )
    doc = {
        "space": {"size": n},
        "perturbations": balls,
        "family": {"members": members, "name": "doc"},
        "distributions": distributions,
        "anchors": {"anchors": list(range(n))},
        "metadata": {"generator": "test"},
    }
    kind = draw(
        st.sampled_from(
            ["none", "label", "ragged", "duplicate_member", "empty_row",
             "duplicate_atom", "nonpositive", "off_exact", "off_float", "no_distributions",
             "later_reordered", "later_sum", "later_duplicate", "later_nonpositive"]
        )
    )
    i = draw(st.integers(0, len(members) - 1))
    if kind.startswith("later_") and distributions:
        # A later distribution lists an earlier one's probabilities in another
        # order: valid, or spoiled by a missing atom, a repeated pair or a bad p.
        atoms = [dict(a) for a in draw(st.sampled_from(distributions))["atoms"]]
        for a, p in zip(atoms, draw(st.permutations([a["p"] for a in atoms]))):
            a["p"] = p
        j = draw(st.integers(0, len(atoms) - 1))
        if kind == "later_sum":
            del atoms[j]
        elif kind == "later_duplicate" and len(atoms) > 1:
            k = (j + draw(st.integers(1, len(atoms) - 1))) % len(atoms)
            atoms[j].update(point=atoms[k]["point"], label=atoms[k]["label"])
        elif kind == "later_duplicate":
            atoms.append(dict(atoms[0]))
        elif kind == "later_nonpositive" and len(atoms) > 1 and draw(st.booleans()):
            # move the atom's mass and more onto its neighbour: the sum stays put
            q = draw(st.sampled_from([Fraction(0), Fraction(-1, 4)]))
            k = (j + 1) % len(atoms)
            moved = parse_probability(atoms[j]["p"]) - q
            atoms[k]["p"] = probability_to_string(parse_probability(atoms[k]["p"]) + moved)
            atoms[j]["p"] = probability_to_string(q)
        elif kind == "later_nonpositive":
            atoms[j]["p"] = draw(st.sampled_from(["0", "-1/4", 0, -0.5]))
        distributions.append({"atoms": atoms})
    elif kind == "label":
        members[i][draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, 2, -2, 3]))
    elif kind == "ragged":
        members[i] = members[i][:-1] if draw(st.booleans()) else members[i] + [1]
    elif kind == "duplicate_member":
        members.append(list(members[i]))
    elif kind == "empty_row":
        members[i] = []
    elif kind == "no_distributions":
        del doc["distributions"]
    elif distributions:
        atoms = draw(st.sampled_from(distributions))["atoms"]
        j = draw(st.integers(0, len(atoms) - 1))
        if kind == "duplicate_atom":
            atoms.append(dict(atoms[j]))
        elif kind == "nonpositive":
            atoms[j]["p"] = draw(st.sampled_from(["0", "-1/4", 0, -0.5]))
        elif kind == "off_exact":
            total = len(atoms) * 4
            atoms[j]["p"] = probability_to_string(
                parse_probability(atoms[j]["p"]) + Fraction(draw(st.sampled_from([1, -1])), total)
            )
        elif kind == "off_float":
            for a in atoms:
                a["p"] = float(parse_probability(a["p"])) * (1 + 1e-9)
    return doc


@settings(max_examples=300, deadline=None)
@given(instance_documents())
def test_instance_from_dict_matches_per_item_reader(doc):
    bulk = outcome(instance_from_dict, copy.deepcopy(doc))
    naive = outcome(naive_instance_from_dict, copy.deepcopy(doc))
    assert bulk[0] == naive[0]
    if bulk[0] == "raised":
        assert bulk[1] == naive[1]
        return
    got, want = bulk[1], naive[1]
    assert got.space == want.space
    assert got.perturbations == want.perturbations
    assert_same_family(got.family, want.family)
    assert got.anchors == want.anchors
    assert got.distributions == want.distributions
    assert got.metadata == want.metadata


def test_probability_memo_lives_for_one_document(monkeypatch):
    text = dumps_instance(make_agnostic_lower_bound(6, Fraction(1, 4)))
    distinct = {a["p"] for d in json.loads(text)["distributions"] for a in d["atoms"]}
    parsed = []

    def counting_parse(value):
        parsed.append(value)
        return parse_probability(value)

    monkeypatch.setattr(serialization, "parse_probability", counting_parse)
    first = loads_instance(text)
    assert sorted(parsed) == sorted(distinct)
    parsed.clear()
    second = loads_instance(text)
    assert sorted(parsed) == sorted(distinct)
    # Within one document equal values share one object; across documents none is shared.
    for parts in (lambda atom: atom[0], lambda atom: atom[1]):
        values = [parts(a) for d in first.distributions for a in d.atoms]
        again = [parts(a) for d in second.distributions for a in d.atoms]
        assert values == again
        assert len({id(v) for v in values}) == len(set(values)) < len(values)
        assert not {id(v) for v in values} & {id(v) for v in again}


@pytest.mark.parametrize("p", [[0.5], {"p": 1}, None, "abc", "1/0", float("nan")])
def test_bad_probabilities_keep_their_errors(p):
    doc = {
        "space": {"size": 1},
        "perturbations": [[0]],
        "family": {"members": [[1]]},
        "distributions": [{"atoms": [{"point": 0, "label": 1, "p": p}]}],
    }
    assert outcome(instance_from_dict, doc) == outcome(naive_instance_from_dict, doc)


def _six_point_doc(**fields) -> dict:
    doc = {
        "space": {"size": 6},
        "perturbations": [[x] for x in range(6)],
        "family": {"members": [[1] * 6, [-1] * 6]},
    }
    doc.update(fields)
    return doc


@pytest.mark.parametrize(
    "anchors, message",
    [
        ([999, 1.5, "x"], "non-integer anchor: 1.5"),
        ([0, "x"], "non-integer anchor: 'x'"),
        ([True], "non-integer anchor: True"),
        ([0, 999], "anchor 999 outside instance space of size 6"),
        ([5, 6], "anchor 6 outside instance space of size 6"),
        ([-1], "anchor -1 outside instance space of size 6"),
    ],
)
def test_anchors_must_be_integers_inside_the_space(anchors, message):
    doc = _six_point_doc(anchors={"good": [0, 5], "bad": anchors})
    with pytest.raises(StructuralError, match=re.escape(message)):
        instance_from_dict(doc)


def test_valid_anchors_load_as_tuples():
    instance = instance_from_dict(_six_point_doc(anchors={"good": [0, 5], "none": []}))
    assert instance.anchors == {"good": (0, 5), "none": ()}


@pytest.mark.parametrize("value", [True, False])
def test_parse_probability_refuses_booleans(value):
    with pytest.raises(StructuralError, match=f"boolean probability: {value}"):
        parse_probability(value)


@pytest.mark.parametrize("text", ["1e999999999", "1E-99999999", "2.5e-1", "1/4e2"])
def test_parse_probability_refuses_exponent_forms_at_once(text):
    start = time.perf_counter()
    with pytest.raises(StructuralError, match="write a decimal or p/q"):
        parse_probability(text)
    atoms = [{"point": 0, "label": 1, "p": text}]
    with pytest.raises(StructuralError, match="write a decimal or p/q"):
        loads_instance(json.dumps(_six_point_doc(distributions=[{"atoms": atoms}])))
    assert time.perf_counter() - start < 1


def test_over_long_json_integer_is_a_structural_error():
    text = json.dumps(_six_point_doc()).replace('"size": 6', '"size": ' + "9" * 5000)
    start = time.perf_counter()
    with pytest.raises(StructuralError, match="instance document"):
        loads_instance(text)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("anchors", [[0, 1], {"a": 5}, {"a": "01"}, None])
def test_wrong_shaped_anchors_are_structural_errors(anchors):
    with pytest.raises(StructuralError, match="anchors that are not named point lists"):
        instance_from_dict(_six_point_doc(anchors=anchors))


def test_boolean_probability_is_rejected():
    atoms = [{"point": 0, "label": 1, "p": True}]
    with pytest.raises(StructuralError, match="boolean probability: True"):
        instance_from_dict(_six_point_doc(distributions=[{"atoms": atoms}]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_vc_blowup(8),
        lambda: make_proper_failure(2),
        lambda: make_proper_failure(3, cap=9),
        lambda: make_proper_failure(4),
        lambda: make_union_truncation([1, 2]),
        lambda: make_pair_gap(10),
        lambda: make_lower_bound_family(3, Fraction(1, 12)),
        lambda: make_agnostic_lower_bound(6, Fraction(1, 4)),
    ],
    ids=["vc-blowup(8)", "proper-failure(2)", "proper-failure(3)", "proper-failure(4)",
         "union-truncation", "pair-gap(10)", "lower-bound(3)", "agnostic-lower-bound(6)"],
)
def test_batched_writer_emits_the_json_dumps_bytes(build):
    inst = build()
    assert dumps_instance(inst) == json.dumps(instance_to_dict(inst), indent=2, sort_keys=True)


def _written(doc) -> str:
    out: list[str] = []
    serialization._encode(doc, 0, out)
    return "".join(out)


_texts = st.text(max_size=6) | st.sampled_from(
    ["", 'say "hi"', "back\\slash", "line\nbreak\ttab", "\x00\x1f\x7f", "naïve", "☃", "\U0001f600"]
)
_integers = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
_special_floats = st.sampled_from([-0.0, 0.0, 1e16, 1e-7, math.nan, math.inf, -math.inf])
_scalars = st.none() | st.booleans() | _integers | st.floats() | _special_floats | _texts
_int_rows = st.lists(_integers, max_size=8)
_mixed_rows = st.lists(_integers | st.booleans() | st.floats() | _special_floats, max_size=8)
_values = st.recursive(
    _scalars | _int_rows | _int_rows.map(tuple) | _mixed_rows,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_texts, inner, max_size=4)
    | st.dictionaries(_integers, inner, max_size=3),
    max_leaves=12,
)


_atoms = st.lists(
    st.fixed_dictionaries({"point": _integers, "label": st.sampled_from([1, -1]), "p": _texts}),
    max_size=4,
)
# instance-shaped, with rows, names and metadata that stray from what the reader accepts
_written_documents = st.fixed_dictionaries(
    {
        "space": st.fixed_dictionaries({"size": _integers}),
        "perturbations": st.lists(_int_rows | _int_rows.map(tuple), max_size=4),
        "family": st.fixed_dictionaries(
            {"members": st.lists(_int_rows | _mixed_rows, max_size=4), "name": st.none() | _texts}
        ),
        "distributions": st.lists(st.fixed_dictionaries({"atoms": _atoms}), max_size=3),
        "anchors": st.dictionaries(_texts, _int_rows, max_size=3),
        "metadata": st.dictionaries(_texts, _values, max_size=4),
    }
)


@settings(max_examples=200, deadline=None)
@given(_written_documents)
def test_writer_matches_json_dumps_on_instance_shaped_documents(doc):
    assert _written(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 3), {1, 2}, [1, {"deep": [Fraction(1, 2)]}], {"a": 1, 2: "mixed keys"}],
    ids=["fraction", "set", "nested-fraction", "mixed-keys"],
)
def test_writer_raises_what_json_dumps_raises(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        _written({"metadata": value})
    assert str(got.value) == str(want.value)


def test_failed_save_leaves_the_target_untouched(tmp_path):
    path = tmp_path / "keep.json"
    inst = make_proper_failure(1)
    save_instance(inst, str(path))
    kept = path.read_bytes()
    bad = dataclasses.replace(inst, metadata={"alpha": Fraction(1, 3)})
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        save_instance(bad, str(path))
    assert path.read_bytes() == kept
