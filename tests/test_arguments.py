"""The integer-argument contract, one table over every public integer argument.

An integer argument is a Python int or a numpy integer, never a bool.  A
float, a bool or an integer out of range is refused with a message naming
the parameter: `ContractError` for function arguments, `StructuralError`
for the data types that instance documents also build.  A second table
holds the empty inputs (candidates, voters, lists, atoms, trials) each
function refuses, with its exact message; an empty `Sample` cannot be built
(`tests/test_core.py`).  Every delta goes through one check, tested at its
three sites.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np
import pytest

from robustpac import experiments, sampling
from robustpac.agnostic import agnostic_bound, agnostic_round_count
from robustpac.cli import main
from robustpac.constructions import (
    make_agnostic_lower_bound,
    make_lower_bound_family,
    make_pair_gap,
    make_proper_failure,
    make_union_truncation,
    make_vc_blowup,
)
from robustpac.core import (
    ContractError,
    FiniteDistribution,
    Hypothesis,
    HypothesisFamily,
    InstanceSpace,
    LabeledExample,
    PerturbationMap,
    Sample,
    StructuralError,
)
from robustpac.dimensions import (
    disjoint_robust_shattering_dim,
    dual_vc,
    robust_shattering_dim,
    sauer_bound,
    vc,
    vc_of_robust_loss_family,
)
from robustpac.experiments import (
    ExperimentConfig,
    group_adversary_for_k,
    make_group_adversary_instance,
    make_threshold_window_instance,
    run_bound_check,
    run_bounded_k_scaling,
    run_separation_experiment,
)
from robustpac.learner import (
    LearnerConfig,
    alpha_boost,
    build_candidates,
    compression_bound,
    default_round_cap,
    discretize,
    inflate,
    sparsify,
)
from robustpac.prng import rng_stream
from robustpac.reports import ExperimentReport, wilson_interval
from robustpac.sampling import draw_sample, sample_iid
from robustpac.serialization import dumps_instance, loads_instance, save_instance

PAIR = make_pair_gap(2)
GROUPS = make_group_adversary_instance(groups=3, k_max=4)
DIST = FiniteDistribution.uniform([LabeledExample(0, 1), LabeledExample(1, -1)])
FAMILY = HypothesisFamily.from_rows([(1, 1), (1, -1)])
SAMPLE = Sample.from_pairs([(0, 1), (1, -1)])
IDENTITY = PerturbationMap.identity(2)
PERFECT = np.zeros((1, 2), dtype=bool)  # one candidate, right on both points

# id: (call with the value, a valid value, an integer out of range, the name the message carries, error)
SITES = {
    "make_vc_blowup": (make_vc_blowup, 2, 9, "m", ContractError),
    "make_proper_failure": (make_proper_failure, 1, 0, "m", ContractError),
    "make_proper_failure/cap": (lambda v: make_proper_failure(1, cap=v), 3, 2, "cap", ContractError),
    "make_union_truncation": (lambda v: make_union_truncation([v]), 1, 0, "m", ContractError),
    "make_pair_gap": (make_pair_gap, 2, 11, "p", ContractError),
    "make_lower_bound_family": (lambda v: make_lower_bound_family(v, "1/16"), 2, 1, "d", ContractError),
    "make_agnostic_lower_bound": (lambda v: make_agnostic_lower_bound(v, "1/4"), 2, 1, "d", ContractError),
    "rng_stream/seed": (rng_stream, 3, 2**64, "seed", ContractError),
    "rng_stream/stream": (lambda v: rng_stream(0, v), 3, -1, "stream", ContractError),
    "sample_iid/m": (lambda v: sample_iid(DIST, v, 0), 2, 0, "m", ContractError),
    "sample_iid/seed": (lambda v: sample_iid(DIST, 2, v), 3, -1, "seed", ContractError),
    "sample_iid/stream": (lambda v: sample_iid(DIST, 2, 0, stream=v), 3, 2**64, "stream", ContractError),
    "draw_sample": (lambda v: draw_sample(DIST, v, rng_stream(0)), 2, 0, "m", ContractError),
    "vc": (lambda v: vc(PAIR.family, cap=v), 2, -1, "cap", ContractError),
    "dual_vc": (lambda v: dual_vc(PAIR.family, cap=v), 2, -1, "cap", ContractError),
    "vc_of_robust_loss_family": (
        lambda v: vc_of_robust_loss_family(PAIR.family, PAIR.perturbations, cap=v), 2, -1, "cap", ContractError
    ),
    "disjoint_robust_shattering_dim": (
        lambda v: disjoint_robust_shattering_dim(PAIR.family, PAIR.perturbations, cap=v), 2, -1, "cap", ContractError
    ),
    "robust_shattering_dim": (
        lambda v: robust_shattering_dim(PAIR.family, PAIR.perturbations, cap=v), 2, -1, "cap", ContractError
    ),
    "sauer_bound/k": (lambda v: sauer_bound(v, 2), 3, -1, "k", ContractError),
    "sauer_bound/dim": (lambda v: sauer_bound(3, v), 2, -1, "dim", ContractError),
    "LearnerConfig/n_initial": (lambda v: LearnerConfig(n_initial=v), 2, 0, "n_initial", ContractError),
    "build_candidates": (lambda v: build_candidates(FAMILY, SAMPLE, IDENTITY, v), 1, 3, "n", ContractError),
    "alpha_boost": (lambda v: alpha_boost(PERFECT, None, v), 2, 0, "T_max", ContractError),
    "sparsify": (lambda v: sparsify((v,), PERFECT), 0, -1, "voter id", ContractError),  # a lone voter is checked too
    "sparsify/voter id": (lambda v: sparsify((0, v, v), PERFECT), 0, -1, "voter id", ContractError),
    "sparsify/voter id cap": (lambda v: sparsify((v,), PERFECT), 0, 1, "voter id", ContractError),
    "default_round_cap": (default_round_cap, 5, -3, "n_points", ContractError),
    "agnostic_round_count": (agnostic_round_count, 5, -1, "core_size", ContractError),
    "compression_bound/k": (lambda v: compression_bound(v, 50, 0.05), 3, 0, "k", ContractError),
    "compression_bound/m": (lambda v: compression_bound(3, v, 0.05), 50, 3, "m", ContractError),
    "agnostic_bound/sc_re": (lambda v: agnostic_bound(v, 10**6, 0.05), 1, 0, "sc_re", ContractError),
    "agnostic_bound/m": (lambda v: agnostic_bound(1, v, 0.05), 10**6, 0, "m", ContractError),
    "wilson_interval/successes": (lambda v: wilson_interval(v, 3), 1, 4, "successes", ContractError),
    "wilson_interval/total": (lambda v: wilson_interval(0, v), 3, 0, "total", ContractError),
    "ExperimentConfig/m": (lambda v: ExperimentConfig(m=v, trials=1), 2, 0, "m", ContractError),
    "ExperimentConfig/trials": (lambda v: ExperimentConfig(m=2, trials=v), 1, 0, "trials", ContractError),
    "ExperimentConfig/improper_budget": (
        lambda v: ExperimentConfig(m=2, trials=1, improper_budget=v), 8, 0, "improper_budget", ContractError
    ),
    "make_group_adversary_instance/groups": (
        lambda v: make_group_adversary_instance(groups=v), 3, 2, "groups", ContractError
    ),
    "make_group_adversary_instance/k_max": (
        lambda v: make_group_adversary_instance(k_max=v), 2, 0, "k_max", ContractError
    ),
    "make_group_adversary_instance/groups cap": (
        lambda v: make_group_adversary_instance(groups=v), 16, 17, "groups", ContractError
    ),
    "make_group_adversary_instance/k_max cap": (
        lambda v: make_group_adversary_instance(k_max=v), 64, 65, "k_max", ContractError
    ),
    "group_adversary_for_k": (lambda v: group_adversary_for_k(GROUPS, v), 2, 5, "k", ContractError),
    "LabeledExample": (lambda v: LabeledExample(v, 1), 1, -1, "point", StructuralError),
    "Sample.from_pairs": (lambda v: Sample.from_pairs([(v, 1)]), 1, -1, "point", StructuralError),
    "PerturbationMap": (lambda v: PerturbationMap(((v,), (0,))), 1, 2, "perturbation set", StructuralError),
    "InstanceSpace": (InstanceSpace, 2, 0, "size", StructuralError),
    "Hypothesis.constant": (lambda v: Hypothesis.constant(v, 1), 2, 0, "size", ContractError),
    "HypothesisFamily.full_cube": (HypothesisFamily.full_cube, 2, 0, "size", ContractError),
    "PerturbationMap.identity": (PerturbationMap.identity, 2, 0, "size", ContractError),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("kind", ["float", "bool", "out-of-range"])
def test_a_bad_integer_is_refused_by_name(site, kind):
    call, valid, out_of_range, name, error = SITES[site]
    value = {"float": 1.5, "bool": True, "out-of-range": out_of_range}[kind]
    with pytest.raises(error) as refused:
        call(value)
    assert type(refused.value) is error  # not a TypeError or OverflowError
    assert re.search(rf"(^|\W){re.escape(name)}\W", str(refused.value)), str(refused.value)


@pytest.mark.parametrize("site", SITES)
def test_a_numpy_integer_is_accepted_where_an_int_is(site):
    call, valid, _, _, _ = SITES[site]
    call(valid)
    call(np.int64(valid))


def test_numpy_integers_are_stored_as_python_ints():
    example = LabeledExample(np.int64(2), np.int8(-1))
    assert (type(example.point), type(example.label)) == (int, int) and example == LabeledExample(2, -1)
    dist = FiniteDistribution.uniform([LabeledExample(np.int64(0), 1)])
    assert [type(e.point) for e, _ in dist.atoms] == [int]
    instance = make_union_truncation([np.int64(1)])
    assert instance.metadata["block_sizes"] == [1] and type(instance.metadata["block_sizes"][0]) is int
    assert instance.family.name == "union-truncation([1])"
    text = dumps_instance(instance)
    assert text == dumps_instance(make_union_truncation([1]))
    assert dumps_instance(loads_instance(text)) == text


def test_perturbation_members_are_canonical_python_ints():
    pm = PerturbationMap(((np.int64(1), 1), (np.uint8(0),)))
    assert pm.sets == ((1,), (0,))
    assert all(type(z) is int for s in pm.sets for z in s)


DELTAS = [0, 1, 1.5, -0.5, float("nan"), True, "0.05", None]


def _delta_refusal(delta) -> str:
    """The whole message of the one delta check: a number outside (0, 1) as it is, any other value by its repr."""
    if isinstance(delta, (int, float)):
        return rf"^delta must lie in \(0, 1\), got {re.escape(str(delta))}$"
    return rf"^delta must be a real number, got {re.escape(repr(delta))}$"


@pytest.mark.parametrize("delta", DELTAS)
def test_experiment_config_refuses_delta_outside_the_open_unit_interval(delta):
    with pytest.raises(ContractError, match=_delta_refusal(delta)):
        ExperimentConfig(m=2, trials=1, delta=delta)


BOUNDS = {
    "compression_bound": lambda delta: compression_bound(3, 50, delta),
    "agnostic_bound": lambda delta: agnostic_bound(1, 10**6, delta),
}


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("delta", DELTAS)
def test_the_bounds_refuse_delta_outside_the_open_unit_interval(bound, delta):
    with pytest.raises(ContractError, match=_delta_refusal(delta)):
        BOUNDS[bound](delta)


def test_every_delta_site_takes_a_real_number_in_the_open_unit_interval():
    for delta in (0.05, Fraction(1, 20), np.float64(0.05)):
        ExperimentConfig(m=2, trials=1, delta=delta)
        assert compression_bound(3, 50, delta) == compression_bound(3, 50, 0.05)
        assert agnostic_bound(1, 10**6, delta) == agnostic_bound(1, 10**6, 0.05)


def test_experiment_config_holds_python_ints():
    config = ExperimentConfig(m=np.int64(2), trials=np.int32(3), improper_budget=np.uint16(8))
    assert [type(v) for v in (config.m, config.trials, config.improper_budget)] == [int] * 3


def test_experiment_config_holds_delta_as_a_float():
    # an exact delta is kept as its float, so a report that echoes it writes JSON
    config = ExperimentConfig(m=50, trials=3, delta=Fraction(1, 20))
    assert type(config.delta) is float and config.delta == 0.05
    doc = json.loads(json.dumps(run_bound_check(config).to_dict()))
    assert doc["config"]["delta"] == 0.05


@pytest.mark.parametrize(
    "argv, message",
    [
        (["experiment", "separation", "--trials", "1", "--budget", "0"], "improper_budget must be >= 1, got 0"),
        (["experiment", "k-scaling", "--trials", "1", "--groups", "2"], "groups must be >= 3, got 2"),
        (["construct", "union-truncation", "--blocks", "0"], "m must be >= 1, got 0"),
        (["experiment", "k-scaling", "--trials", "1", "--groups", "100000000"], "groups=100000000 exceeds the cap 16"),
        (["experiment", "k-scaling", "--trials", "1", "--k-list", "99999999999"], "k_max=99999999999 exceeds the cap 64"),
    ],
)
def test_the_cli_reports_the_shared_refusal(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["learn", "INSTANCE", "--m", "1000000000000"],
        ["agnostic", "INSTANCE", "--m", "1000000000000"],
        ["experiment", "separation", "--trials", "1", "--budget", "1000000000000"],
        ["experiment", "bound-check", "--trials", "1", "--m", "1000000000000"],
        ["experiment", "k-scaling", "--trials", "1", "--m", "1000000000000"],
    ],
)
def test_a_sample_too_large_to_allocate_exits_2(monkeypatch, capsys, tmp_path, argv):
    # every draw goes through `_atom_draws`; past a million draws it raises as numpy does, allocating nothing
    atom_draws = sampling._atom_draws

    def draws(dist, m, rng):
        if m > 10**6:
            raise MemoryError(f"Unable to allocate {m} draws")
        return atom_draws(dist, m, rng)

    monkeypatch.setattr(sampling, "_atom_draws", draws)
    monkeypatch.setattr(experiments, "_atom_draws", draws)
    instance = tmp_path / "pf1.json"
    save_instance(make_proper_failure(1), str(instance))
    assert main([str(instance) if arg == "INSTANCE" else arg for arg in argv]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 1000000000000 draws\n"


# id: (the call, its error, its whole message)
EMPTY_INPUTS = {
    "discretize": (
        lambda: discretize(inflate(SAMPLE, IDENTITY), FAMILY.matrix[:0]),
        ContractError, "discretization requires a nonempty candidate set",
    ),
    "sparsify": (
        lambda: sparsify((), PERFECT), ContractError, "sparsification requires at least one voter"
    ),
    "make_union_truncation": (
        lambda: make_union_truncation([]), ContractError, "at least one block size is required"
    ),
    "FiniteDistribution": (
        lambda: FiniteDistribution(()), StructuralError, "distribution must have at least one atom"
    ),
    "run_separation_experiment": (
        lambda: run_separation_experiment(make_threshold_window_instance(), ExperimentConfig(m=2, trials=1)),
        ContractError, "separation experiment needs an instance with distributions",
    ),
    "run_bounded_k_scaling": (
        lambda: run_bounded_k_scaling([], ExperimentConfig(m=2, trials=1)), ContractError, "k_list must be nonempty"
    ),
    "ExperimentReport/no trials": (
        lambda: ExperimentReport("r", {}, 0.5, (), ()), ValueError, "a report needs at least one trial"
    ),
    "ExperimentReport/misaligned": (
        lambda: ExperimentReport("r", {}, 0.5, (0.0,), ()), ValueError, "risks and failures must align per trial"
    ),
}


@pytest.mark.parametrize("site", EMPTY_INPUTS)
def test_an_empty_input_is_refused_with_its_message(site):
    call, error, message = EMPTY_INPUTS[site]
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message
