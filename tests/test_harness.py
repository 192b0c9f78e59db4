from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from robustpac.core import (
    ContractError,
    FiniteDistribution,
    HypothesisFamily,
    InstanceSpace,
    LabeledExample,
    PerturbationMap,
    Sample,
    population_robust_risk,
)
from robustpac.constructions import (
    make_agnostic_lower_bound,
    make_lower_bound_family,
    make_pair_gap,
    make_proper_failure,
    make_vc_blowup,
)
from robustpac.experiments import (
    ExperimentConfig,
    _run_trials,
    group_adversary_for_k,
    make_group_adversary_instance,
    make_threshold_window_instance,
    run_bound_check,
    run_bounded_k_scaling,
    run_separation_experiment,
)
from robustpac import experiments, learner
from robustpac.dimensions import vc
from robustpac.oracles import rerm
from robustpac.prng import rekey, rng_stream
from robustpac.reports import ExperimentReport, wilson_interval
from robustpac.sampling import draw_sample, sample_iid
from robustpac.serialization import (
    dumps_instance,
    loads_instance,
    parse_probability,
    probability_to_string,
)



# --- sampling ----------------------------------------------------------------


def test_point_mass_sampling():
    dist = FiniteDistribution.uniform([LabeledExample(2, -1)])
    sample = sample_iid(dist, 10, seed=0)
    assert all(e == LabeledExample(2, -1) for e in sample)


def test_two_equal_atoms_frequency_golden():
    dist = FiniteDistribution(
        ((LabeledExample(0, 1), Fraction(1, 2)), (LabeledExample(1, -1), Fraction(1, 2)))
    )
    sample = sample_iid(dist, 10_000, seed=42)
    freq = sum(1 for e in sample if e.point == 0) / 10_000
    assert 0.47 <= freq <= 0.53
    assert freq == 0.5022  # pinned after the first draw


@pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_rng_stream_keys_are_64_bit(seed, stream):
    with pytest.raises(ContractError, match=r"must lie in \[0, 2\^64\)"):
        rng_stream(seed, stream)
    assert rng_stream(2**64 - 1, 2**64 - 1).integers(0, 10) == rng_stream(2**64 - 1, 2**64 - 1).integers(0, 10)


def _draws(rng: np.random.Generator) -> list:
    """Each kind of draw a trial makes, ending on an odd number of 32-bit draws."""
    return [
        rng.random(3).tolist(),
        rng.integers(0, 2**62, size=3).tolist(),
        rng.dirichlet(np.ones(4)).tolist(),
        rng.integers(0, 1000, size=3, dtype=np.int32).tolist(),
    ]


def _state(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return {
        "key": state["state"]["key"].tolist(),
        "counter": state["state"]["counter"].tolist(),
        "buffer": state["buffer"].tolist(),
        **{k: state[k] for k in ("bit_generator", "buffer_pos", "has_uint32", "uinteger")},
    }


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_a_rekeyed_generator_draws_what_a_fresh_stream_draws(seed):
    rng = rng_stream(5, 9)
    _draws(rng)  # leaves a buffered 32-bit half-word, which must not reach the next key
    assert _state(rng)["has_uint32"] == 1
    for stream in (0, 1, 2**32, 2**64 - 1):
        fresh = rng_stream(seed, stream)
        assert rekey(rng, seed, stream) is rng
        assert _state(rng) == _state(fresh)
        assert _draws(rng) == _draws(fresh)
        assert _state(rng) == _state(fresh) and _state(rng)["has_uint32"] == 1


def test_trial_t_draws_stream_seed_t():
    config = ExperimentConfig(m=1, trials=5, seed=2**64 - 1)
    rows, _ = _run_trials(config, _draws)
    assert rows == [_draws(rng_stream(2**64 - 1, t)) for t in range(5)]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_separation_refuses_seeds_outside_64_bits(seed):
    config = ExperimentConfig(m=1, trials=2, seed=seed)
    message = rf"^seed and stream must lie in \[0, 2\^64\), got seed={seed}, stream=0$"
    with pytest.raises(ContractError, match=message):
        run_separation_experiment(make_proper_failure(1), config)


def test_same_seed_same_sample():
    inst = make_proper_failure(2)
    a = sample_iid(inst.distributions[3], 50, seed=9)
    b = sample_iid(inst.distributions[3], 50, seed=9)
    assert a == b
    c = sample_iid(inst.distributions[3], 50, seed=10)
    assert a != c


def test_sample_size_contract():
    dist = FiniteDistribution.uniform([LabeledExample(0, 1)])
    with pytest.raises(ContractError):
        sample_iid(dist, 0, seed=1)


# --- serialization -----------------------------------------------------------


def test_probability_strings_round_trip_exactly():
    cases = [Fraction(1, 4), Fraction(1, 3), Fraction(3, 50), Fraction(1), 0.1, 0.25]
    cases += [Fraction(-1, 40), Fraction(-1, 3), -0.5]
    for p in cases:
        text = probability_to_string(p)
        assert parse_probability(text) == Fraction(p)
    assert probability_to_string(Fraction(1, 4)) == "0.25"
    assert probability_to_string(Fraction(1, 3)) == "1/3"
    assert probability_to_string(Fraction(3, 50)) == "0.06"
    assert probability_to_string(Fraction(-1, 40)) == "-0.025"
    assert probability_to_string(Fraction(-1, 4)) == "-0.25"
    assert probability_to_string(Fraction(-1, 3)) == "-1/3"


def test_instances_round_trip():
    for inst in (
        make_vc_blowup(3),
        make_proper_failure(2),
        make_pair_gap(2),
        make_lower_bound_family(3, Fraction(1, 12)),
        make_agnostic_lower_bound(6, Fraction(1, 4)),
        make_proper_failure(3, cap=9),
    ):
        text = dumps_instance(inst)
        again = loads_instance(text)
        assert dumps_instance(again) == text
        assert again.space == inst.space
        assert again.perturbations == inst.perturbations
        assert again.family == inst.family
        assert again.anchors == inst.anchors
        assert again.distributions == inst.distributions


def test_serialization_is_byte_stable():
    inst = make_proper_failure(2)
    assert dumps_instance(inst) == dumps_instance(make_proper_failure(2))


# --- reports -----------------------------------------------------------------


def test_wilson_interval_is_sane():
    lo, hi = wilson_interval(1, 2)
    assert 0.0 <= lo <= 0.5 <= hi <= 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 < 0.05


@pytest.mark.parametrize("successes, total", [(0, 0), (1, 0), (0, -2), (3, 2), (-1, 5)])
def test_wilson_interval_refuses_impossible_counts(successes, total):
    message = f"^Wilson interval needs 0 <= successes <= total >= 1, got {successes}/{total}$"
    with pytest.raises(ContractError, match=message):
        wilson_interval(successes, total)


def test_report_frequencies_recompute_from_rows():
    report = ExperimentReport(
        name="toy",
        config={"m": 1},
        threshold=0.5,
        risks=(0.1, 0.9, 0.6, 0.2),
        failures=(False, True, True, False),
    )
    assert report.failure_frequency == Fraction(2, 4)
    assert report.failure_count == sum(report.failures)
    csv = report.to_csv().strip().splitlines()
    assert csv[0] == "trial,risk,failed"
    assert len(csv) == 5
    recount = sum(int(line.split(",")[2]) for line in csv[1:])
    assert Fraction(recount, 4) == report.failure_frequency


# --- experiments -------------------------------------------------------------


def test_separation_is_deterministic():
    inst = make_proper_failure(2)
    config = ExperimentConfig(m=2, trials=30, seed=7, improper_budget=16)
    p1, i1 = run_separation_experiment(inst, config)
    p2, i2 = run_separation_experiment(inst, config)
    assert p1.risks == p2.risks and p1.failures == p2.failures
    assert i1.risks == i2.risks and i1.failures == i2.failures
    assert p2.to_csv() == p1.to_csv()


def test_separation_single_trial_fixed_seed():
    inst = make_proper_failure(2)
    config = ExperimentConfig(m=2, trials=1, seed=3, improper_budget=16)
    proper, improper = run_separation_experiment(inst, config)
    assert proper.trials == improper.trials == 1
    assert proper.risks == run_separation_experiment(inst, config)[0].risks


def test_separation_finds_the_default_n_initial_once_per_family(monkeypatch):
    # the experiment leaves n_initial unset; vc(family) + 1 is found on the
    # first trial and kept on the family for every later trial and call
    families = []
    real = learner.vc

    def counted(family, *args, **kwargs):
        families.append(family)
        return real(family, *args, **kwargs)

    monkeypatch.setattr(learner, "vc", counted)
    inst = make_proper_failure(2)
    config = ExperimentConfig(m=2, trials=5, seed=3, improper_budget=16)
    first = run_separation_experiment(inst, config)
    second = run_separation_experiment(inst, config)
    assert len(families) == 1 and families[0] is inst.family
    assert learner._default_n_initial(inst.family) == vc(inst.family).value + 1
    assert [r.to_csv() for r in first] == [r.to_csv() for r in second]


def _with_twin_members(instance):
    """The instance plus one free point that no ball reaches, each member twice.

    Members come in reversed order, each labelling the free point -1 and
    then +1, so every sample ties the two copies and only the lowest-index
    rule tells which one RERM returns.
    """
    n = instance.space.size
    rows = [np.append(row, label) for row in instance.family.matrix[::-1] for label in (-1, 1)]
    return replace(
        instance,
        space=InstanceSpace(n + 1),
        perturbations=PerturbationMap(instance.perturbations.sets + ((n,),)),
        family=HypothesisFamily(np.array(rows), name="twin-members"),
    )


def _next_random(rng: np.random.Generator) -> float:
    """The generator's next `random()`, drawn from a copy so the generator does not move."""
    copy = np.random.Generator(type(rng.bit_generator)())
    copy.bit_generator.state = rng.bit_generator.state
    return copy.random()


@pytest.mark.parametrize(
    "instance, m",
    [(make_proper_failure(k), m) for k in (1, 2, 3) for m in (1, 2, 3)]
    + [(_with_twin_members(make_proper_failure(2)), 2)],
    ids=[f"pf{k}-m{m}" for k in (1, 2, 3) for m in (1, 2, 3)] + ["twins-m2"],
)
def test_the_proper_arm_is_rerm_on_the_drawn_sample(monkeypatch, instance, m):
    # the arm reads the drawn atoms' columns of the distribution's loss table; replayed
    # through draw_sample and rerm, every trial must pick the same member, report the
    # same risk and leave its generator where draw_sample leaves it
    picks, next_draws = [], []
    real_draws, real_pick = experiments._atom_draws, experiments._lowest_minimizer

    def draws(dist, m, rng):
        drawn = real_draws(dist, m, rng)
        next_draws.append(_next_random(rng))
        return drawn

    def pick(losses):
        picked = real_pick(losses)
        picks.append(picked[0])
        return picked

    monkeypatch.setattr(experiments, "_atom_draws", draws)
    monkeypatch.setattr(experiments, "_lowest_minimizer", pick)
    config = ExperimentConfig(m=m, trials=30, seed=17, improper_budget=8)
    proper, _ = run_separation_experiment(instance, config)
    assert len(picks) == len(next_draws) == config.trials
    family, u, dists = instance.family, instance.perturbations, instance.distributions
    rng = rng_stream(config.seed, 0)
    for t in range(config.trials):
        rekey(rng, config.seed, t)
        dist = dists[int(rng.integers(len(dists)))]
        result = rerm(family, draw_sample(dist, m, rng), u)
        risk = population_robust_risk(family[result.hypothesis_index], dist, u)
        assert result.hypothesis_index == picks[t]
        assert proper.risks[t] == float(risk) and proper.failures[t] == (risk > Fraction(1, 8))
        assert rng.random() == next_draws[t]
    if family.name == "twin-members":
        assert all(index % 2 == 0 for index in picks)  # the first of each tied pair


def _rerm_failure_probability(instance, m: int) -> Fraction:
    """P[R > 1/8] of RERM on m draws from a uniformly drawn distribution, exactly.

    Every ordered m-draw sample of every distribution goes through `rerm`,
    weighted by the product of its atoms' probabilities.
    """
    family, u = instance.family, instance.perturbations
    total = Fraction(0)
    for dist in instance.distributions:
        for draw in product(dist.atoms, repeat=m):
            pick = rerm(family, Sample(tuple(e for e, _ in draw)), u).hypothesis_index
            if population_robust_risk(family[pick], dist, u) > Fraction(1, 8):
                total += math.prod(p for _, p in draw)
    return total / len(instance.distributions)


@pytest.mark.parametrize("m, exact", [(1, Fraction(1, 2)), (2, Fraction(17, 20))])
def test_the_proper_arm_fails_as_often_as_rerm_fails_exactly(m, exact):
    instance = make_proper_failure(m)
    assert _rerm_failure_probability(instance, m) == exact
    config = ExperimentConfig(m=m, trials=2000, seed=202, improper_budget=8)
    proper, _ = run_separation_experiment(instance, config)
    sigma = math.sqrt(exact * (1 - exact) / config.trials)
    assert abs(float(proper.failure_frequency) - exact) <= 3 * sigma


def test_bound_check_respects_the_compression_budget():
    config = ExperimentConfig(m=50, trials=40, seed=13)
    report = run_bound_check(config, k=3)
    assert report.trials == 40
    assert float(report.failure_frequency) <= 0.1
    assert report.threshold == pytest.approx(0.3134425806348602)


def test_bound_check_refuses_a_violation_rate_past_delta_plus_three_sigma(monkeypatch):
    # a bound below every risk flags every trial: rate 1 > 0.05 + 3 sqrt(0.05 * 0.95 / 3) = 0.4275
    monkeypatch.setattr(experiments, "compression_bound", lambda k, m, delta: -1.0)
    message = r"^compression bound violated too often: rate 1\.0000 > delta \+ 3 sigma = 0\.4275$"
    with pytest.raises(RuntimeError, match=message):
        run_bound_check(ExperimentConfig(m=50, trials=3, seed=13), k=3)


def test_bound_check_draws_keep_the_float_dirichlet_cdf():
    # exact weights leave sampling's CDF what it was when the weights were the
    # Dirichlet floats themselves, their cumsum with its last entry 1.0, bit for bit
    inst = make_threshold_window_instance()
    n = inst.space.size
    for seed in range(300):
        rng, float_rng = rng_stream(seed, 7), rng_stream(seed, 7)
        dist = experiments._random_threshold_distribution(inst, rng)
        t_star = int(float_rng.integers(2, n - 1))
        while True:
            probs = float_rng.dirichlet(np.ones(n - 2))
            if probs.min() > 0.0:
                break
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        points, labels, got = dist._columns
        assert got.tobytes() == cdf.tobytes()
        assert points.tolist() == [x for x in range(n) if x not in (t_star - 1, t_star)]
        assert labels.tolist() == [-1 if x < t_star else 1 for x in points.tolist()]
        assert FiniteDistribution(dist.atoms).atoms == dist.atoms  # the unchecked build passes every check
        assert type(population_robust_risk(inst.family[t_star], dist, inst.perturbations)) is Fraction
        assert rng.random() == float_rng.random()  # both generators stand at the same position


def test_threshold_window_instance_is_realizable_fixture():
    inst = make_threshold_window_instance()
    assert inst.space.size == 12
    assert len(inst.family) == 13
    assert vc(inst.family).value == 1


def test_group_adversary_shapes():
    inst = make_group_adversary_instance(groups=4, k_max=8)
    assert vc(inst.family).value == 2
    for k in (1, 2, 8):
        u = group_adversary_for_k(inst, k)
        assert max(map(len, u.sets)) == k
    with pytest.raises(ContractError):
        group_adversary_for_k(inst, 9)
    # k = 1 is the identity-adversary baseline
    from robustpac.core import PerturbationMap

    assert group_adversary_for_k(inst, 1) == PerturbationMap.identity(inst.space.size)


def test_k_scaling_table_shape_and_bounds():
    config = ExperimentConfig(m=12, trials=2, seed=5)
    table = run_bounded_k_scaling([1, 2, 4], config)
    assert [row.k for row in table.rows] == [1, 2, 4]
    for row in table.rows:
        assert row.max_discretized <= row.mk_bound
    csv = table.to_csv().splitlines()
    assert csv[0] == (
        "k,trials,m,mean_inflated,mean_discretized,max_discretized,mk_bound,"
        "mean_rounds,mean_n,mean_compression,max_compression"
    )
    assert len(csv) == 4
