"""Monte Carlo experiment orchestration.

Trials run one after another in `_run_trials`, which hands trial t the
Philox stream keyed (seed, t): one generator serves the whole run and is
re-keyed to (seed, t) before trial t, so the trial draws exactly what
`rng_stream(seed, t)` would, and the generator is valid only inside its
trial.  The trial draws its data from it and the learner's sparsification
continues it, so each trial is a pure function of the seed and its index
and reports are identical across runs.  Population risks are exact
Fractions, stored as floats in the report rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .constructions import ConstructedInstance
from .core import (
    ContractError,
    FiniteDistribution,
    HypothesisFamily,
    InstanceSpace,
    LabeledExample,
    PerturbationMap,
    _checked_delta,
    _checked_distribution,
    _checked_int,
    _exact_sum,
    population_robust_risk,
)
from .learner import LearnerConfig, compression_bound, learn_realizable_report
from .oracles import _lowest_minimizer
from .prng import rekey, rng_stream
from .reports import ExperimentReport
from .sampling import _atom_draws, draw_sample

__all__ = [
    "ExperimentConfig",
    "ScalingRow",
    "ScalingTable",
    "run_separation_experiment",
    "run_bound_check",
    "run_bounded_k_scaling",
    "make_threshold_window_instance",
    "make_group_adversary_instance",
    "group_adversary_for_k",
]

# make_group_adversary_instance's ceilings: its matrix is (1 + g + g(g-1)/2) x g*k_max labels
GROUPS_CAP = 16
K_MAX_CAP = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved knobs of one experiment run, echoed in reports.

    A report echoes `m`, `trials`, `seed`, `instance_source` and the
    learner, always "compress-boost", plus the knobs its experiment reads,
    which the experiment passes to `echo`.  Failure thresholds are not
    knobs: 1/8 for separation, the compression bound at (k, m, delta) for
    bound checks.
    """

    m: int
    trials: int
    seed: int = 0
    delta: float = 0.05
    improper_budget: int = 64
    instance_source: str | None = None

    def __post_init__(self) -> None:
        for name in ("m", "trials", "improper_budget"):
            object.__setattr__(self, name, _checked_int(name, getattr(self, name), 1))
        _checked_delta(self.delta)

    def echo(self, **read) -> dict:
        return {
            "m": self.m,
            "trials": self.trials,
            "seed": self.seed,
            "instance_source": self.instance_source,
            "learner": "compress-boost",
            **read,
        }


def _run_trials(
    config: ExperimentConfig, one_trial: Callable[[np.random.Generator], tuple]
) -> tuple[list[tuple], float]:
    """Run each trial t on the generator keyed (seed, t); the rows and the wall time.

    One generator from `rng_stream(seed, 0)`, which checks the seed, serves
    every trial: `rekey` resets it to key (seed, t) before trial t, so the
    trial draws exactly what `rng_stream(seed, t)` draws.  A trial must not
    keep it past its end, since the next trial re-keys it.
    """
    start = time.perf_counter()
    rng = rng_stream(config.seed, 0)
    rows = [one_trial(rekey(rng, config.seed, t)) for t in range(config.trials)]
    return rows, time.perf_counter() - start


def run_separation_experiment(
    instance: ConstructedInstance, config: ExperimentConfig
) -> tuple[ExperimentReport, ExperimentReport]:
    """Proper (exact RERM) vs improper (compress-boost) arms on one instance.

    Each trial draws a distribution uniformly from the instance's family of
    hard distributions, then an m-point sample for the proper arm and an
    `improper_budget`-point sample for the improper arm.  Reported failures
    are trials whose population robust risk exceeds epsilon = 1/8.

    The proper arm is `rerm` on `draw_sample`'s sample without building
    either: it draws the m atom indices as `draw_sample` does
    (`sampling._atom_draws`, the same one `rng.random(m)` call), sums those
    columns of the distribution's kept (members, atoms) loss table, takes
    `rerm`'s lowest-index minimizer (`oracles._lowest_minimizer`) and reads
    its risk from the risks kept with it (`FiniteDistribution._member_table`).
    """
    if not instance.distributions:
        raise ContractError("separation experiment needs an instance with distributions")
    eps = Fraction(1, 8)
    dists = instance.distributions
    family = instance.family
    perturbations = instance.perturbations
    learner_config = LearnerConfig()  # n starts at vc(family) + 1, found once per family

    def one_trial(rng: np.random.Generator) -> tuple:
        dist = dists[int(rng.integers(len(dists)))]
        drawn = _atom_draws(dist, config.m, rng)
        losses, risks = dist._member_table(family, perturbations)
        proper_risk = risks[_lowest_minimizer(losses[:, drawn].sum(axis=1))[0]]
        improper_sample = draw_sample(dist, config.improper_budget, rng)
        report = learn_realizable_report(family, improper_sample, perturbations, learner_config, rng=rng)
        improper_risk = population_robust_risk(report.predictor, dist, perturbations)
        return proper_risk, improper_risk

    rows, elapsed = _run_trials(config, one_trial)
    proper_risks = tuple(float(r[0]) for r in rows)
    improper_risks = tuple(float(r[1]) for r in rows)
    proper_failed = tuple(r[0] > eps for r in rows)
    improper_failed = tuple(r[1] > eps for r in rows)
    echo = config.echo(improper_budget=config.improper_budget, instance=instance.metadata.get("generator"))
    proper = ExperimentReport(
        "separation/proper-rerm", dict(echo, arm="proper"), float(eps),
        proper_risks, proper_failed, wall_clock=elapsed,
    )
    improper = ExperimentReport(
        "separation/improper-compress-boost", dict(echo, arm="improper"), float(eps),
        improper_risks, improper_failed, wall_clock=elapsed,
    )
    return proper, improper


def make_threshold_window_instance() -> ConstructedInstance:
    """Threshold predictors on a 12-point line with a +/-1 window adversary.

    h_t labels +1 exactly the points >= t; U(x) is the radius-1 window around
    x.  A labeling by h_t with one point of slack around the threshold is
    robustly realizable, which makes this the stock fixture for compression
    bound checks.
    """
    n_points = 12
    sets = tuple(
        tuple(z for z in (x - 1, x, x + 1) if 0 <= z < n_points) for x in range(n_points)
    )
    labels = np.where(np.arange(n_points) >= np.arange(n_points + 1)[:, None], 1, -1)
    return ConstructedInstance(
        space=InstanceSpace(n_points),
        perturbations=PerturbationMap(sets),
        family=HypothesisFamily(labels, name=f"thresholds({n_points})"),
        anchors={},
        distributions=None,
        metadata={"generator": "threshold_window", "n_points": n_points},
    )


def _exact_dirichlet(n: int, rng: np.random.Generator) -> list[Fraction]:
    """n positive Fractions summing to 1, from one flat Dirichlet draw (redrawn until valid).

    Every weight but the last is its float read exactly and the last is 1
    minus their sum, so the float cumsum of the weights with its last entry
    set to 1.0, the CDF that sampling builds, is the draw's own.  A draw
    with a zero weight or a last weight <= 0 is redrawn.
    """
    while True:
        probs = rng.dirichlet(np.ones(n)).tolist()
        weights = [Fraction(p) for p in probs[:-1]]
        weights.append(1 - _exact_sum(weights))
        if min(probs) > 0.0 and weights[-1] > 0:
            return weights


def _random_threshold_distribution(
    instance: ConstructedInstance, rng: np.random.Generator
) -> FiniteDistribution:
    """A distribution realizable by a random threshold, its weights `_exact_dirichlet`'s.

    The atoms sit on distinct points and the weights are positive and sum
    to 1 by construction, so the distribution is built unchecked.
    """
    n = instance.space.size
    t_star = int(rng.integers(2, n - 1))
    support = [LabeledExample(x, -1) for x in range(0, t_star - 1)]
    support += [LabeledExample(x, +1) for x in range(t_star + 1, n)]
    return _checked_distribution(tuple(zip(support, _exact_dirichlet(len(support), rng))))


def run_bound_check(config: ExperimentConfig, k: int = 3) -> ExperimentReport:
    """Frequency of compression-bound violations over realizable trials.

    Each trial builds a random robustly realizable distribution on the
    threshold-window fixture, draws m points, learns with subset size 1 and
    at most 3 sparsified voters (compression size <= k = 3), and flags the
    trial when the population robust risk exceeds the bound at (k, m, delta).
    Trials whose realized compression exceeds k are counted as violations,
    conservatively.  A violation rate beyond delta + 3 sigma Monte Carlo
    slack raises RuntimeError.
    """
    inst = make_threshold_window_instance()
    eps = compression_bound(k, config.m, config.delta)
    learner_config = LearnerConfig(n_initial=1, N_sparsify=k)

    def one_trial(rng: np.random.Generator) -> tuple[float, bool]:
        dist = _random_threshold_distribution(inst, rng)
        sample = draw_sample(dist, config.m, rng)
        report = learn_realizable_report(inst.family, sample, inst.perturbations, learner_config, rng=rng)
        risk = float(population_robust_risk(report.predictor, dist, inst.perturbations))
        failed = risk > eps or report.compression_size > k
        return risk, failed

    rows, elapsed = _run_trials(config, one_trial)
    echo = config.echo(delta=config.delta, k=k, instance=inst.metadata.get("generator"))
    report = ExperimentReport(
        "compression-bound-check",
        echo,
        eps,
        tuple(r[0] for r in rows),
        tuple(r[1] for r in rows),
        wall_clock=elapsed,
    )
    slack = config.delta + 3.0 * math.sqrt(config.delta * (1.0 - config.delta) / config.trials)
    if float(report.failure_frequency) > slack:
        raise RuntimeError(
            f"compression bound violated too often: rate "
            f"{float(report.failure_frequency):.4f} > delta + 3 sigma = {slack:.4f}"
        )
    return report


def make_group_adversary_instance(groups: int = 4, k_max: int = 16) -> ConstructedInstance:
    """Fixed family of group labelings; the adversary's reach scales separately.

    Each group has one center and k_max - 1 satellites.  Members label whole
    groups and flip at most two of them to -1, so the VC dimension is exactly
    2 no matter which adversary radius is used.  Pair with
    :func:`group_adversary_for_k` to get max |U(x)| = k at fixed family.
    groups is at most GROUPS_CAP and k_max at most K_MAX_CAP.
    """
    groups, k_max = _checked_int("groups", groups, 3, GROUPS_CAP), _checked_int("k_max", k_max, 1, K_MAX_CAP)
    size = groups * k_max
    flips = [(), *combinations(range(groups), 1), *combinations(range(groups), 2)]
    labels = np.ones((len(flips), groups, k_max), dtype=np.int8)
    for member, flip in enumerate(flips):
        labels[member, list(flip)] = -1
    return ConstructedInstance(
        space=InstanceSpace(size),
        perturbations=PerturbationMap.identity(size),
        family=HypothesisFamily(labels.reshape(len(flips), size), name=f"group-flips({groups}x{k_max})"),
        anchors={"centers": tuple(g * k_max for g in range(groups))},
        distributions=None,
        metadata={"generator": "group_adversary", "groups": groups, "k_max": k_max},
    )


def group_adversary_for_k(instance: ConstructedInstance, k: int) -> PerturbationMap:
    """Adversary moving each center to its first k-1 satellites: max |U(x)| = k."""
    groups = instance.metadata["groups"]
    k_max = instance.metadata["k_max"]
    k = _checked_int("k", k, 1, k_max)
    sets = [(x,) for x in range(instance.space.size)]
    for g in range(groups):
        center = g * k_max
        sets[center] = tuple(range(center, center + k))
    return PerturbationMap(tuple(sets))


@dataclass(frozen=True)
class ScalingRow:
    k: int
    trials: int
    m: int
    mean_inflated: float
    mean_discretized: float
    max_discretized: int
    mk_bound: int
    mean_rounds: float
    mean_n: float
    mean_compression: float
    max_compression: int


@dataclass(frozen=True)
class ScalingTable:
    rows: tuple[ScalingRow, ...]

    def to_csv(self) -> str:
        """One column per `ScalingRow` field, in field order; values as their repr."""
        names = [f.name for f in fields(ScalingRow)]
        lines = [",".join(names)]
        lines += [",".join(repr(getattr(r, name)) for name in names) for r in self.rows]
        return "\n".join(lines) + "\n"


def run_bounded_k_scaling(
    k_list: Sequence[int],
    config: ExperimentConfig,
    groups: int = 4,
) -> ScalingTable:
    """Pipeline sizes versus adversary reach k, at a fixed family with vc = 2.

    For each k the same family faces an adversary with max |U(x)| = k; the
    table records the discretized-set size (bounded by m*k) and the
    pre-sparsification compression size n*T per trial.
    """
    if not k_list:
        raise ContractError("k_list must be nonempty")
    k_max = max(k_list)
    instance = make_group_adversary_instance(groups=groups, k_max=k_max)
    centers = instance.anchors["centers"]
    negatives = centers[:2]
    labels = [(-1 if c in negatives else +1) for c in centers]
    dist = FiniteDistribution.uniform(
        [LabeledExample(c, lab) for c, lab in zip(centers, labels)]
    )
    learner_config = LearnerConfig(n_initial=3)

    rows = []
    for k in k_list:
        perturbations = group_adversary_for_k(instance, k)

        def one_trial(rng: np.random.Generator) -> tuple[int, int, int, int]:
            sample = draw_sample(dist, config.m, rng)
            report = learn_realizable_report(instance.family, sample, perturbations, learner_config, rng=rng)
            return report.inflated_size, report.discretized_size, report.rounds, report.n_used

        outcomes, _ = _run_trials(config, one_trial)
        inflated, sizes, rounds, ns = zip(*outcomes)
        compressions = [n * r for n, r in zip(ns, rounds)]
        rows.append(
            ScalingRow(
                k=k,
                trials=config.trials,
                m=config.m,
                mean_inflated=sum(inflated) / len(inflated),
                mean_discretized=sum(sizes) / len(sizes),
                max_discretized=max(sizes),
                mk_bound=config.m * k,
                mean_rounds=sum(rounds) / len(rounds),
                mean_n=sum(ns) / len(ns),
                mean_compression=sum(compressions) / len(compressions),
                max_compression=max(compressions),
            )
        )
    return ScalingTable(tuple(rows))
