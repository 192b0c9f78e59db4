"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed with the library's
own generators (the set-up), then serves requests one at a time in a closed
loop with one client.  A request calls the public API in the order the
matching CLI subcommand does and returns its outputs; `check` then verifies
them outside the timed region and returns the canonical document that
enters the run's output digest.  `trace_rounds` is the fixed number of
rounds a traced run serves, so that its per-layer counts do not depend on
the clock; each is sized to take about 8 s untraced on a 2-vCPU Xeon VM.

- `separation`: the paper's headline experiment, proper RERM against the
  improper compress-boost learner on proper-failure(2).  One request is one
  `run_separation_experiment` call of TRIALS_PER_REQUEST trials, so trial
  overhead, the per-ball loops in `core` and the realizable learner at small
  m dominate.  Nothing is parsed.
- `agnostic`: one `robustpac agnostic` request on agnostic-lower-bound(6,
  1/4): a fresh exact parse, one m = 128 sample, the agnostic reduction and
  exact scoring.  Nothing is shared across requests.
- `dims`: one `robustpac dims` request per instance of a zoo holding
  vc-blowup(8) (wide space, few members), pair-gap(10) (many members, small
  space), proper-failure(3) and RANDOM_PER_PASS seeded random families.  The
  only workload where `dimensions` dominates; no learner code runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TRIALS_PER_REQUEST = 16
SEPARATION_M = 2
IMPROPER_BUDGET = 64
SEPARATION_EPSILON = Fraction(1, 8)

AGNOSTIC_D = 6
AGNOSTIC_ALPHA = Fraction(1, 4)
AGNOSTIC_M = 128

DIMS_CAP = 12
RANDOM_PER_PASS = 100
RANDOM_POINTS = (10, 11, 12, 13)
RANDOM_MAX_MEMBERS = 256
RANDOM_EXTRA_RATE = 0.1


def _request_rng(seed: int, index: int) -> np.random.Generator:
    """Benchmark-side randomness keyed by (workload seed, request or pass)."""
    return np.random.Generator(np.random.PCG64([seed, index]))


class Separation:
    """Proper vs improper arms; each request is a 16-trial experiment."""

    name = "separation"
    digest_requests = 8
    trace_rounds = 160
    unit = "trials"
    units_per_request = TRIALS_PER_REQUEST

    def __init__(self, rp, seed: int) -> None:
        self.rp = rp
        self.seed = seed
        self.instance = rp.make_proper_failure(SEPARATION_M)
        self.trials = 0
        self.proper_failures = 0
        self.improper_failures = 0

    def round(self, index: int) -> list:
        return [index]

    def execute(self, index: int):
        # Trial t of an experiment draws from the stream (seed, t), so each
        # request gets its own experiment seed to keep trials distinct.
        config = self.rp.ExperimentConfig(
            m=SEPARATION_M,
            trials=TRIALS_PER_REQUEST,
            seed=(self.seed << 20) + index,
            improper_budget=IMPROPER_BUDGET,
            instance_source=f"proper-failure(m={SEPARATION_M})",
        )
        return self.rp.run_separation_experiment(self.instance, config)

    def check(self, index: int, output) -> tuple[list[str], dict]:
        proper, improper = output
        problems = []
        for report in (proper, improper):
            if report.trials != TRIALS_PER_REQUEST:
                problems.append(f"{report.name}: {report.trials} trials")
            for risk, failed in zip(report.risks, report.failures):
                if not 0.0 <= risk <= 1.0:
                    problems.append(f"{report.name}: risk {risk} outside [0, 1]")
                if failed != (risk > SEPARATION_EPSILON):
                    problems.append(f"{report.name}: failure flag disagrees with risk {risk}")
        self.trials += TRIALS_PER_REQUEST
        self.proper_failures += proper.failure_count
        self.improper_failures += improper.failure_count
        return problems, {"proper": proper.to_dict(), "improper": improper.to_dict()}

    def finish(self) -> list[str]:
        """Acceptance criteria 2 and 3 over every trial of the run."""
        n = self.trials
        floor = 1 / 7 - 3 * math.sqrt((1 / 7) * (6 / 7) / n)
        problems = []
        if self.proper_failures / n < floor:
            problems.append(f"proper arm failed {self.proper_failures}/{n} < 1/7 - 3 sigma = {floor:.4f}")
        if 1 - self.improper_failures / n < 0.95:
            problems.append(f"improper arm succeeded {n - self.improper_failures}/{n} < 95%")
        return problems


class Agnostic:
    """`robustpac agnostic` on agnostic-lower-bound(6, 1/4), one request at a time."""

    name = "agnostic"
    digest_requests = 16
    trace_rounds = 128
    unit = "requests"
    units_per_request = 1

    def __init__(self, rp, seed: int) -> None:
        self.rp = rp
        self.seed = seed
        self.text = rp.dumps_instance(rp.make_agnostic_lower_bound(AGNOSTIC_D, AGNOSTIC_ALPHA))

    def round(self, index: int) -> list:
        dist = int(_request_rng(self.seed, index).integers(2 ** AGNOSTIC_D))
        return [(index, dist)]

    def execute(self, request):
        index, dist_index = request
        rp = self.rp
        instance = rp.loads_instance(self.text)
        dist = instance.distributions[dist_index]
        sample = rp.sample_iid(dist, AGNOSTIC_M, self.seed, index)
        config = rp.LearnerConfig(n_initial=None, seed=self.seed)
        predictor = rp.learn_agnostic(instance.family, sample, instance.perturbations, config)
        achieved = rp.empirical_robust_risk(predictor, sample, instance.perturbations)
        optimum = rp.rerm(instance.family, sample, instance.perturbations).risk
        population = rp.population_robust_risk(predictor, dist, instance.perturbations)
        return predictor, achieved, optimum, population

    def check(self, request, output) -> tuple[list[str], dict]:
        index, dist_index = request
        predictor, achieved, optimum, population = output
        problems = []
        if not (isinstance(achieved, Fraction) and isinstance(optimum, Fraction)):
            problems.append("empirical risks are not exact Fractions")
        elif achieved > optimum:
            problems.append(f"request {index}: achieved {achieved} > RERM optimum {optimum}")
        if not 0 <= population <= 1:
            problems.append(f"request {index}: population risk {population} outside [0, 1]")
        doc = {
            "m": AGNOSTIC_M,
            "dist": dist_index,
            "seed": self.seed,
            "empirical_robust_risk": float(achieved),
            "family_optimum": float(optimum),
            "population_robust_risk": float(population),
            "voters": len(predictor.voters),
            "compression_size": predictor.compression_size,
            "flags": list(predictor.flags),
        }
        return problems, doc

    def finish(self) -> list[str]:
        return []


# Values the constructions are built to have (acceptance criteria 1 and 8).
EXPECTED = {
    "vc-blowup(8)": lambda d: d["vc"] <= 1 and d["loss_vc"] == 8,
    "pair-gap(10)": lambda d: d["disjoint_robust_shattering"] == 0 and d["robust_shattering"] == 10,
}


class Dims:
    """`robustpac dims` over the instance zoo; each round is one shuffled pass."""

    name = "dims"
    digest_requests = 3 + RANDOM_PER_PASS
    trace_rounds = 2
    unit = "requests"
    units_per_request = 1

    def __init__(self, rp, seed: int) -> None:
        self.rp = rp
        self.seed = seed
        self.fixed = [
            ("vc-blowup(8)", rp.dumps_instance(rp.make_vc_blowup(8))),
            ("pair-gap(10)", rp.dumps_instance(rp.make_pair_gap(10))),
            ("proper-failure(3)", rp.dumps_instance(rp.make_proper_failure(3, cap=9))),
        ]
        self.first_pass = self._make_pass(0)

    def _random_instance(self, rng: np.random.Generator, i: int, label: str):
        # Sizes follow a fixed grid, so that only labelings and balls vary
        # with the seed: search cost grows steeply with the member count, and
        # drawing sizes at random would make each pass's work seed-dependent.
        rp = self.rp
        n = RANDOM_POINTS[i % len(RANDOM_POINTS)]
        levels = RANDOM_PER_PASS // len(RANDOM_POINTS)
        members = round(RANDOM_MAX_MEMBERS * (i // len(RANDOM_POINTS) + 1) / levels)
        codes = sorted(int(c) for c in rng.choice(2 ** n, size=members, replace=False))
        rows = [tuple(-1 if (c >> b) & 1 else 1 for b in range(n)) for c in codes]
        sets = []
        for x in range(n):
            ball = {int(z) for z in np.flatnonzero(rng.random(n) < RANDOM_EXTRA_RATE)}
            ball.add(x)
            sets.append(tuple(sorted(ball)))
        return rp.ConstructedInstance(
            space=rp.InstanceSpace(n),
            perturbations=rp.PerturbationMap(tuple(sets)),
            family=rp.HypothesisFamily.from_rows(rows, name=label),
            anchors={},
            distributions=None,
            metadata={"generator": "random", "label": label},
        )

    def _make_pass(self, index: int) -> list:
        rng = _request_rng(self.seed, index)
        zoo = list(self.fixed)
        for i in range(RANDOM_PER_PASS):
            label = f"random({index}.{i})"
            zoo.append((label, self.rp.dumps_instance(self._random_instance(rng, i, label))))
        return [zoo[int(i)] for i in rng.permutation(len(zoo))]

    def round(self, index: int) -> list:
        return self.first_pass if index == 0 else self._make_pass(index)

    def execute(self, request):
        rp = self.rp
        instance = rp.loads_instance(request[1])
        family, perturbations = instance.family, instance.perturbations
        results = {
            "vc": rp.vc(family, cap=DIMS_CAP),
            "dual_vc": rp.dual_vc(family, cap=DIMS_CAP),
            "loss_vc": rp.vc_of_robust_loss_family(family, perturbations, cap=DIMS_CAP),
            "disjoint_robust_shattering": rp.disjoint_robust_shattering_dim(family, perturbations, cap=DIMS_CAP),
            "robust_shattering": rp.robust_shattering_dim(family, perturbations, cap=DIMS_CAP),
        }
        return instance, results

    def check(self, request, output) -> tuple[list[str], dict]:
        label = request[0]
        instance, results = output
        problems = []
        for name, w in results.items():
            if w.capped:
                problems.append(f"{label}: {name} search capped at {w.value}")
            if not self.rp.verify_witness(instance.family, w, instance.perturbations):
                problems.append(f"{label}: {name} witness does not replay")
        d = {name: w.value for name, w in results.items()}
        if not d["disjoint_robust_shattering"] <= d["robust_shattering"] <= d["vc"]:
            problems.append(f"{label}: dimension order violated {d}")
        if not d["dual_vc"] < 2 ** (d["vc"] + 1):
            problems.append(f"{label}: dual vc {d['dual_vc']} >= 2^(vc+1)")
        if label in EXPECTED and not EXPECTED[label](d):
            problems.append(f"{label}: unexpected dimensions {d}")
        doc = {name: _witness_json(w) for name, w in results.items()}
        return problems, doc

    def finish(self) -> list[str]:
        return []


def _witness_json(w) -> dict:
    entries = [list(item) if isinstance(item, tuple) else item for item in w.witness]
    return {"value": w.value, "capped": w.capped, "witness": entries}


WORKLOADS = {cls.name: cls for cls in (Separation, Agnostic, Dims)}
