"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Statistical criteria state their slack explicitly (3-sigma normal
approximations around the guaranteed rates); every tolerance is pinned here.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from robustpac.agnostic import learn_agnostic
from robustpac.constructions import make_pair_gap, make_proper_failure, make_vc_blowup
from robustpac.core import empirical_robust_risk
from robustpac.dimensions import (
    disjoint_robust_shattering_dim,
    dual_vc,
    restriction_count,
    robust_shattering_dim,
    sauer_bound,
    vc,
    vc_of_robust_loss_family,
)
from robustpac.experiments import (
    ExperimentConfig,
    run_bound_check,
    run_bounded_k_scaling,
    run_separation_experiment,
)
from robustpac.learner import default_round_cap, learn_realizable_report
from robustpac.oracles import rerm
from robustpac.prng import rng_stream

from conftest import (
    random_family,
    random_labeled_sample,
    random_perturbations,
    random_realizable_setup,
)


def _check(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {criterion}: {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


def test_criterion_1_vc_blowup_gap():
    start = time.perf_counter()
    ok = True
    details = []
    for m in range(1, 7):
        inst = make_vc_blowup(m)
        base = vc(inst.family)
        loss = vc_of_robust_loss_family(inst.family, inst.perturbations)
        ok &= base.value <= 1 and not base.capped
        ok &= loss.value >= m
        details.append(f"m={m}: vc={base.value}, loss_vc={loss.value}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _check(
        1,
        "vc blowup keeps vc(H) <= 1 while the loss class shatters m points, m=1..6",
        ok,
        f"{'; '.join(details)}; {elapsed:.2f}s",
    )


def test_criterion_2_proper_learner_failure():
    start = time.perf_counter()
    trials = 2000
    threshold = 1.0 / 7.0 - 3.0 * math.sqrt((1.0 / 7.0) * (6.0 / 7.0) / trials)
    inst = make_proper_failure(2)
    config = ExperimentConfig(m=2, trials=trials, seed=202, improper_budget=8)
    proper, _ = run_separation_experiment(inst, config)
    freq = float(proper.failure_frequency)
    elapsed = time.perf_counter() - start
    ok = freq >= threshold and elapsed < 120.0
    _check(
        2,
        "RERM with m=2 samples exceeds risk 1/8 at the guaranteed rate",
        ok,
        f"frequency {freq:.4f} >= {threshold:.4f} over {trials} trials; {elapsed:.1f}s",
    )


def test_criterion_3_improper_success_on_the_same_instance():
    start = time.perf_counter()
    inst = make_proper_failure(2)
    big = ExperimentConfig(m=2, trials=200, seed=303, improper_budget=64)
    small = ExperimentConfig(m=2, trials=200, seed=303, improper_budget=8)
    _, improper64 = run_separation_experiment(inst, big)
    _, improper8 = run_separation_experiment(inst, small)
    success64 = 1.0 - float(improper64.failure_frequency)
    success8 = 1.0 - float(improper8.failure_frequency)
    elapsed = time.perf_counter() - start
    ok = success64 >= 0.95 and success64 >= success8 and elapsed < 300.0
    _check(
        3,
        "compress-boost at budget 64 stays below risk 1/8 in >= 95% of 200 trials, "
        "monotone in the budget",
        ok,
        f"success(64)={success64:.3f}, success(8)={success8:.3f}; {elapsed:.1f}s",
    )


def _fifty_realizable_reports():
    reports = []
    for seed in range(50):
        family, perturbations, sample, _ = random_realizable_setup(
            seed, max_points=10, max_members=32, m=12
        )
        report = learn_realizable_report(family, sample, perturbations)
        reports.append((report, family, perturbations, sample))
    return reports


def test_criterion_4_training_consistency():
    reports = _fifty_realizable_reports()
    bad = 0
    for report, family, perturbations, sample in reports:
        risk = empirical_robust_risk(report.predictor, sample, perturbations)
        if risk != Fraction(0):
            bad += 1
    _check(
        4,
        "learn_realizable reaches empirical robust risk exactly 0 on 50 random "
        "realizable instances",
        bad == 0,
        f"{50 - bad}/50 exact zeros",
    )


def test_criterion_5_boosting_margin():
    reports = _fifty_realizable_reports()
    ok = True
    worst_margin = Fraction(1)
    for report, *_ in reports:
        cap = default_round_cap(report.discretized_size)
        ok &= report.min_margin >= Fraction(5, 9)
        ok &= report.rounds <= cap
        worst_margin = min(worst_margin, report.min_margin)
    _check(
        5,
        "terminal min margin >= 5/9 within ceil(1 + 48 ln|discretized|) + 10 rounds "
        "on the same 50 instances",
        ok,
        f"worst margin {worst_margin}",
    )


def test_criterion_6_compression_bound_frequency():
    start = time.perf_counter()
    trials = 2000
    slack = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / trials)
    config = ExperimentConfig(m=50, trials=trials, seed=606, delta=0.05)
    report = run_bound_check(config, k=3)
    rate = float(report.failure_frequency)
    elapsed = time.perf_counter() - start
    ok = rate <= slack and elapsed < 180.0
    _check(
        6,
        "violations of the size-3 compression bound stay within delta + 3 sigma "
        "over 2000 realizable trials",
        ok,
        f"rate {rate:.4f} <= {slack:.4f} (bound {report.threshold:.4f}); {elapsed:.1f}s",
    )


def test_criterion_7_dimension_laws():
    violations = 0
    sauer_bad = 0
    for seed in range(100):
        rng = rng_stream(seed, 700)
        n = int(rng.integers(2, 11))
        family = random_family(rng, n, 64)
        perturbations = random_perturbations(rng, n, self_contained=bool(seed % 2))
        lo = disjoint_robust_shattering_dim(family, perturbations).value
        mid = robust_shattering_dim(family, perturbations).value
        hi = vc(family).value
        dual = dual_vc(family).value
        if not (lo <= mid <= hi):
            violations += 1
        if not dual < 2 ** (hi + 1):
            violations += 1
        k = int(rng.integers(1, n + 1))
        pts = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
        if restriction_count(family, pts) > sauer_bound(k, hi):
            sauer_bad += 1
    _check(
        7,
        "dim_x <= dim_robust <= vc, vc* < 2^(vc+1), and Sauer counting on 100 "
        "random families",
        violations == 0 and sauer_bad == 0,
        f"{violations} ordering violations, {sauer_bad} Sauer violations",
    )


def test_criterion_8_pair_gap_construction():
    ok = True
    details = []
    for p in range(1, 5):
        inst = make_pair_gap(p)
        lo = disjoint_robust_shattering_dim(inst.family, inst.perturbations)
        mid = robust_shattering_dim(inst.family, inst.perturbations)
        ok &= lo.value == 0 and mid.value == p and not mid.capped
        details.append(f"p={p}: dim_x={lo.value}, dim_robust={mid.value}")
    _check(8, "pair-gap instances split the robust dimensions", ok, "; ".join(details))


def test_criterion_9_agnostic_reduction():
    beaten = 0
    nonzero_realizable = 0
    for seed in range(50):
        family, perturbations, sample = random_labeled_sample(seed, m=12)
        predictor = learn_agnostic(family, sample, perturbations)
        achieved = empirical_robust_risk(predictor, sample, perturbations)
        optimum = rerm(family, sample, perturbations).risk
        if achieved > optimum:
            beaten += 1
    for seed in range(50):
        family, perturbations, sample, _ = random_realizable_setup(seed)
        predictor = learn_agnostic(family, sample, perturbations)
        if empirical_robust_risk(predictor, sample, perturbations) != 0:
            nonzero_realizable += 1
    _check(
        9,
        "agnostic reduction never loses to exhaustive RERM and is exact on "
        "realizable inputs (50 + 50 instances)",
        beaten == 0 and nonzero_realizable == 0,
        f"{beaten} oracle losses, {nonzero_realizable} nonzero realizable risks",
    )


def test_criterion_10_bounded_k_scaling():
    start = time.perf_counter()
    config = ExperimentConfig(m=20, trials=5, seed=1010)
    table = run_bounded_k_scaling([1, 2, 4, 8, 16], config)
    sizes_ok = all(row.max_discretized <= row.mk_bound for row in table.rows)
    compressions = [row.mean_compression for row in table.rows]
    ratio = compressions[-1] / compressions[0]
    nondecreasing = all(a <= b for a, b in zip(compressions, compressions[1:]))
    elapsed = time.perf_counter() - start
    ok = sizes_ok and ratio < 16.0 and nondecreasing and elapsed < 300.0
    _check(
        10,
        "fixed vc=2 family: |discretized| <= m*k and compression grows sublinearly "
        "across k in {1,2,4,8,16}",
        ok,
        f"compression ratio size(16)/size(1) = {ratio:.2f} < 16; {elapsed:.1f}s",
    )
