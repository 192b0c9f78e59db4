"""Shared generators for randomized desk-scale instances.

Everything is driven by explicit Philox streams so every test run sees the
same instances.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from robustpac.core import (
    HypothesisFamily,
    LabeledExample,
    PerturbationMap,
    Sample,
)
from robustpac.learner import ALPHA, BoostingFailure, weak_learn
from robustpac.prng import rng_stream


def decode_labels(code: int, n: int) -> tuple[int, ...]:
    return tuple(-1 if (code >> i) & 1 else +1 for i in range(n))


def random_family(rng: np.random.Generator, n_points: int, max_members: int) -> HypothesisFamily:
    universe = 2 ** n_points
    size = int(rng.integers(2, min(max_members, universe) + 1))
    codes = rng.choice(universe, size=size, replace=False)
    return HypothesisFamily.from_rows([decode_labels(int(c), n_points) for c in sorted(codes)])


def random_perturbations(
    rng: np.random.Generator, n_points: int, extra_rate: float = 0.25, self_contained: bool = True
) -> PerturbationMap:
    sets = []
    for x in range(n_points):
        extras = {int(z) for z in np.flatnonzero(rng.random(n_points) < extra_rate)}
        if self_contained:
            extras.add(x)
        elif not extras:
            extras.add(int(rng.integers(n_points)))
        sets.append(tuple(sorted(extras)))
    return PerturbationMap(tuple(sets))


def robust_example_pool(family: HypothesisFamily, perturbations: PerturbationMap, member: int):
    """Examples on which the given member has robust loss 0."""
    h = family[member]
    pool = []
    for x in range(perturbations.size):
        ball = perturbations[x]
        values = {h.labels[z] for z in ball}
        if len(values) == 1:
            pool.append(LabeledExample(x, values.pop()))
    return pool


def random_realizable_setup(seed: int, max_points: int = 10, max_members: int = 32, m: int = 12):
    """A (family, perturbations, sample, covering member) tuple, robustly realizable."""
    rng = rng_stream(seed, 900)
    while True:
        n = int(rng.integers(3, max_points + 1))
        perturbations = random_perturbations(rng, n)
        family = random_family(rng, n, max_members)
        order = rng.permutation(len(family))
        for member in order:
            pool = robust_example_pool(family, perturbations, int(member))
            if pool:
                picks = rng.integers(0, len(pool), size=int(rng.integers(1, m + 1)))
                sample = Sample(tuple(pool[int(i)] for i in picks))
                return family, perturbations, sample, int(member)


def random_labeled_sample(seed: int, max_points: int = 8, max_members: int = 16, m: int = 10):
    """A (family, perturbations, sample) with arbitrary labels; not necessarily realizable."""
    rng = rng_stream(seed, 901)
    n = int(rng.integers(3, max_points + 1))
    perturbations = random_perturbations(rng, n)
    family = random_family(rng, n, max_members)
    points = rng.integers(0, n, size=m)
    labels = rng.choice((-1, 1), size=m)
    sample = Sample(tuple(LabeledExample(int(p), int(y)) for p, y in zip(points, labels)))
    return family, perturbations, sample


def reference_alpha_boost(wrong, margin_target, T_max, alpha=ALPHA):
    """Plain multiplicative weights over weak_learn, every round run: no perfect-row exit.

    A vote with margin 1 is t copies of the lowest perfect row, and it is
    reported as that row once.
    """
    n_points = wrong.shape[1]
    if T_max is None:
        T_max = math.ceil(1.0 + 48.0 * math.log(max(n_points, 1))) + 10
    dist = np.full(n_points, 1.0 / n_points)
    counts = np.zeros(n_points, dtype=np.int64)
    ids = []
    margin = Fraction(0)
    for t in range(1, T_max + 1):
        voter_id, correct = weak_learn(wrong, dist)
        correct = np.asarray(correct, dtype=bool)
        ids.append(voter_id)
        counts += correct
        margin = Fraction(int(counts.min()), t)
        if margin_target is not None and margin >= margin_target:
            return tuple(ids[:1] if margin == 1 else ids), margin
        dist = dist * np.exp(-2.0 * alpha * correct)
        dist = dist / dist.sum()
    if margin_target is None:
        return tuple(ids[:1] if margin == 1 else ids), margin
    raise BoostingFailure(margin, T_max)
