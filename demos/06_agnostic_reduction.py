"""Agnostic learning by boosting on the largest realizable core.

Corrupt a realizable dataset with label noise and the best the family can do
on it is some nonzero robust risk.  The reduction finds the largest
subsequence where zero risk is possible, boosts weak robust learners there,
and matches the family optimum on the full corrupted sample.
"""

from robustpac import (
    LabeledExample,
    Sample,
    empirical_robust_risk,
    learn_agnostic,
    make_proper_failure,
    max_realizable_subsequence,
    rerm,
    sample_iid,
)
from robustpac.prng import rng_stream


def main() -> None:
    instance = make_proper_failure(2)
    clean = sample_iid(instance.distributions[4], 24, seed=5)

    rng = rng_stream(5, 1)
    noisy = []
    flipped = 0
    for e in clean:
        if rng.random() < 0.25:
            noisy.append(LabeledExample(e.point, -e.label))
            flipped += 1
        else:
            noisy.append(e)
    sample = Sample(tuple(noisy))
    print(f"sample of {len(sample)} with {flipped} flipped labels")

    core = max_realizable_subsequence(instance.family, sample, instance.perturbations)
    print(f"maximal realizable core: {len(core)} of {len(sample)} examples")

    optimum = rerm(instance.family, sample, instance.perturbations).risk
    predictor = learn_agnostic(instance.family, sample, instance.perturbations)
    achieved = empirical_robust_risk(predictor, sample, instance.perturbations)
    print(f"family optimum robust risk : {optimum}")
    print(f"majority vote robust risk  : {achieved}")
    print(f"voters: {len(predictor.voters)}, compression size {predictor.compression_size}")
    assert achieved <= optimum


if __name__ == "__main__":
    main()
