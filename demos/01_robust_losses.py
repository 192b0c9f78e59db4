"""Robust losses on a four-point line.

A predictor can be right at a point yet robustly wrong there: the adversary
picks the worst point of the perturbation set.  This script builds the
smallest example worth staring at and walks through plain vs robust risks,
then shows how a majority vote is judged (ties go to +1).
"""

from fractions import Fraction

from robustpac import (
    FiniteDistribution,
    Hypothesis,
    LabeledExample,
    MajorityVotePredictor,
    PerturbationMap,
    Sample,
    empirical_robust_risk,
    population_robust_risk,
    robust_loss,
)


def main() -> None:
    # Four points on a line; the adversary may shift each point one step right.
    shift_right = PerturbationMap(((0, 1), (1, 2), (2, 3), (3,)))
    identity = PerturbationMap.identity(4)  # U(x) = {x}: robust loss is plain 0-1 loss
    h = Hypothesis((+1, +1, -1, -1))

    example = LabeledExample(1, +1)
    print("predictor labels:", h.labels)
    print("U(1) =", shift_right[1])
    print("standard loss at (1, +1):", robust_loss(h, example, identity))
    print("robust   loss at (1, +1):", robust_loss(h, example, shift_right))
    print("(point 2 sits inside U(1) and is labeled -1, so the adversary wins)\n")

    sample = Sample.from_pairs([(0, +1), (1, +1), (2, -1), (3, -1)])
    print("sample:", [(e.point, e.label) for e in sample])
    print("empirical error      :", empirical_robust_risk(h, sample, identity))
    print("empirical robust risk:", empirical_robust_risk(h, sample, shift_right))

    dist = FiniteDistribution.uniform(sample.examples)
    print("population robust risk (uniform support):",
          population_robust_risk(h, dist, shift_right))
    print()

    voters = (
        Hypothesis((+1, +1, -1, -1)),
        Hypothesis((+1, -1, -1, -1)),
        Hypothesis((+1, +1, +1, -1)),
    )
    vote = MajorityVotePredictor(voters)
    print("majority vote labels:", [vote.label_of(x) for x in range(4)])
    print("robust risk of the vote:",
          empirical_robust_risk(vote, sample, shift_right))
    tie = MajorityVotePredictor((Hypothesis((+1,) * 4), Hypothesis((-1,) * 4)))
    print("a 1-1 tie resolves to +1:", [tie.label_of(x) for x in range(4)])
    assert empirical_robust_risk(h, sample, shift_right) == Fraction(1, 4)


if __name__ == "__main__":
    main()
