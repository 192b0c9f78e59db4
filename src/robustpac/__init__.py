"""robustpac: a desk-scale laboratory for adversarially robust PAC learning.

Finite instance spaces, explicit perturbation-set adversaries, exact robust
risks, exhaustive combinatorial dimensions, the improper compression-boosting
learner with its generalization bound, the agnostic-to-realizable reduction,
and deterministic generators for the hard instance families.
"""

from .core import (
    ContractError,
    FiniteDistribution,
    Hypothesis,
    HypothesisFamily,
    InstanceSpace,
    LabeledExample,
    MajorityVotePredictor,
    PerturbationMap,
    RobustTable,
    Sample,
    StructuralError,
    check_self_containment,
    empirical_error,
    empirical_robust_risk,
    population_error,
    population_robust_risk,
    robust_loss,
    standard_loss,
)
from .oracles import OracleResult, erm, rerm, robustly_consistent
from .dimensions import (
    DimensionWitness,
    disjoint_robust_shattering_dim,
    dual_vc,
    restriction_count,
    robust_shattering_dim,
    sauer_bound,
    vc,
    vc_of_robust_loss_family,
    verify_witness,
)
from .learner import (
    BoostingFailure,
    CandidateSet,
    DiscretizedSet,
    LearnerConfig,
    RealizableRunReport,
    WeakLearnerFailure,
    alpha_boost,
    build_candidates,
    compression_bound,
    discretize,
    inflate,
    learn_realizable,
    learn_realizable_report,
    sparsify,
    weak_learn,
)
from .agnostic import agnostic_bound, learn_agnostic, max_realizable_subsequence
from .constructions import (
    ConstructedInstance,
    make_agnostic_lower_bound,
    make_lower_bound_family,
    make_pair_gap,
    make_proper_failure,
    make_union_truncation,
    make_vc_blowup,
)
from .sampling import sample_iid
from .serialization import load_instance, loads_instance, dumps_instance, save_instance
from .reports import ExperimentReport, wilson_interval
from .experiments import (
    ExperimentConfig,
    run_bound_check,
    run_bounded_k_scaling,
    run_separation_experiment,
)

__version__ = "0.1.0"
