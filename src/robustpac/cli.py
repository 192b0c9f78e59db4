"""Command-line interface.

Subcommands: construct, dims, learn, agnostic, bound, experiment.  Common
flags (--seed, --out, --format) attach to every subcommand.  File and stdout
payloads are byte-identical across runs at a fixed seed; wall-clock timings
go to stderr.

Exit status: 0 on success, 2 on contract or validation errors (the message
names the violated precondition).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .agnostic import agnostic_bound, learn_agnostic
from .constructions import (
    ConstructedInstance,
    make_agnostic_lower_bound,
    make_lower_bound_family,
    make_pair_gap,
    make_proper_failure,
    make_union_truncation,
    make_vc_blowup,
)
from .core import ContractError, StructuralError, empirical_robust_risk, population_robust_risk
from .dimensions import (
    disjoint_robust_shattering_dim,
    dual_vc,
    robust_shattering_dim,
    vc,
    vc_of_robust_loss_family,
)
from .experiments import (
    ExperimentConfig,
    run_bound_check,
    run_bounded_k_scaling,
    run_separation_experiment,
)
from .learner import LearnerConfig, compression_bound, learn_realizable_report
from .oracles import rerm
from .sampling import sample_iid
from .serialization import dumps_instance, load_instance, save_instance

__all__ = ["main"]


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    parser.add_argument("--out", type=str, default=None, help="write the result to this path")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format for --out"
    )


def _write(path: str, payload: str) -> None:
    """Write one output file, newline-terminated, and say so on stdout."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload if payload.endswith("\n") else payload + "\n")
    print(f"wrote {path}")


def _cmd_construct(args: argparse.Namespace) -> int:
    generator = args.generator
    instance: ConstructedInstance
    if generator == "vc-blowup":
        _require(args.m is not None, "construct vc-blowup requires --m")
        instance = make_vc_blowup(args.m)
    elif generator == "proper-failure":
        _require(args.m is not None, "construct proper-failure requires --m")
        instance = make_proper_failure(args.m)
    elif generator == "union-truncation":
        _require(args.blocks is not None, "construct union-truncation requires --blocks")
        blocks = [int(b) for b in args.blocks.split(",") if b]
        instance = make_union_truncation(blocks)
    elif generator == "pair-gap":
        _require(args.p is not None, "construct pair-gap requires --p")
        instance = make_pair_gap(args.p)
    elif generator == "lower-bound":
        _require(args.d is not None, "construct lower-bound requires --d")
        _require(args.epsilon is not None, "construct lower-bound requires --epsilon")
        instance = make_lower_bound_family(args.d, Fraction(args.epsilon))
    else:  # agnostic-lower-bound
        _require(args.d is not None, "construct agnostic-lower-bound requires --d")
        _require(args.alpha is not None, "construct agnostic-lower-bound requires --alpha")
        instance = make_agnostic_lower_bound(args.d, Fraction(args.alpha))
    if args.out is None:
        sys.stdout.write(dumps_instance(instance) + "\n")
    else:
        save_instance(instance, args.out)
        print(
            f"wrote {args.out} ({instance.space.size} points, "
            f"{len(instance.family)} hypotheses)"
        )
    return 0


def _witness_json(w) -> dict:
    entries = [list(item) if isinstance(item, tuple) else item for item in w.witness]
    return {"value": w.value, "capped": w.capped, "witness": entries}


def _cmd_dims(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    family, perturbations = instance.family, instance.perturbations
    results = {
        "vc": vc(family, cap=args.cap),
        "dual_vc": dual_vc(family, cap=args.cap),
        "loss_vc": vc_of_robust_loss_family(family, perturbations, cap=args.cap),
        "disjoint_robust_shattering": disjoint_robust_shattering_dim(family, perturbations, cap=args.cap),
        "robust_shattering": robust_shattering_dim(family, perturbations, cap=args.cap),
    }
    for name, w in results.items():
        suffix = " (at least; search capped)" if w.capped else ""
        print(f"{name} = {w.value}{suffix}")
    if args.out is not None:
        if args.format == "json":
            doc = {name: _witness_json(w) for name, w in results.items()}
            _write(args.out, json.dumps(doc, indent=2, sort_keys=True))
        else:
            rows = [f"{name},{w.value},{int(w.capped)}" for name, w in results.items()]
            _write(args.out, "\n".join(["dimension,value,capped", *rows]))
    return 0


def _pick_distribution(instance: ConstructedInstance, index: int):
    _require(
        bool(instance.distributions),
        "this instance ships no distributions; `learn` needs one to sample from",
    )
    _require(
        0 <= index < len(instance.distributions),
        f"--dist must lie in [0, {len(instance.distributions) - 1}]",
    )
    return instance.distributions[index]


def _cmd_learn(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    dist = _pick_distribution(instance, args.dist)
    sample = sample_iid(dist, args.m, args.seed)
    config = LearnerConfig(n_initial=args.n_initial, seed=args.seed)
    start = time.perf_counter()
    report = learn_realizable_report(instance.family, sample, instance.perturbations, config)
    elapsed = time.perf_counter() - start
    risk = population_robust_risk(report.predictor, dist, instance.perturbations)
    doc = {
        "m": args.m,
        "dist": args.dist,
        "seed": args.seed,
        "empirical_robust_risk": 0.0,
        "population_robust_risk": float(risk),
        "compression_size": report.compression_size,
        "voters": report.sparsified_to,
        "rounds": report.rounds,
        "n_used": report.n_used,
        "inflated_size": report.inflated_size,
        "discretized_size": report.discretized_size,
        "min_margin": str(report.min_margin),
    }
    print(
        f"compress-boost: population robust risk {float(risk):.6f}, "
        f"compression size {report.compression_size} "
        f"(n={report.n_used}, T={report.rounds}, |discretized|={report.discretized_size})"
    )
    print(f"took {elapsed:.3f}s", file=sys.stderr)
    if args.out is not None:
        _write(args.out, json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_agnostic(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    dist = _pick_distribution(instance, args.dist)
    sample = sample_iid(dist, args.m, args.seed)
    config = LearnerConfig(n_initial=args.n_initial, seed=args.seed)
    predictor = learn_agnostic(instance.family, sample, instance.perturbations, config)
    achieved = empirical_robust_risk(predictor, sample, instance.perturbations)
    optimum = rerm(instance.family, sample, instance.perturbations).risk
    doc = {
        "m": args.m,
        "dist": args.dist,
        "seed": args.seed,
        "empirical_robust_risk": float(achieved),
        "family_optimum": float(optimum),
        "population_robust_risk": float(
            population_robust_risk(predictor, dist, instance.perturbations)
        ),
        "voters": len(predictor.voters),
        "compression_size": predictor.compression_size,
        "flags": list(predictor.flags),
    }
    print(
        f"agnostic: empirical robust risk {achieved} "
        f"(family optimum {optimum}), {len(predictor.voters)} voters"
    )
    if args.out is not None:
        _write(args.out, json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    _require(
        (args.k is None) != (args.sc_re is None),
        "bound needs exactly one of --k (compression) or --sc-re (agnostic)",
    )
    if args.k is not None:
        value = compression_bound(args.k, args.m, args.delta)
        kind = "compression"
    else:
        value = agnostic_bound(args.sc_re, args.m, args.delta)
        kind = "agnostic"
    print(repr(value))
    if args.out is not None:
        doc = {"kind": kind, "m": args.m, "delta": args.delta, "value": value}
        _write(args.out, json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.kind == "separation":
        instance = make_proper_failure(args.m)
        config = ExperimentConfig(
            m=args.m,
            trials=args.trials,
            seed=args.seed,
            improper_budget=args.budget,
            instance_source=f"proper-failure(m={args.m})",
        )
        proper, improper = run_separation_experiment(instance, config)
        print(proper.summary())
        print(improper.summary())
        print(f"took {proper.wall_clock:.3f}s", file=sys.stderr)
        if args.out is not None and args.format == "json":
            doc = {"proper": proper.to_dict(), "improper": improper.to_dict()}
            _write(args.out, json.dumps(doc, indent=2, sort_keys=True))
        elif args.out is not None:
            # one CSV per arm: sep.csv becomes sep_proper.csv and sep_improper.csv
            stem, dot, ext = args.out.rpartition(".")
            for arm, report in (("proper", proper), ("improper", improper)):
                _write(f"{stem}_{arm}.{ext}" if dot else f"{args.out}_{arm}", report.to_csv())
        return 0
    if args.kind == "bound-check":
        config = ExperimentConfig(
            m=args.m,
            trials=args.trials,
            seed=args.seed,
            delta=args.delta,
            instance_source="threshold-window",
            learner="compress-boost",
        )
        report = run_bound_check(config, k=args.k)
        print(report.summary())
        print(f"took {report.wall_clock:.3f}s", file=sys.stderr)
        if args.out is not None:
            _write(args.out, report.to_json() if args.format == "json" else report.to_csv())
        return 0
    # k-scaling
    k_list = [int(k) for k in args.k_list.split(",") if k]
    config = ExperimentConfig(
        m=args.m,
        trials=args.trials,
        seed=args.seed,
        instance_source=f"group-adversary(groups={args.groups})",
    )
    table = run_bounded_k_scaling(k_list, config, groups=args.groups)
    for row in table.rows:
        print(
            f"k={row.k}: |discretized| mean {row.mean_discretized:.1f} "
            f"(max {row.max_discretized} <= {row.mk_bound}), "
            f"compression n*T mean {row.mean_compression:.1f}"
        )
    if args.out is not None and args.format == "json":
        _write(args.out, json.dumps([row.__dict__ for row in table.rows], indent=2, sort_keys=True))
    elif args.out is not None:
        _write(args.out, table.to_csv())
    return 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ContractError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustpac",
        description="Desk-scale laboratory for adversarially robust PAC learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="generate an instance file")
    p_construct.add_argument(
        "generator",
        choices=(
            "vc-blowup",
            "proper-failure",
            "union-truncation",
            "pair-gap",
            "lower-bound",
            "agnostic-lower-bound",
        ),
    )
    p_construct.add_argument("--m", type=int, default=None)
    p_construct.add_argument("--p", type=int, default=None)
    p_construct.add_argument("--d", type=int, default=None)
    p_construct.add_argument("--blocks", type=str, default=None, help="comma-separated block sizes")
    p_construct.add_argument("--epsilon", type=str, default=None)
    p_construct.add_argument("--alpha", type=str, default=None)
    _common_flags(p_construct)
    p_construct.set_defaults(func=_cmd_construct)

    p_dims = sub.add_parser("dims", help="compute all dimensions of an instance")
    p_dims.add_argument("instance")
    p_dims.add_argument("--cap", type=int, default=12, help="search ceiling (default 12)")
    _common_flags(p_dims)
    p_dims.set_defaults(func=_cmd_dims)

    p_learn = sub.add_parser("learn", help="run the compress-boost learner on a sampled dataset")
    p_learn.add_argument("instance")
    p_learn.add_argument("--m", type=int, required=True, help="sample size")
    p_learn.add_argument("--dist", type=int, default=0, help="distribution index (default 0)")
    p_learn.add_argument("--n-initial", type=int, default=None)
    _common_flags(p_learn)
    p_learn.set_defaults(func=_cmd_learn)

    p_ag = sub.add_parser("agnostic", help="run the agnostic reduction on a sampled dataset")
    p_ag.add_argument("instance")
    p_ag.add_argument("--m", type=int, required=True, help="sample size")
    p_ag.add_argument("--dist", type=int, default=0, help="distribution index (default 0)")
    p_ag.add_argument("--n-initial", type=int, default=None)
    _common_flags(p_ag)
    p_ag.set_defaults(func=_cmd_agnostic)

    p_bound = sub.add_parser("bound", help="evaluate a generalization bound")
    p_bound.add_argument("--k", type=int, default=None, help="compression size")
    p_bound.add_argument("--sc-re", type=int, default=None, help="realizable sample complexity at (1/3,1/3)")
    p_bound.add_argument("--m", type=int, required=True)
    p_bound.add_argument("--delta", type=float, default=0.05)
    _common_flags(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_exp.add_argument("kind", choices=("separation", "bound-check", "k-scaling"))
    p_exp.add_argument("--m", type=int, default=2)
    p_exp.add_argument("--trials", type=int, default=200)
    p_exp.add_argument("--budget", type=int, default=64, help="improper arm sample budget")
    p_exp.add_argument("--k", type=int, default=3, help="compression size for bound-check")
    p_exp.add_argument("--delta", type=float, default=0.05)
    p_exp.add_argument("--k-list", type=str, default="1,2,4,8,16")
    p_exp.add_argument("--groups", type=int, default=4)
    _common_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
