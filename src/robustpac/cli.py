"""Command-line interface.

Subcommands: construct <generator>, dims, learn, agnostic, bound and
experiment <kind>.  Each accepts exactly the flags it reads: a generator
takes only its own shape flags, `--seed` goes to the commands that sample,
`--format json|csv` to those that write both formats, and `--out` to all.
File and stdout payloads are byte-identical across runs at a fixed seed;
wall-clock timings go to stderr.

Exit status: 0 on success, 2 on a malformed flag value, a contract or
validation error (the message names the violated precondition) or a size
too large to allocate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .agnostic import agnostic_bound, learn_agnostic
from .constructions import (
    make_agnostic_lower_bound,
    make_lower_bound_family,
    make_pair_gap,
    make_proper_failure,
    make_union_truncation,
    make_vc_blowup,
)
from .core import ContractError, StructuralError, _checked_int, empirical_robust_risk, population_robust_risk
from .dimensions import (
    DEFAULT_CAP,
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
from .prng import rng_stream
from .sampling import draw_sample
from .serialization import dumps_instance, load_instance, parse_probability, save_instance

__all__ = ["main"]


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


# generator -> (its required flags with their types, in the maker's argument order; maker)
GENERATORS = {
    "vc-blowup": ((("--m", int),), make_vc_blowup),
    "proper-failure": ((("--m", int),), make_proper_failure),
    "union-truncation": ((("--blocks", _int_list),), make_union_truncation),
    "pair-gap": ((("--p", int),), make_pair_gap),
    "lower-bound": ((("--d", int), ("--epsilon", parse_probability)), make_lower_bound_family),
    "agnostic-lower-bound": ((("--d", int), ("--alpha", parse_probability)), make_agnostic_lower_bound),
}


def _write(path: str, payload: str) -> None:
    """Write one output file, newline-terminated, and say so on stdout."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload if payload.endswith("\n") else payload + "\n")
    print(f"wrote {path}")


def _write_json(path: str, doc) -> None:
    _write(path, json.dumps(doc, indent=2, sort_keys=True))


def _cmd_construct(args: argparse.Namespace) -> int:
    flags, maker = GENERATORS[args.generator]
    instance = maker(*(getattr(args, flag[2:]) for flag, _ in flags))
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
    if args.out is not None and args.format == "json":
        _write_json(args.out, {name: _witness_json(w) for name, w in results.items()})
    elif args.out is not None:
        rows = [f"{name},{w.value},{int(w.capped)}" for name, w in results.items()]
        _write(args.out, "\n".join(["dimension,value,capped", *rows]))
    return 0


def _sampled(args: argparse.Namespace):
    """Instance, `--dist` distribution, m-point sample and config; the generator serves the sample alone."""
    instance = load_instance(args.instance)
    dists = instance.distributions or ()
    if not dists:
        raise ContractError(
            f"this instance ships no distributions; `{args.command}` needs one to sample from"
        )
    dist = dists[_checked_int("--dist", args.dist, 0, len(dists) - 1)]
    sample = draw_sample(dist, args.m, rng_stream(args.seed))
    return instance, dist, sample, LearnerConfig(n_initial=args.n_initial)


def _cmd_learn(args: argparse.Namespace) -> int:
    instance, dist, sample, config = _sampled(args)
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
        _write_json(args.out, doc)
    return 0


def _cmd_agnostic(args: argparse.Namespace) -> int:
    instance, dist, sample, config = _sampled(args)
    predictor = learn_agnostic(instance.family, sample, instance.perturbations, config)
    achieved = empirical_robust_risk(predictor, sample, instance.perturbations)
    optimum = rerm(instance.family, sample, instance.perturbations).risk
    voters = len(predictor.voters)
    doc = {
        "m": args.m,
        "dist": args.dist,
        "seed": args.seed,
        "empirical_robust_risk": float(achieved),
        "family_optimum": float(optimum),
        "population_robust_risk": float(
            population_robust_risk(predictor, dist, instance.perturbations)
        ),
        "voters": voters,
        "compression_size": predictor.compression_size,
        "flags": list(predictor.flags),
    }
    print(
        f"agnostic: empirical robust risk {achieved} "
        f"(family optimum {optimum}), {voters} voter{'' if voters == 1 else 's'}"
    )
    if args.out is not None:
        _write_json(args.out, doc)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    if (args.k is None) == (args.sc_re is None):
        raise ContractError("bound needs exactly one of --k (compression) or --sc-re (agnostic)")
    if args.k is not None:
        value = compression_bound(args.k, args.m, args.delta)
        kind = "compression"
    else:
        value = agnostic_bound(args.sc_re, args.m, args.delta)
        kind = "agnostic"
    print(repr(value))
    if args.out is not None:
        _write_json(args.out, {"kind": kind, "m": args.m, "delta": args.delta, "value": value})
    return 0


def _cmd_separation(args: argparse.Namespace) -> int:
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
        _write_json(args.out, {"proper": proper.to_dict(), "improper": improper.to_dict()})
    elif args.out is not None:
        # one CSV per arm: sep.csv becomes sep_proper.csv and sep_improper.csv
        stem, ext = os.path.splitext(args.out)
        for arm, report in (("proper", proper), ("improper", improper)):
            _write(f"{stem}_{arm}{ext}", report.to_csv())
    return 0


def _cmd_bound_check(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        m=args.m,
        trials=args.trials,
        seed=args.seed,
        delta=args.delta,
        instance_source="threshold-window",
    )
    report = run_bound_check(config, k=args.k)
    print(report.summary())
    print(f"took {report.wall_clock:.3f}s", file=sys.stderr)
    if args.out is not None and args.format == "json":
        _write_json(args.out, report.to_dict())
    elif args.out is not None:
        _write(args.out, report.to_csv())
    return 0


def _cmd_k_scaling(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        m=args.m,
        trials=args.trials,
        seed=args.seed,
    )
    table = run_bounded_k_scaling(args.k_list, config, groups=args.groups)
    for row in table.rows:
        print(
            f"k={row.k}: |discretized| mean {row.mean_discretized:.1f} "
            f"(max {row.max_discretized} <= {row.mk_bound}), "
            f"compression n*T mean {row.mean_compression:.1f}"
        )
    if args.out is not None and args.format == "json":
        _write_json(args.out, [row.__dict__ for row in table.rows])
    elif args.out is not None:
        _write(args.out, table.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None, help="write the result to this path")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json", help="format for --out")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")

    parser = argparse.ArgumentParser(
        prog="robustpac",
        description="Desk-scale laboratory for adversarially robust PAC learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="generate an instance file")
    generators = p_construct.add_subparsers(dest="generator", required=True)
    for name, (flags, maker) in GENERATORS.items():
        p_gen = generators.add_parser(name, parents=[out], help=maker.__doc__.splitlines()[0])
        for flag, kind in flags:
            p_gen.add_argument(flag, type=kind, required=True)
        p_gen.set_defaults(func=_cmd_construct)

    p_dims = sub.add_parser("dims", parents=[out, fmt], help="compute all dimensions of an instance")
    p_dims.add_argument("instance")
    p_dims.add_argument("--cap", type=int, default=DEFAULT_CAP, help=f"search ceiling (default {DEFAULT_CAP})")
    p_dims.set_defaults(func=_cmd_dims)

    sampled = argparse.ArgumentParser(add_help=False, parents=[out, seed])
    sampled.add_argument("instance")
    sampled.add_argument("--m", type=int, required=True, help="sample size")
    sampled.add_argument("--dist", type=int, default=0, help="distribution index (default 0)")
    sampled.add_argument("--n-initial", type=int, default=None)
    sub.add_parser(
        "learn", parents=[sampled], help="run the compress-boost learner on a sampled dataset"
    ).set_defaults(func=_cmd_learn)
    sub.add_parser(
        "agnostic", parents=[sampled], help="run the agnostic reduction on a sampled dataset"
    ).set_defaults(func=_cmd_agnostic)

    p_bound = sub.add_parser("bound", parents=[out], help="evaluate a generalization bound")
    p_bound.add_argument("--k", type=int, default=None, help="compression size")
    p_bound.add_argument("--sc-re", type=int, default=None, help="realizable sample complexity at (1/3,1/3)")
    p_bound.add_argument("--m", type=int, required=True)
    p_bound.add_argument("--delta", type=float, default=0.05)
    p_bound.set_defaults(func=_cmd_bound)

    trials = argparse.ArgumentParser(add_help=False, parents=[out, fmt, seed])
    trials.add_argument("--trials", type=int, default=200)
    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    kinds = p_exp.add_subparsers(dest="kind", required=True)
    p_sep = kinds.add_parser("separation", parents=[trials])
    p_sep.add_argument("--m", type=int, default=2, help="proper-failure(m) and proper sample size (default 2)")
    p_sep.add_argument("--budget", type=int, default=64, help="improper arm sample budget")
    p_sep.set_defaults(func=_cmd_separation)
    p_check = kinds.add_parser("bound-check", parents=[trials])
    p_check.add_argument("--m", type=int, default=50, help="sample size, above --k (default 50)")
    p_check.add_argument("--k", type=int, default=3, help="compression size")
    p_check.add_argument("--delta", type=float, default=0.05)
    p_check.set_defaults(func=_cmd_bound_check)
    p_scale = kinds.add_parser("k-scaling", parents=[trials])
    p_scale.add_argument("--m", type=int, default=20, help="sample size (default 20)")
    p_scale.add_argument("--k-list", type=_int_list, default="1,2,4,8,16")
    p_scale.add_argument("--groups", type=int, default=4)
    p_scale.set_defaults(func=_cmd_k_scaling)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, StructuralError, OSError, MemoryError) as exc:  # MemoryError: a size numpy cannot allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
