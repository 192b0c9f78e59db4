"""robustpac benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {separation,agnostic,dims} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the library is imported from `src/`.
A run serves requests in a closed loop with one client until S seconds have
passed (and at least the requests that enter the output digest have run),
checks every output, and prints as its last line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of an untraced run: set-up time
(median of SETUP_PROBES fresh processes, each importing the library and
building the workload's inputs), peak resident memory, request throughput
and request latency p50/p90.  `--trace 1` ignores S and does a fixed amount
of work, the workload's `trace_rounds` rounds, so that its counts compare
between commits: it serves those rounds untraced, then replays them with
every listed library function wrapped in a span, and reports the per-layer
metrics: calls, self time and failures per function, the tracing overhead
and the share of traced wall time the spans account for.  Both modes print
a sha256 over the canonical outputs of the first requests; at one seed the
two modes print the same digest.  Results, with an environment record, are
also written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibration import reference_loop_s, reference_ms
from environment import MissingLibrary, import_robustpac, record
from spans import DERIVED, REPORTED, STAT_UNITS, Tracer, instrument
from summary import latency_summary
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
COVERAGE_FLOOR = 0.9


@dataclass
class Phase:
    """One measured closed loop: per-request latencies and output checks."""

    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)
    wall: float = 0.0
    rounds: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def requests(self) -> int:
        return len(self.latencies)

    def ref_ms(self) -> list[float]:
        return reference_ms(list(zip(self.starts, self.latencies)), self.probes)


def run_phase(
    workload,
    seconds: float = 0.0,
    plan: list[list] | None = None,
    tracer: Tracer | None = None,
    calibrate: bool = False,
) -> Phase:
    """Serve rounds of requests until `seconds` passed, or exactly the rounds in `plan`.

    Only the library calls of a request are timed; the output check and the
    digest update run between requests.  With `calibrate`, each request is
    also scored in reference milliseconds (see calibration.py).
    """
    phase = Phase()
    sha = hashlib.sha256()
    start = time.perf_counter()

    def probe() -> None:
        phase.probes.append((time.perf_counter(), reference_loop_s()))

    if calibrate:
        probe()

    def next_round() -> list | None:
        if plan is not None:
            return plan[phase.rounds] if phase.rounds < len(plan) else None
        if time.perf_counter() - start < seconds or phase.requests < workload.digest_requests:
            return workload.round(phase.rounds)
        return None

    while (requests := next_round()) is not None:
        for request in requests:
            index = phase.requests
            if tracer is not None:
                tracer.op_id = index
            t0 = time.perf_counter()
            try:
                output = workload.execute(request)
            except Exception as exc:  # a failed request is counted, never fatal
                latency = time.perf_counter() - t0
                bad, doc = [f"request {index} raised {exc!r}"], None
            else:
                latency = time.perf_counter() - t0
                try:
                    bad, doc = workload.check(request, output)
                except Exception as exc:
                    bad, doc = [f"request {index}: check raised {exc!r}"], None
            phase.starts.append(t0)
            phase.latencies.append(latency)
            if calibrate:
                probe()
            if bad:
                phase.failed += 1
                phase.problems.extend(bad)
            if index < workload.digest_requests:
                sha.update(json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n")
        phase.rounds += 1
    phase.wall = time.perf_counter() - start
    phase.digest = sha.hexdigest()
    return phase


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to ready, for SETUP_PROBES fresh processes."""
    command = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    ref_ms = phase.ref_ms()
    # latency_summary turns seconds into ms, so ref-ms go in as thousandths.
    ref = latency_summary([v / 1000 for v in ref_ms])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "requests_per_ref_s": metric(1000 * phase.requests / sum(ref_ms), "1/ref-s"),
        "request_ref_ms_p50": metric(ref["p50_ms"], "ref-ms"),
        "request_ref_ms_p90": metric(ref["p90_ms"], "ref-ms"),
        "peak_rss_mb": metric(peak_kib * 1024 / 1e6, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }


def per_layer(tracer: Tracer, traced_table: dict, untraced: Phase, traced: Phase) -> tuple[dict, dict, float]:
    """Per-layer metrics over set-up and traced phase, that per-span table, and the span coverage.

    The coverage is the traced phase's span self time over its wall time.
    """
    table = tracer.layer_stats()
    zero = {"calls": 0, "self_s": 0.0, "failed": 0}
    metrics = {}
    for name, stats in REPORTED:
        for stat in stats:
            metrics[f"{name}.{stat}"] = metric(table.get(name, zero)[stat], STAT_UNITS[stat])
    runs = sum(table.get(n, zero)["calls"] for n in ("learner.learn_realizable_report", "agnostic.learn_agnostic"))
    built = table.get("learner.build_candidates", zero)["calls"]
    coverage = sum(s["self_s"] for s in traced_table.values()) / traced.wall
    derived = {
        "learner.sparsify.fallbacks": tracer.events.get("learner.sparsify.fallbacks", 0),
        "learner.n_growth_ratio": built / runs if runs else 0.0,
        "trace.overhead_ratio": traced.wall / untraced.wall,
        "trace.span_coverage": coverage,
    }
    for name, unit in DERIVED:
        metrics[name] = metric(derived[name], unit)
    return metrics, table, coverage


def print_layer_table(table: dict, traced_wall: float) -> None:
    print(f"{'span':<48} {'calls':>9} {'self_s':>10} {'share':>7} {'failed':>6}")
    for name, s in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * s["self_s"] / traced_wall
        print(f"{name:<48} {s['calls']:>9} {s['self_s']:>10.4f} {share:>6.1f}% {s['failed']:>6}")


def print_latency(label: str, lat: dict) -> None:
    tail = f", p{lat['tail_p']} {lat['tail_ms']:.2f}" if lat["tail_p"] else ""
    flag = " [p90 flagged: fewer than 100 requests]" if lat["p90_flagged"] else ""
    print(f"{label} p50 {lat['p50_ms']:.2f}, p90 {lat['p90_ms']:.2f}{tail} (n={lat['n']}){flag}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="robustpac benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 40:
        parser.error("--seed must lie in [0, 2^40)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        rp = import_robustpac()
    except (MissingLibrary, ImportError) as exc:
        print(f"error: cannot import the library from this checkout: {exc}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    env = record(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        tracer = Tracer()
        with instrument(tracer):
            workload = workload_cls(rp, args.seed)
        # Inputs are made before tracing starts, so that no benchmark-side
        # generation lands in the spans of the traced phase.
        plan = [workload.round(i) for i in range(workload_cls.trace_rounds)]
        untraced = run_phase(workload, plan=plan)
        traced_from = len(tracer)
        with instrument(tracer):
            phase = run_phase(workload, plan=plan, tracer=tracer)
        problems = untraced.problems + phase.problems
        if untraced.digest != phase.digest:
            problems.append(f"traced digest {phase.digest} != untraced digest {untraced.digest}")
        attempted = untraced.requests + phase.requests
        failed = untraced.failed + phase.failed
        traced_table = tracer.layer_stats(since=traced_from)
        metrics, table, coverage = per_layer(tracer, traced_table, untraced, phase)
        print_layer_table(traced_table, phase.wall)
        print(f"trace.overhead_ratio {phase.wall / untraced.wall:.3f} (traced {phase.wall:.3f} s / untraced {untraced.wall:.3f} s, same {phase.requests} requests)")
        print(f"listed spans' self time covers {100 * coverage:.1f}% of traced wall time")
        if coverage < COVERAGE_FLOOR:
            print(f"shortfall: span coverage {100 * coverage:.1f}% is below {100 * COVERAGE_FLOOR:.0f}%")
    else:
        setup_times = measure_setup(args.workload, args.seed)
        workload = workload_cls(rp, args.seed)
        phase = run_phase(workload, args.seconds, calibrate=True)
        problems = list(phase.problems)
        attempted, failed = phase.requests, phase.failed
        metrics = end_to_end(phase, setup_times)
        table = None
        print("setup_s probes " + " ".join(f"{t:.4f}" for t in setup_times))
        print_latency("request_ref_ms", latency_summary([v / 1000 for v in phase.ref_ms()]))
    problems += workload.finish()

    lat = latency_summary(phase.latencies)
    busy = sum(phase.latencies)
    units = phase.requests * workload.units_per_request
    print(
        f"{args.workload}: {phase.requests} requests ({units} {workload.unit}) in {phase.rounds} rounds, "
        f"{busy:.3f} s busy of {phase.wall:.3f} s wall; {units / busy:.2f} {workload.unit}/s"
    )
    print_latency("request_ms (wall)", lat)
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"digest sha256:{phase.digest} over the first {min(phase.requests, workload.digest_requests)} requests")
    for problem in problems[:20]:
        print(f"problem: {problem}")

    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, env=env, digest=phase.digest, requests=phase.requests, rounds=phase.rounds,
                  wall_s=phase.wall, latency=lat, problems=problems, spans=table)
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
