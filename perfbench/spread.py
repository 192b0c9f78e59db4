"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs the untraced benchmark once per seed and workload, one run at a time,
and prints for each end-to-end metric its median, quartiles and the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  A spread above a third of the bound is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds_from(args.seeds):
            command = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect", file=sys.stderr)
                status = 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({len(seeds_from(args.seeds))} seeds, {args.seconds} s)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            mark = "  <-- above bound/3" if share > m["bound"] / 3 else ""
            print(f"  {m['name']:<16} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {share:6.3f}  bound {m['bound']}{mark}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
