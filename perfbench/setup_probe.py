"""Set-up probe: import robustpac, build one workload's inputs, print "ready".

    python3 perfbench/setup_probe.py WORKLOAD SEED

`run.py` times fresh processes of this script from launch to the "ready"
line; that is the benchmark's set-up time.
"""

import sys

from environment import import_robustpac
from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name](import_robustpac(), seed)
    print("ready", flush=True)
