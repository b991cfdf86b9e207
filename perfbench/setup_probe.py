"""Set-up probe: what a CLI user pays before the first command computes.

Imports gbstopo (numpy and scipy with it), builds one workload's input
instances and writes its input graph files, then prints "ready". run.py
times this process from its start to that line.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

from workloads import WORKLOADS, import_gbstopo

if __name__ == "__main__":
    name, seed, work = sys.argv[1:]
    import_gbstopo()
    WORKLOADS[name].write_inputs(Path(work), int(seed))
    print("ready", flush=True)
