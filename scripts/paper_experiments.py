"""The paper's five experiments, each run as one gbstopo CLI command.

Writes the three bundled benchmark instances into --out-dir as graph
files, then runs one `gbstopo` command per report and prints the command
before it runs. Every report is the CLI's own output. To try other
parameters, rerun a printed command with different flags.

  enhancement.json       clique-search success rates, GBS vs uniform/squashed
  tpt_surface.tsv        chi surface and its phase-transition fronts
  percolation_entropy.tsv, percolation_entropy_damaged.tsv
                         percolation order parameter vs Renyi entropy,
                         before and after removing node 1's 4-cliques
  betti_filtration.tsv   Betti numbers along a density filtration
  clique_lifetimes.tsv   triangle birth and death thresholds

Exits with the exit code of the first command that fails.
"""

import argparse
import shlex
import sys
from pathlib import Path

from gbstopo.cli import main as gbstopo
from gbstopo.graph import save_graph
from gbstopo.instances import (
    graded_triangle_chain,
    planted_clique_graph,
    two_community_graph,
)

GRAPHS = {
    "planted.json": planted_clique_graph,
    "community.json": two_community_graph,
    "chain.json": graded_triangle_chain,
}

_ENTROPY = (
    "--k-ref 3 --photon-total 4 --delta-axis lin:0.4:0.92:14"
    " --cutoff-total 4 --cutoff-per-mode 4"
)

# (report, command, graph, flags); the flags not given keep CLI defaults.
RUNS = (
    ("enhancement.json", "compare", "planted.json",
     "--k 5 --seed 42 --target-spectral 0.95 --max-iters 0"),
    ("tpt_surface.tsv", "surface", "community.json",
     "--k-ref 2 --omega-axis lin:0.05:1.0:20 --delta-axis lin:0:0.95:20"),
    ("percolation_entropy.tsv", "entropy", "chain.json", _ENTROPY),
    ("percolation_entropy_damaged.tsv", "entropy", "chain.json",
     _ENTROPY + " --damage-node 1"),
    ("betti_filtration.tsv", "betti", "chain.json",
     "--k-ref 3 --dmax 2 --delta-axis lin:0:0.95:12"),
    ("clique_lifetimes.tsv", "persistence", "community.json", "--k 3"),
)


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--out-dir", default="results")
    out = Path(ap.parse_args().out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, build in GRAPHS.items():
        (out / name).write_bytes(save_graph(build()))
    for report, command, graph, flags in RUNS:
        argv = [command, "--graph", str(out / graph), *shlex.split(flags),
                "--out", str(out / report)]
        print(f"gbstopo {shlex.join(argv)}", flush=True)
        code = gbstopo(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
