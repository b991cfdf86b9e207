"""Clique-search success rates: simulated GBS vs uniform vs squashed.

Writes the planted-clique benchmark instance to the output directory and
runs `gbstopo compare` on it: all three samplers at an identical shot
budget, the shared search pipeline, success rates with Wilson intervals
and enhancement ratios. The compare report is the output file.
"""

import argparse
import json
import sys
from pathlib import Path

from gbstopo.cli import main as cli_main
from gbstopo.graph import save_graph
from gbstopo.instances import planted_clique_graph


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shots", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--target-spectral", type=float, default=0.95)
    ap.add_argument("--max-iters", type=int, default=0)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph, report = out / "planted.json", out / "enhancement.json"
    graph.write_bytes(save_graph(planted_clique_graph()))
    code = cli_main([
        "compare", "--graph", str(graph), "--k", "5",
        "--shots", str(args.shots), "--seed", str(args.seed),
        "--target-spectral", str(args.target_spectral),
        "--max-iters", str(args.max_iters),
        "--cutoff-total", "6", "--cutoff-per-mode", "6",
        "--out", str(report),
    ])
    if code:
        sys.exit(code)

    doc = json.loads(report.read_text())
    for name, stats in doc["backends"].items():
        lo, hi = stats["interval_95"]
        print(f"{name:>9}: rate {stats['success_rate']:.4f}  "
              f"CI [{lo:.4f}, {hi:.4f}]  "
              f"({stats['successes']} of {stats['shots']})")
    for key, ratio in doc["enhancement"].items():
        base = key.removeprefix("gbs_over_")
        shown = "undefined" if ratio is None else f"{ratio:.2f}"
        print(f"enhancement over {base}: {shown}")
    print(f"wrote {report}")


if __name__ == "__main__":
    main()
