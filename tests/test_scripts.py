"""scripts/paper_experiments.py computes nothing itself: it writes the
bundled instances and runs gbstopo commands, and each command it prints
rewrites its report byte for byte when run again."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import gbstopo
from gbstopo.cli import main

SCRIPT = Path(__file__).parents[1] / "scripts" / "paper_experiments.py"
GRAPHS = {"planted.json", "community.json", "chain.json"}
REPORTS = {
    "enhancement.json", "gbs_samples.jsonl", "cliques.json",
    "tpt_surface.tsv", "percolation_entropy.tsv",
    "percolation_entropy_damaged.tsv", "betti_filtration.tsv",
    "clique_lifetimes.tsv",
}


def test_printed_commands_rewrite_the_reports(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(gbstopo.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPT), "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in tmp_path.iterdir()} == GRAPHS | REPORTS

    rewritten = set()
    for line in proc.stdout.splitlines():
        prog, *argv = shlex.split(line)
        assert prog == "gbstopo"
        report = Path(argv[argv.index("--out") + 1])
        first = report.read_bytes()
        assert b"np.float64(" not in first
        report.unlink()
        assert main(argv) == 0
        assert report.read_bytes() == first
        rewritten.add(report.name)
    assert rewritten == REPORTS
