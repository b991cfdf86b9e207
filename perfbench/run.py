"""gbstopo benchmark: one closed-loop caller, in-process CLI calls.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed list of `gbstopo.cli.main(argv)` calls (see
workloads.py), repeated back to back until about `--seconds` of timed work
have run, at least MIN_REPS times. Output oracles and the byte-for-byte
rerun check run between calls, outside the timed section.

--trace 0 reports the end-to-end metrics: setup_s (median of SETUP_PROBES
fresh processes that import gbstopo and write the inputs), wall_s and
cpu_s (medians over repetitions of the op list) and peak_rss_mb.
--trace 1 alternates untraced and traced repetitions and reports per-layer
self times and work counts (see tracer.py) plus the tracing overhead.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer
from workloads import ROOT, WORKLOADS, CheckoutError, Op, import_gbstopo

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / "_work"
DEFAULT_SEED = 0
# Two repetitions at least: every op's output bytes are compared with the
# first repetition's (the byte-identical rerun promise of the CLI).
MIN_REPS = 2
MIN_TRACED_REPS = 2
SETUP_PROBES = 3
# Stop starting repetitions past this point so a run ends within 180 s.
DEADLINE_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (metric name, unit, source). Sources are
# ("self", span) for self seconds, ("calls", span) for call counts and
# ("count", counter) for tracer counters.
PER_LAYER = [
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("cli.bytes_out", "B", ("count", "cli.bytes_out")),
    ("graph.clique_density.calls", "count", ("calls", "graph.clique_density")),
    ("graph.clique_density.self_s", "s", ("self", "graph.clique_density")),
    ("graph.is_clique.calls", "count", ("calls", "graph.is_clique")),
    ("graph.is_clique.self_s", "s", ("self", "graph.is_clique")),
    ("graph.edge_filter.self_s", "s", ("self", "graph.edge_filter")),
    ("encoding.encode.calls", "count", ("calls", "encoding.encode")),
    ("encoding.encode.self_s", "s", ("self", "encoding.encode")),
    ("sampler.enumerate_distribution.calls", "count",
     ("calls", "sampler.enumerate_distribution")),
    ("sampler.enumerate_distribution.self_s", "s",
     ("self", "sampler.enumerate_distribution")),
    ("sampler.enumerate_distribution.patterns", "count",
     ("count", "sampler.enumerate_distribution.patterns")),
    ("sampler.hafnian.calls", "count", ("calls", "sampler.hafnian")),
    ("sampler.hafnian.self_s", "s", ("self", "sampler.hafnian")),
    ("sampler.apply_loss.dist_self_s", "s", ("self", "sampler.apply_loss.dist")),
    ("sampler.apply_loss.batch_self_s", "s",
     ("self", "sampler.apply_loss.batch")),
    ("sampler.sample_gbs.self_s", "s", ("self", "sampler.sample_gbs")),
    ("sampler.sample_uniform.self_s", "s", ("self", "sampler.sample_uniform")),
    ("sampler.sample_squashed.self_s", "s", ("self", "sampler.sample_squashed")),
    ("sampler.shots", "count", ("calls", "sampler.shots")),
    ("sampler.shots.self_s", "s", ("self", "sampler.shots")),
    ("sampler.conditional.self_s", "s", ("self", "sampler.conditional")),
    ("sampler.io.self_s", "s", ("self", "sampler.io")),
    ("sampler.io.bytes", "B", ("count", "sampler.io.bytes")),
    ("cliques.find_cliques.self_s", "s", ("self", "cliques.find_cliques")),
    ("cliques.find_cliques.shots", "count",
     ("count", "cliques.find_cliques.shots")),
    ("cliques.find_cliques.successes", "count",
     ("count", "cliques.find_cliques.successes")),
    ("cliques.find_cliques.success_ratio", "ratio", None),
    ("cliques.find_cliques.distinct_subsets", "count",
     ("count", "cliques.find_cliques.distinct_subsets")),
    ("cliques.find_cliques.distinct_ratio", "ratio", None),
    ("cliques.greedy_shrink.calls", "count", ("calls", "cliques.greedy_shrink")),
    ("cliques.greedy_shrink.self_s", "s", ("self", "cliques.greedy_shrink")),
    ("cliques.local_search.calls", "count", ("calls", "cliques.local_search")),
    ("cliques.local_search.self_s", "s", ("self", "cliques.local_search")),
    ("cliques.enumerate_cliques.calls", "count",
     ("calls", "cliques.enumerate_cliques")),
    ("cliques.enumerate_cliques.self_s", "s",
     ("self", "cliques.enumerate_cliques")),
    ("cliques.enumerate_cliques.cliques", "count",
     ("count", "cliques.enumerate_cliques.cliques")),
    ("tda.filtration_surface.self_s", "s", ("self", "tda.filtration_surface")),
    ("tda.filtration_surface.cells", "count",
     ("count", "tda.filtration_surface.cells")),
    ("tda.density_filtered_graph.calls", "count",
     ("calls", "tda.density_filtered_graph")),
    ("tda.density_filtered_graph.self_s", "s",
     ("self", "tda.density_filtered_graph")),
    ("tda.boundary_matrix.self_s", "s", ("self", "tda.boundary_matrix")),
    ("tda.gf2_rank.calls", "count", ("calls", "tda.gf2_rank")),
    ("tda.gf2_rank.self_s", "s", ("self", "tda.gf2_rank")),
    ("tda.gf2_rank.bits", "count", ("count", "tda.gf2_rank.bits")),
    ("tda.betti_numbers.self_s", "s", ("self", "tda.betti_numbers")),
    ("tda.clique_persistence.self_s", "s", ("self", "tda.clique_persistence")),
    ("percolation.percolation_clusters.calls", "count",
     ("calls", "percolation.percolation_clusters")),
    ("percolation.percolation_clusters.self_s", "s",
     ("self", "percolation.percolation_clusters")),
    ("percolation.percolation_clusters.cliques", "count",
     ("count", "percolation.percolation_clusters.cliques")),
    ("percolation.percolation_entropy_sweep.self_s", "s",
     ("self", "percolation.percolation_entropy_sweep")),
    ("percolation.damage.self_s", "s", ("self", "percolation.damage")),
    ("trace.overhead_s", "s", None),
]


class Checker:
    """Runs oracles in one child process (oracles.py), one at a time.

    This keeps the oracles' imports (networkx) and parsed outputs out of
    the measured process's peak RSS. Each call waits for its answer, so
    the child never competes with a timed operation for a core.
    """

    def __init__(self):
        self._proc: subprocess.Popen | None = None

    def __call__(self, check, args: tuple) -> tuple[str | None, list[str]]:
        if self._proc is None:
            self._proc = subprocess.Popen(
                [sys.executable, str(HERE / "oracles.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
        pickle.dump((check.__name__, args), self._proc.stdin)
        self._proc.stdin.flush()
        return pickle.load(self._proc.stdout)

    def close(self) -> None:
        if self._proc is not None:
            self._proc.stdin.close()
            self._proc.wait(timeout=60)
            self._proc.stdout.close()


class Runner:
    """Runs one workload's op list and checks every output."""

    def __init__(self, ops: list[Op], checker: Checker):
        self.ops = ops
        self.checker = checker
        self.reference: list[bytes | None] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.defects: set[str] = set()

    def rep(self) -> tuple[float, float]:
        """One pass over the op list; returns timed (wall, cpu) seconds."""
        cli = sys.modules["gbstopo.cli"]
        wall = cpu = 0.0
        first = not self.reference
        for i, op in enumerate(self.ops):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                status = cli.main(list(op.argv))
            except Exception as exc:  # a traceback is a failed operation
                status = repr(exc)
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            self.attempted += 1
            error, digest = self._check(op, status)
            if first:
                self.reference.append(digest)
            elif error is None and digest != self.reference[i]:
                error = "output bytes differ from the first repetition"
            if error is not None:
                self.failed += 1
                self.errors.append(f"{op.kind} #{i}: {error}")
        return wall, cpu

    def _check(self, op: Op, status) -> tuple[str | None, bytes | None]:
        if status != 0:
            return f"exit status {status}", None
        try:
            digest = hashlib.sha256(op.out.read_bytes()).digest()
        except OSError as exc:
            return f"no output: {exc}", None
        if op.check is None:
            return None, digest
        error, defects = self.checker(*op.check)
        self.defects.update(defects)
        return error, digest


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = work / f"setup{i}"
        probe_dir.mkdir()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(probe_dir)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            status = proc.wait(timeout=60)
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"set-up probe failed (exit {status})")
        times.append(elapsed)
    return times


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (n={n}, needs 11)"
    pct = math.floor(100 * (1 - 10 / n))
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"p{pct} = {value:.4f} s (n={n})"


def timed_run(runner: Runner, args, work: Path, t_start: float) -> dict:
    setups = measure_setup(args.workload, args.seed, work)
    walls, cpus = [], []
    # Start another repetition only while at least half of it fits in
    # --seconds, so runs last about --seconds on average.
    while (
        len(walls) < MIN_REPS
        or sum(walls) + 0.5 * walls[-1] < args.seconds
        and time.perf_counter() - t_start < DEADLINE_S
    ):
        wall, cpu = runner.rep()
        walls.append(wall)
        cpus.append(cpu)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    print(f"setup_s     {values['setup_s']:.4f} s   "
          f"(median of {len(setups)} fresh processes)")
    print(f"wall_s      {values['wall_s']:.4f} s   (median of {len(walls)} "
          f"repetitions; tail {tail_percentile(walls)}; "
          f"max {max(walls):.4f} s)")
    print(f"cpu_s       {values['cpu_s']:.4f} s")
    print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def traced_run(runner: Runner, args, t_start: float) -> tuple[dict, list[str]]:
    plain, traced, tracers = [], [], []
    while (
        len(traced) < MIN_TRACED_REPS
        or time.perf_counter() - t_start < args.seconds
        and time.perf_counter() - t_start < DEADLINE_S
    ):
        plain.append(runner.rep()[0])
        with Tracer() as tracer:
            traced.append(runner.rep()[0])
        tracers.append(tracer)
    problems = []
    summaries = [t.summary() for t in tracers]
    first_counts = (summaries[0][1], tracers[0].counts)
    for s, t in zip(summaries[1:], tracers[1:]):
        if (s[1], t.counts) != first_counts:
            problems.append("work counts differ between traced repetitions")
    bad = sum(s[2] for s in summaries)
    if bad:
        problems.append(f"{bad} spans have children longer than themselves")
    tracers[-1].save(WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.npz")

    self_s = {
        name: statistics.median(s[0].get(name, 0.0) for s in summaries)
        for name in summaries[0][0]
    }
    calls, counts = first_counts
    values = {}
    for metric, unit, source in PER_LAYER:
        if source is None:
            continue
        kind, key = source
        if kind == "self":
            values[metric] = self_s.get(key, 0.0)
        elif kind == "calls":
            values[metric] = calls.get(key, 0)
        else:
            values[metric] = counts.get(key, 0)
    shots = counts["cliques.find_cliques.shots"]
    nonvacuum = counts["cliques.find_cliques.nonvacuum_shots"]
    values["cliques.find_cliques.success_ratio"] = (
        counts["cliques.find_cliques.successes"] / shots if shots else 0.0
    )
    values["cliques.find_cliques.distinct_ratio"] = (
        counts["cliques.find_cliques.distinct_subsets"] / nonvacuum
        if nonvacuum else 0.0
    )
    overhead = statistics.median(traced) - statistics.median(plain)
    values["trace.overhead_s"] = overhead
    spans = len(tracers[0].name_id)
    print(f"tracing overhead {overhead:.4f} s per repetition "
          f"(traced wall_s median {statistics.median(traced):.4f} s over "
          f"{len(traced)}, untraced {statistics.median(plain):.4f} s over "
          f"{len(plain)}; {spans} spans per repetition)")
    for metric, unit, _ in PER_LAYER:
        print(f"{metric:46s} {values[metric]} {unit}")
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit, _ in PER_LAYER}
    return metrics, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    try:
        import_gbstopo()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    checker = Checker()
    try:
        workload.write_inputs(work, args.seed)
        runner = Runner(workload.ops(work, args.seed), checker)
        print(f"workload {args.workload}, seed {args.seed}, "
              f"{len(runner.ops)} operations per repetition")
        if args.trace:
            metrics, problems = traced_run(runner, args, t_start)
        else:
            metrics, problems = timed_run(runner, args, work, t_start), []
    finally:
        checker.close()
        shutil.rmtree(work, ignore_errors=True)
    for line in runner.errors[:20] + problems:
        print(f"FAILED: {line}")
    for line in sorted(runner.defects):
        print(f"KNOWN DEFECT (values checked, not counted as failed): {line}")
    print(f"error_rate  {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4g}")
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
