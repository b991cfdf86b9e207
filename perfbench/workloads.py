"""Workload definitions: the input instances each workload builds and the
fixed list of CLI operations it runs on them.

Every workload is a pure function of the workload seed. Seed 0 gives the
paper and acceptance defaults (planted_clique_graph seed 23,
two_community_graph seed 5, graded_triangle_chain seed 3); another seed
shifts every instance seed and every `--seed` flag, so the amount of work
stays comparable while the inputs change. Why each workload exists is
recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no gbstopo sources."""


def import_gbstopo():
    """Import gbstopo and its CLI from the checkout's own `src/`, never
    from elsewhere."""
    if not (SRC / "gbstopo" / "__init__.py").is_file():
        raise CheckoutError(f"no gbstopo sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gbstopo
    import gbstopo.cli  # noqa: F401  (the entry point every op calls)

    if Path(gbstopo.__file__).resolve().parent != (SRC / "gbstopo").resolve():
        raise CheckoutError(f"gbstopo imported from {gbstopo.__file__}, not {SRC}")
    return gbstopo


@dataclass(frozen=True)
class Op:
    """One CLI call, and the oracle that checks what it wrote.

    Paths in argv are absolute paths in the work dir. `check` is an
    oracles.check_* function with its arguments; run.py calls it in a
    separate process.
    """

    argv: tuple[str, ...]
    check: tuple[Callable[..., str | None], tuple] | None = None

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def out(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])


@dataclass(frozen=True)
class Workload:
    # Writes the input graph files into the work dir (part of set-up).
    write_inputs: Callable[[Path, int], None]
    # Builds the op list for a work dir and seed.
    ops: Callable[[Path, int], list[Op]]


def _save(path: Path, graph) -> None:
    from gbstopo.graph import save_graph

    path.write_bytes(save_graph(graph))


def _planted_inputs(work: Path, seed: int) -> None:
    from gbstopo.instances import planted_clique_graph

    _save(work / "planted.json", planted_clique_graph(seed=23 + seed))


def _law_ops(work: Path, seed: int) -> list[Op]:
    graph, enc = work / "planted.json", str(work / "enc.json")
    cut = ("--cutoff-total", "6", "--cutoff-per-mode", "6")
    dist, lossy = work / "dist.json", work / "dist_eta.json"
    return [
        Op(("encode", "--graph", str(graph), "--target-spectral", "0.95",
            "--out", enc)),
        Op(("dist", "--encoding", enc, *cut, "--out", str(dist)),
           (oracles.check_distribution, (graph, 0.95, dist))),
        Op(("dist", "--encoding", enc, *cut, "--eta", "0.8",
            "--out", str(lossy)),
           (oracles.check_loss, (graph, 0.95, dist, lossy, 0.8))),
    ]


def _search_ops(work: Path, seed: int) -> list[Op]:
    graph = work / "planted.json"
    common = ("--graph", str(graph), "--target-spectral", "0.95",
              "--shots", "3000", "--eta", "0.8")
    backends = {"gbs": (), "uniform": ("--k", "5"), "squashed": ()}
    ops = []
    for i, (name, extra) in enumerate(backends.items()):
        out = work / f"{name}.jsonl"
        ops.append(Op(
            ("sample", *common, "--backend", name, *extra,
             "--seed", str(1000 * seed + 42 + i), "--out", str(out)),
            (oracles.check_batch, (out, 12, 3000)),
        ))
    for name in backends:
        out = work / f"cliques_{name}.json"
        ops.append(Op(
            ("cliques", "--graph", str(graph), "--samples",
             str(work / f"{name}.jsonl"), "--k", "5", "--out", str(out)),
            (oracles.check_cliques, (graph, out, 5)),
        ))
    out = work / "compare.json"
    # The acceptance-criterion-5 setting: no local-search swaps.
    ops.append(Op(
        ("compare", "--graph", str(graph), "--target-spectral", "0.95",
         "--k", "5", "--max-iters", "0", "--seed", str(1000 * seed + 42),
         "--out", str(out)),
        (oracles.check_compare, (out, 3000)),
    ))
    return ops


def _community_inputs(work: Path, seed: int) -> None:
    from gbstopo.instances import two_community_graph

    _save(work / "community.json", two_community_graph(seed=5 + seed))


def _surface_ops(work: Path, seed: int) -> list[Op]:
    graph = str(work / "community.json")
    # The 20 x 20 grid of gbstopo.instances.surface_axes().
    axes = ("--omega-axis", "lin:0.05:1.0:20", "--delta-axis", "lin:0:0.95:20")
    ops = []
    for k_ref in (2, 3):
        out = work / f"surface{k_ref}.tsv"
        ops.append(Op(
            ("surface", "--graph", graph, *axes, "--k-ref", str(k_ref),
             "--out", str(out)),
            (oracles.check_surface, (out,)),
        ))
    betti, pers = work / "betti.tsv", work / "persistence.tsv"
    g40, betti40 = work / "g40.json", work / "betti40.tsv"
    ops += [
        Op(("betti", "--graph", graph, "--k-ref", "3", "--dmax", "3",
            "--delta-axis", "lin:0:0.9:10", "--out", str(betti)),
           (oracles.check_betti, (betti, 3))),
        Op(("persistence", "--graph", graph, "--k", "3", "--out", str(pers)),
           (oracles.check_persistence, (pers, 3))),
        Op(("gen", "--n", "40", "--p", "0.5", "--seed", str(seed),
            "--out", str(g40))),
        Op(("betti", "--graph", str(g40), "--dmax", "5",
            "--out", str(betti40)),
           (oracles.check_betti, (betti40, 5))),
    ]
    return ops


# Acceptance criterion 7's grid: G(100, p) straddling the triangle
# percolation threshold 1/sqrt(2n) ~ 0.07, with positive real weights.
P_GRID = tuple(round(0.02 + 0.01 * i, 2) for i in range(14))
GRID_SEEDS = 3


def _chain_inputs(work: Path, seed: int) -> None:
    from gbstopo.instances import graded_triangle_chain

    _save(work / "chain.json", graded_triangle_chain(seed=3 + seed))


def _sweep_ops(work: Path, seed: int) -> list[Op]:
    sweep = ("--graph", str(work / "chain.json"), "--k-ref", "3",
             "--photon-total", "4", "--delta-axis", "lin:0.4:0.92:14")
    exact = ("--cutoff-total", "4", "--cutoff-per-mode", "4")
    variants = {
        "exact": exact,
        "damaged": (*exact, "--damage-node", "1"),
        "gbs": ("--backend", "gbs", "--cutoff-total", "6",
                "--cutoff-per-mode", "6", "--shots", "3000",
                "--seed", str(seed)),
    }
    ops = []
    for name, extra in variants.items():
        out = work / f"entropy_{name}.tsv"
        ops.append(Op(
            ("entropy", *sweep, *extra, "--out", str(out)),
            (oracles.check_entropy, (out, 14)),
        ))
    for p in P_GRID:
        for i in range(GRID_SEEDS):
            g = work / f"gnp_{p}_{i}.json"
            out = work / f"perc_{p}_{i}.json"
            gen_seed = 100_000 * seed + 1000 * i + round(p * 100)
            ops.append(Op(
                ("gen", "--n", "100", "--p", str(p), "--seed", str(gen_seed),
                 "--alpha-range", "0.2", "1.0", "--beta-range", "0", "0",
                 "--out", str(g)),
            ))
            ops.append(Op(
                ("percolation", "--graph", str(g), "--k", "3",
                 "--out", str(out)),
                (oracles.check_percolation, (g, out, 3)),
            ))
    return ops


WORKLOADS = {
    "law_planted": Workload(_planted_inputs, _law_ops),
    "search_planted": Workload(_planted_inputs, _search_ops),
    "surface_community": Workload(_community_inputs, _surface_ops),
    "sweep_chain": Workload(_chain_inputs, _sweep_ops),
}
