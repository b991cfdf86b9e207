"""k-clique percolation, topological damage injection, Renyi entropy of
sampling patterns, and the threshold sweep tying entropy to the
percolation order parameter.

Two k-cliques are adjacent when they differ by exactly one node, i.e.
share a (k-1)-facet. Percolation clusters are the connected components of
that adjacency, found by a union-find over the cliques that joins each
clique to the first clique holding each of its facets; the order
parameter Phi = N*/N is the node fraction of the largest cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from . import sampler as smp
from .cliques import enumerate_cliques
from .encoding import encode
from .errors import EmptyConditionError
from .graph import ComplexGraph, VertexSet, _pairs_inside
from .tda import density_filtration


@dataclass(frozen=True)
class PercolationReport:
    clusters: tuple[VertexSet, ...]
    phi: float
    largest_nodes: int


def percolation_clusters(g: ComplexGraph, k: int) -> PercolationReport:
    """Clusters of k-cliques that chain through shared (k-1)-facets, as
    union-find trees over the cliques; clusters report node unions."""
    if k < 2:
        raise ValueError("k must be >= 2")
    cliques = enumerate_cliques(g, k).by_size.get(k, [])
    parent = list(range(len(cliques)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    # Each facet's first clique owns it; a later clique holding the facet
    # hangs the owner's tree under itself, and stays a root while read.
    owner: dict[VertexSet, int] = {}
    for j, c in enumerate(cliques):
        for f in combinations(c, k - 1):
            parent[root(owner.setdefault(f, j))] = j
    groups: dict[int, set[int]] = {}
    for j, c in enumerate(cliques):
        groups.setdefault(root(j), set()).update(c)
    clusters = sorted(
        (tuple(sorted(nodes)) for nodes in groups.values()),
        key=lambda t: (-len(t), t),
    )
    largest = max(map(len, clusters), default=0)
    return PercolationReport(
        clusters=tuple(clusters),
        phi=largest / g.n,
        largest_nodes=largest,
    )


def damage(g: ComplexGraph, node: int, k: int) -> ComplexGraph:
    """Remove every edge lying inside at least one k-clique that contains
    `node`; everything else is untouched."""
    if not 0 <= node < g.n:
        raise ValueError(f"node {node} out of range")
    hit = [s for s in enumerate_cliques(g, k).by_size.get(k, []) if node in s]
    return ComplexGraph(g.n, np.where(~_pairs_inside(g.n, hit, k), g.weights, 0))


def renyi_entropy(p, alpha: float) -> float:
    """Natural-log Renyi entropy H_alpha = ln(sum p_i^alpha) / (1 - alpha),
    with the Shannon limit at alpha = 1."""
    if not 0 < alpha < math.inf:  # nan fails too
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if isinstance(p, Mapping):
        probs = np.array(list(p.values()), dtype=float)
    else:
        probs = np.asarray(list(p), dtype=float)
    if np.any(probs < 0):
        raise ValueError("negative probability")
    if not abs(float(probs.sum()) - 1.0) <= 1e-9:  # a nan sum fails too
        raise ValueError(f"unnormalized distribution (sum {probs.sum()})")
    probs = probs[probs > 0]
    if alpha == 1.0:
        return float(-np.sum(probs * np.log(probs)))
    power_sum = np.sum(probs**alpha)
    if power_sum != 0.0:
        return float(np.log(power_sum) / (1.0 - alpha))
    # Every p**alpha underflowed: factor out pmax; alpha / (1 - alpha) cannot overflow.
    pmax = probs.max()
    log_rest = np.log(np.sum((probs / pmax) ** alpha))
    return float(alpha / (1.0 - alpha) * np.log(pmax) + log_rest / (1.0 - alpha))


def curve_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation with mid-rank ties.

    nan when a curve is constant or holds a nan, as scipy.stats.spearmanr
    reports (without its warning); otherwise bit-equal to its statistic.
    """
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    if len(a) < 3:
        raise ValueError("need at least 3 points")
    x = np.column_stack((a, b))
    if np.isnan(x).any() or (x == x[0]).all(axis=0).any():
        return math.nan
    # A value v ties over ranks #{< v} + 1 .. #{<= v}; it takes their mean.
    ranks = [
        (np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1) / 2
        for s, v in zip(np.sort(x, axis=0).T, x.T)
    ]
    return float(np.corrcoef(np.column_stack(ranks), rowvar=False)[1, 0])


@dataclass(frozen=True)
class SweepConfig:
    """Sampler/encoding settings shared by every threshold of a sweep."""

    k_ref: int
    alpha: float
    photon_total: int
    target_spectral: float = 0.7
    d: float = 0.0
    backend: str = "exact"
    shots: int = 3000
    seed: int = 0
    cutoff_total: int = 6
    cutoff_per_mode: int = 6
    collision_policy: str = "threshold_collapse"


@dataclass(frozen=True)
class SweepResult:
    """Per threshold of axis: the order parameter Phi, the node count of
    the largest cluster, and the Renyi entropy of the conditioned pattern
    law, raw (h_alpha) and normalized to [0, 1] (h_norm)."""

    axis: tuple[float, ...]
    phi: tuple[float, ...]
    largest_nodes: tuple[int, ...]
    h_alpha: tuple[float, ...]
    h_norm: tuple[float, ...]


def _entropy_at(g: ComplexGraph, cfg: SweepConfig) -> float:
    """H_alpha of the conditioned pattern law of g.

    Graphs that cannot be sampled (no edges) or that put no mass on the
    conditioning total report the floor value 0.
    """
    if g.num_edges() == 0:
        return 0.0
    enc = encode(g, cfg.target_spectral, cfg.d)
    if cfg.backend == "exact":
        law = smp.enumerate_distribution(enc, cfg.cutoff_total, cfg.cutoff_per_mode)
    else:
        law = smp.sample(
            cfg.backend, enc, cfg.shots, cfg.seed,
            cutoff_total=cfg.cutoff_total, cutoff_per_mode=cfg.cutoff_per_mode,
        )
    try:
        hist = smp.conditional_from_distribution(
            law, cfg.photon_total, cfg.collision_policy
        )
    except EmptyConditionError:
        return 0.0
    return renyi_entropy(hist, cfg.alpha)


def percolation_entropy_sweep(
    g: ComplexGraph, thresholds: Sequence[float], cfg: SweepConfig
) -> SweepResult:
    """Per density threshold: reconstruct the network from qualifying
    k_ref-cliques, measure Phi there, re-encode and measure the
    Renyi entropy of photon patterns conditioned on the configured
    total, normalized by its ceiling over collision-free patterns,
    ln C(n, photon_total)."""
    ceiling = math.comb(g.n, cfg.photon_total)
    if ceiling < 2:  # checked before any threshold graph is built
        raise ValueError(
            f"normalization undefined: C({g.n},{cfg.photon_total}) = {ceiling}"
        )
    axis = tuple(float(t) for t in thresholds)
    cells = [
        (percolation_clusters(f, cfg.k_ref), _entropy_at(f, cfg))
        for f in density_filtration(g, cfg.k_ref, axis)
    ]
    return SweepResult(
        axis=axis,
        phi=tuple(r.phi for r, _ in cells),
        largest_nodes=tuple(r.largest_nodes for r, _ in cells),
        h_alpha=tuple(h for _, h in cells),
        h_norm=tuple(h / math.log(ceiling) for _, h in cells),
    )
