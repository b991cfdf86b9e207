"""Benchmark network instances used by the experiment scripts and the
acceptance suite.

All builders are deterministic: magnitude structure is explicit and only
phase jitter comes from the seeded generator.
"""

from __future__ import annotations

import numpy as np

from .graph import ComplexGraph, graph_from_edges


def planted_clique_graph(seed: int = 23) -> ComplexGraph:
    """Planted 5-clique on 12 vertices whose coherence only the sampler
    can see.

    All edges carry magnitudes in [0.9, 1.0], so no weight gradient leads
    a greedy search toward the planted clique. Its edges are phase
    consistent through per-vertex gauge factors w_ij = m exp(i(t_i+t_j)),
    which leaves every photon-pattern probability looking like a
    positive-weight clique (matching products share one global phase)
    while the weighted density of planted subsets stays unremarkable.
    Each background vertex sees exactly 3 clique vertices through
    random-phase edges, so partial matches dead-end below the clique
    size, and the sparse background layer (edge probability 0.1) supplies
    decoys. The default seed is calibrated so the planted clique is the
    unique one of its size.
    """
    n, clique_size, spokes, background_prob = 12, 5, 3, 0.1
    rng = np.random.default_rng(seed)
    edges = {}
    theta = rng.uniform(0, 2 * np.pi, clique_size)
    for i in range(clique_size):
        for j in range(i + 1, clique_size):
            m = rng.uniform(0.9, 1.0)
            edges[(i, j)] = m * np.exp(1j * (theta[i] + theta[j]))
    for v in range(clique_size, n):
        for a in rng.choice(clique_size, size=spokes, replace=False):
            m = rng.uniform(0.9, 1.0)
            edges[(int(a), v)] = m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    for i in range(clique_size, n):
        for j in range(i + 1, n):
            if rng.random() < background_prob:
                m = rng.uniform(0.9, 1.0)
                edges[(i, j)] = m * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return graph_from_edges(n, [(i, j, w) for (i, j), w in edges.items()])


def two_community_graph(seed: int = 5) -> ComplexGraph:
    """Twenty vertices in two dense communities bridged by weak links.

    Communities A = {0..9} and B = {10..19} are complete, with magnitude
    bands [0.66, 0.79] and [0.81, 0.94]. The 41 bipartite bridges split
    into a 20-edge band on [0.16, 0.24] and a 21-edge band on
    [0.36, 0.44], so band-pass cells of a two-dimensional filtration
    sweep through triangle-free bridge-only graphs whose Euler
    characteristic crosses zero.
    """
    rng = np.random.default_rng(seed)
    n = 20
    edges = []

    def banded(pairs, lo, hi, aligned):
        mags = np.linspace(lo, hi, len(pairs))
        for (i, j), mag in zip(pairs, mags):
            phase = (
                rng.uniform(-0.1, 0.1) if aligned else rng.uniform(0, 2 * np.pi)
            )
            edges.append((i, j, mag * np.exp(1j * phase)))

    intra_a = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    intra_b = [(i, j) for i in range(10, 20) for j in range(i + 1, 20)]
    low_bridges = [(a, 10 + (a + t) % 10) for t in (0, 1) for a in range(10)]
    high_bridges = [(a, 10 + (a + t) % 10) for t in (2, 3) for a in range(10)]
    high_bridges.append((0, 14))
    banded(intra_a, 0.66, 0.79, aligned=True)
    banded(intra_b, 0.81, 0.94, aligned=True)
    banded(low_bridges, 0.16, 0.24, aligned=False)
    banded(high_bridges, 0.36, 0.44, aligned=False)
    return graph_from_edges(n, edges)


def surface_axes() -> tuple[np.ndarray, np.ndarray]:
    """The 20 x 20 grid matched to two_community_graph's magnitude bands."""
    return np.linspace(0.05, 1.0, 20), np.linspace(0.0, 0.95, 20)


def graded_triangle_chain(seed: int = 3) -> ComplexGraph:
    """Chain of triangles on 10 vertices with monotonically decreasing
    edge weights plus one 4-clique at the heavy end.

    Edges join vertices at distance 1 or 2, with magnitudes falling from
    ~0.92 toward ~0.44 along the chain, so triangle densities are graded
    and a rising density threshold peels the chain from the light end.
    The extra (0, 3) edge completes the 4-clique {0, 1, 2, 3}, giving
    damage injection a target at the heavy end.
    """
    n = 10
    rng = np.random.default_rng(seed)
    edges = []

    def add(i, j):
        mid = (i + j) / 2.0
        mag = 0.95 - 0.06 * mid
        phase = rng.uniform(-0.1, 0.1)
        edges.append((i, j, mag * np.exp(1j * phase)))

    for i in range(n - 1):
        add(i, i + 1)
    for i in range(n - 2):
        add(i, i + 2)
    add(0, 3)
    return graph_from_edges(n, edges)
