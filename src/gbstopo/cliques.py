"""Weighted clique search seeded by sampler output, plus exact clique
enumeration for oracles and downstream topology.

The search pipeline per distinct photon subset is: pattern -> vertex subset
-> greedy shrinking to a clique -> local search toward the target size; shots
repeating a subset reuse its result. Both stages carry the working set as an
int bitmask (bit v for vertex v), so clique tests and common neighbours are
ANDs of the graph's neighbor_masks. They score candidate sets by the weighted
density |sum w_ij| / (k(k-1)), which keeps complex phase cancellation
central. Densities are memoised per graph on the bitmask
(ComplexGraph._mask_density), so a set scored again, for another subset or
in another find_cliques call on the same graph, is a dict lookup.

Enumeration grows cliques on the same neighbor_masks: a clique extends only
by its common neighbours above its largest vertex, so each clique is built
once and each size comes out in lexicographic order without a sort.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetError
from .graph import ComplexGraph, VertexSet, _mask_vertices, _vertex_mask
from .sampler import Pattern, SampleBatch

CLIQUE_BUDGET = 5_000_000


@dataclass(frozen=True)
class Clique:
    vertices: VertexSet
    k: int
    density: float


@dataclass(frozen=True)
class CliqueComplex:
    """All cliques of a graph grouped by size, complete through k_max.

    by_size[k] lists every k-clique in ascending lexicographic order.
    If by_size[k_max] is empty the graph has no cliques beyond k_max
    either, so the complex is complete at every size.
    """

    by_size: dict[int, list[VertexSet]]
    k_max: int

    def m(self, k: int) -> int:
        return len(self.by_size.get(k, []))


@dataclass(frozen=True)
class SearchReport:
    shots_in: int
    cliques_found: tuple[Clique, ...]
    success_rate: float
    density_histogram: dict[float, int]


def _clique(g: ComplexGraph, mask: int) -> Clique:
    vertices = tuple(_mask_vertices(mask))
    return Clique(vertices, len(vertices), g._mask_density(mask))


def _checked_clique(g: ComplexGraph, mask: int) -> Clique:
    """_clique, or ValueError if the mask's vertices are not a clique."""
    if not g._is_clique_mask(mask):
        raise ValueError(f"{tuple(_mask_vertices(mask))} is not a clique")
    return _clique(g, mask)


def pattern_to_subset(p: Pattern) -> VertexSet:
    """Vertices whose mode registered at least one photon."""
    return tuple(i for i, c in enumerate(p) if c >= 1)


def _densest_toggle(g: ComplexGraph, cur: int, cands: int) -> int:
    """The bit of cands whose toggling in cur leaves the densest set; the
    lowest index wins ties."""
    best = 0
    best_score = -1.0
    while cands:
        low = cands & -cands
        cands ^= low
        score = g._mask_density(cur ^ low)
        if score > best_score:
            best_score = score
            best = low
    return best


def _peel(g: ComplexGraph, cur: int, done) -> int:
    """Until done(cur), drop the vertex leaving the densest rest."""
    while not done(cur):
        cur ^= _densest_toggle(g, cur, cur)
    return cur


def greedy_shrink(g: ComplexGraph, s: Sequence[int]) -> Clique:
    """Peel vertices until the set is a clique.

    At each step the removed vertex is the one whose removal maximizes the
    residual weighted density; ties remove the smallest index.
    """
    cur = _vertex_mask(g, s)
    if not cur:
        raise ValueError("cannot shrink an empty set")
    return _clique(g, _peel(g, cur, g._is_clique_mask))


def _check_search_params(target_k: int, max_iters: int) -> None:
    if target_k < 1 or max_iters < 0:
        raise ValueError(
            f"need target_k >= 1 and max_iters >= 0, got {target_k}, {max_iters}"
        )


def _swap(g: ComplexGraph, cur: int) -> int | None:
    """cur with one member replaced by an outside vertex adjacent to the
    rest. (member, outsider) pairs are scanned in ascending order: the first
    swap that reopens growth wins, failing that the first that raises the
    density; None when neither exists."""
    base = g._mask_density(cur)
    raised = None
    for u in _mask_vertices(cur):
        rest = cur & ~(1 << u)
        for v in _mask_vertices(g._common_mask(rest) & ~cur):
            swapped = rest | 1 << v
            if g._common_mask(swapped):
                return swapped
            if raised is None and g._mask_density(swapped) > base:
                raised = swapped
    return raised


def local_search(
    g: ComplexGraph, c: Clique, target_k: int, max_iters: int = 50
) -> Clique | None:
    """Grow a clique to exactly target_k vertices, swapping out of plateaus.

    Oversized inputs are trimmed first (every subset of a clique is a
    clique). Expansion adds the common neighbor that maximizes the new
    density. When no common neighbor exists below the target, up to
    max_iters rounds of a _swap and a new expansion follow. Returns None
    when the target stays unreachable.
    """
    _check_search_params(target_k, max_iters)
    cur = _vertex_mask(g, c.vertices)
    cur = _peel(g, cur, lambda kept: kept.bit_count() <= target_k)

    def expand(cur: int) -> int:
        while cur.bit_count() < target_k and (cands := g._common_mask(cur)):
            cur |= _densest_toggle(g, cur, cands)
        return cur

    cur = expand(cur)
    for _ in range(max_iters):
        if cur.bit_count() == target_k:
            break
        if (cur := _swap(g, cur)) is None:
            return None
        cur = expand(cur)
    return _checked_clique(g, cur) if cur.bit_count() == target_k else None


def find_cliques(
    g: ComplexGraph, b: SampleBatch, target_k: int, max_iters: int = 50
) -> SearchReport:
    """Run the full per-shot search pipeline and tally the success rate.

    Empty subsets (vacuum shots) count as failures in the denominator. Each
    distinct subset is searched once, in order of first appearance.
    """
    _check_search_params(target_k, max_iters)
    subsets = [pattern_to_subset(p) for p in b.patterns.tolist()]
    searched = {
        s: local_search(g, greedy_shrink(g, s), target_k, max_iters)
        for s in dict.fromkeys(subsets)
        if s
    }
    found = [searched[s] for s in subsets if s and searched[s] is not None]
    shots = len(b.patterns)
    rate = len(found) / shots if shots else 0.0
    hist = Counter(c.density for c in found)
    return SearchReport(
        shots_in=shots,
        cliques_found=tuple(found),
        success_rate=rate,
        density_histogram=dict(sorted(hist.items())),
    )


def binomial_interval(successes: int, shots: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial rate."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    z = 1.959963984540054  # the two-sided 95% normal quantile
    p = successes / shots
    den = 1.0 + z * z / shots
    centre = (p + z * z / (2 * shots)) / den
    half = z * math.sqrt(p * (1 - p) / shots + z * z / (4 * shots * shots)) / den
    return centre - half, centre + half


def enumerate_cliques(g: ComplexGraph, k_max: int) -> CliqueComplex:
    """Every clique of size 1..k_max, grown on the graph's neighbor_masks.

    Each clique carries the mask of its common neighbours above its largest
    vertex and is extended by those vertices in ascending order, so every
    clique appears once and each size comes out in lexicographic order.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    masks = g.neighbor_masks
    by_size: dict[int, list[VertexSet]] = {}
    # The empty clique, with every vertex as a candidate.
    level: list[tuple[VertexSet, int]] = [((), (1 << g.n) - 1)]
    count = 0
    for k in range(1, k_max + 1):
        grown = []
        for s, cands in level:
            while cands:
                low = cands & -cands
                cands ^= low
                v = low.bit_length() - 1
                count += 1
                if count > CLIQUE_BUDGET:
                    raise BudgetError(
                        f"clique count exceeds budget {CLIQUE_BUDGET}",
                        required=count,
                        budget=CLIQUE_BUDGET,
                    )
                grown.append((s + (v,), cands & masks[v]))
        by_size[k] = [s for s, _ in grown]
        level = grown
    return CliqueComplex(by_size=by_size, k_max=k_max)
