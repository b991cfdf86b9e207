"""Weighted clique search seeded by sampler output, plus exact clique
enumeration for oracles and downstream topology.

The search groups a batch's shots by click subset with sampler._click_groups,
as conditioning does, shrinks each distinct subset greedily to a clique and
grows each distinct greedy clique once toward the target size; shots repeating
a subset reuse its result, and cli.cmd_cliques writes each success from one
record template. Candidate sets are scored by the weighted density
|sum w_ij| / (k(k-1)), which keeps complex phase cancellation central.

The shrink peels every subset at once. Each subset's vertices index a
padded K x K weight block; the subsets go largest first, in chunks of
about SHRINK_BLOCK_ENTRIES entries, K the chunk's largest subset. Per row
the peel keeps the row sums r and their total t, so dropping member v
leaves the sum t - 2 r_v; it removes the best member, updates r, t, the
in-set degrees and the clique test by one column, and stops each row once
it is a clique. The array sums only screen: every member within
_NEAR_TIE * sum(|re| + |im|) of a row's best score is rescored exactly by
ComplexGraph._mask_density, ascending, as _densest_toggle does, so each
step removes the vertex a one-set-at-a-time peel would. The peel uses
sums and no matrix product: a BLAS call would start worker threads.

Growth (local_search) carries the working set as an int bitmask (bit v for
vertex v), so clique tests and common neighbours are ANDs of the graph's
neighbor_masks. Densities are memoised per graph on the bitmask, so a set
scored again, for another subset or in another find_cliques call on the
same graph, is a dict lookup.

Enumeration grows cliques on the same neighbor_masks: a clique extends only
by its common neighbours above its largest vertex, so each clique is built
once and each size comes out in lexicographic order without a sort.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetError
from .graph import ComplexGraph, VertexSet, _mask_vertices, _row_masks, _vertex_mask
from .sampler import SampleBatch, _click_groups

CLIQUE_BUDGET = 5_000_000

# Complex entries per chunk of the shrink's padded blocks: chunks near 2^14
# entries keep its arrays small, so a search's peak memory does not grow.
SHRINK_BLOCK_ENTRIES = 2**14

# The shrink's screen, relative to sum(|re| + |im|) over a row's block. A
# peel step scores member v by |t - 2 r_v|. r_v is a pairwise sum of at
# most K entries less at most K removed columns, and t a sum of the r, so
# the score is off by at most about 3 K u sum(|re| + |im|), u = 2^-53:
# below 2e-12 of that sum for K up to MAX_VERTICES. The exact density sums
# the rest's entries pairwise, off by far less. So every exact winner and
# exact tie lies within 1e-10 of the row's best score and is rescored.
_NEAR_TIE = 1e-10


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


def _peel_rows(g: ComplexGraph, clicked: np.ndarray, k: int) -> list[int]:
    """The greedy clique mask of each row of `clicked`, a boolean array of
    non-empty vertex sets within range(g.n), each row of at most k."""
    size = clicked.sum(axis=1)
    # Row i's members ascending in its first size[i] columns; the padding
    # columns name vertex 0 and are never members.
    row_of, vert = np.nonzero(clicked)
    col = np.arange(len(vert)) - np.repeat(np.cumsum(size) - size, size)
    verts = np.zeros((len(clicked), k), dtype=np.intp)
    verts[row_of, col] = vert
    alive = np.arange(k) < size[:, None]
    block = np.where(alive[:, :, None] & alive[:, None, :],
                     g.weights[verts[:, :, None], verts[:, None, :]], 0)
    r = block.sum(axis=2)
    deg = (block != 0).sum(axis=2)
    twice_edges = deg.sum(axis=1)
    tol = _NEAR_TIE * np.abs(block.view(float)).sum(axis=(1, 2))
    kept = alive.copy()
    # The rows still peeling and their state. r_u sums row u over the
    # members, also for a removed u; t sums the members' r.
    ids = np.flatnonzero(twice_edges != size * (size - 1))
    state = [a[ids] for a in (r, alive, deg, twice_edges, size, tol)]
    while ids.size:
        r, alive, deg, twice_edges, size, tol = state
        t = np.where(alive, r, 0).sum(axis=1)
        score = np.where(alive, np.abs(t[:, None] - 2 * r), -np.inf)
        near = alive & (score >= (score.max(axis=1) - tol)[:, None])
        pick = near.argmax(axis=1)
        for i in np.flatnonzero(near.sum(axis=1) > 1).tolist():
            # Without an edge every rest has density exactly 0, and the
            # lowest member, the first near one, goes.
            if twice_edges[i]:
                row = verts[ids[i]]
                cur = sum(1 << v for v in row[alive[i]].tolist())
                cands = sum(1 << v for v in row[near[i]].tolist())
                v = _densest_toggle(g, cur, cands).bit_length() - 1
                pick[i] = int(np.flatnonzero(row == v)[0])
        at = np.arange(len(ids))
        alive[at, pick] = False
        cols = block[ids, :, pick]
        r -= cols
        twice_edges -= 2 * deg[at, pick]
        deg -= cols != 0
        size -= 1
        if (done := twice_edges == size * (size - 1)).any():
            kept[ids[done]] = alive[done]
            ids = ids[~done]
            state = [a[~done] for a in state]
    members = np.zeros(clicked.shape, dtype=bool)
    members[row_of, vert] = kept[row_of, col]
    return _row_masks(members)


def _shrink(g: ComplexGraph, clicked: np.ndarray) -> list[int]:
    """Peel each row of `clicked`, a (rows, width <= g.n) boolean array of
    non-empty vertex sets, until it is a clique; the clique masks in row
    order. Each step removes the member whose removal leaves the densest
    rest, the lowest index on ties. Rows go largest first, in chunks of
    about SHRINK_BLOCK_ENTRIES entries padded to the chunk's largest row."""
    size = clicked.sum(axis=1)
    order = np.argsort(-size, kind="stable")
    masks = [0] * len(clicked)
    lo = 0
    while lo < len(order):
        k = int(size[order[lo]])
        rows = order[lo:lo + max(1, SHRINK_BLOCK_ENTRIES // (k * k))]
        for i, mask in zip(rows.tolist(), _peel_rows(g, clicked[rows], k)):
            masks[i] = mask
        lo += len(rows)
    return masks


def greedy_shrink(g: ComplexGraph, s: Sequence[int]) -> Clique:
    """Peel vertices until the set is a clique.

    At each step the removed vertex is the one whose removal maximizes the
    residual weighted density; ties remove the smallest index.
    """
    cur = _vertex_mask(g, s)
    if not cur:
        raise ValueError("cannot shrink an empty set")
    row = np.zeros((1, g.n), dtype=bool)
    row[0, _mask_vertices(cur)] = True
    return _clique(g, _shrink(g, row)[0])


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


def _distinct_subsets(g: ComplexGraph, b: SampleBatch):
    """The batch's distinct non-empty click subsets as boolean rows within
    range(g.n), in order of first appearance, and for each non-vacuum shot
    the index of its subset. ValueError, as _vertex_mask raises it, for the
    first subset that clicks a vertex outside the graph."""
    clicked = b.patterns > 0
    subsets, first, inverse = _click_groups(clicked[clicked.any(axis=1)])
    order = np.argsort(first)
    subsets = subsets[order]
    if (outside := np.flatnonzero(subsets[:, g.n:].any(axis=1))).size:
        _vertex_mask(g, np.flatnonzero(subsets[outside[0]]).tolist())
    return subsets[:, :g.n], np.argsort(order)[inverse]


def find_cliques(
    g: ComplexGraph, b: SampleBatch, target_k: int, max_iters: int = 50
) -> SearchReport:
    """Run the full per-shot search pipeline and tally the success rate.

    Empty subsets (vacuum shots) count as failures in the denominator. Each
    distinct subset is shrunk once, in order of first appearance, and each
    distinct greedy clique is grown once.
    """
    _check_search_params(target_k, max_iters)
    subsets, shot_subset = _distinct_subsets(g, b)
    shrunk = _shrink(g, subsets)
    grown = {mask: local_search(g, _clique(g, mask), target_k, max_iters)
             for mask in dict.fromkeys(shrunk)}
    found = [grown[shrunk[i]] for i in shot_subset.tolist()]
    found = [c for c in found if c is not None]
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
    """Wilson 95% score interval for a binomial rate. Its bounds are exactly
    0 at 0 successes and exactly 1 when every shot succeeds."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    z = 1.959963984540054  # the two-sided 95% normal quantile
    p = successes / shots
    den = 1.0 + z * z / shots
    centre = (p + z * z / (2 * shots)) / den
    half = z * math.sqrt(p * (1 - p) / shots + z * z / (4 * shots * shots)) / den
    return (0.0 if successes == 0 else centre - half,
            1.0 if successes == shots else centre + half)


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
