"""Independent oracle implementations used only to check the library.

These deliberately avoid the production code paths: the hafnian oracle
enumerates perfect matchings directly, the clique oracles scan all vertex
subsets or close Bron-Kerbosch maximal cliques downward, the persistence
oracle scans every outside vertex for absorbers, the damage oracle zeroes
clique edges pair by pair, the percolation oracle takes the connected
components of a scipy.sparse clique-facet incidence matrix, the homology
oracles do dense GF(2) elimination
on numpy arrays or rebuild a packed-row work list after every pivot,
components come from a hand-rolled union-find, the loss oracle expands
every pattern into its thinned patterns one by one, the clique-search
oracle runs every shot's search anew on np.ix_ submatrices, the sampler
and batch-loss oracles build one PCG64([tag, seed]) per shot, advanced
past the doubles of the shots before it, and turn its doubles into the
draw one scalar at a time with the math module (Box-Muller normals,
Poisson and binomial inversion by a scan of the CDF), the Takagi oracle
takes an SVD and a blockwise
scipy.linalg.sqrtm, the conditioning oracle tallies tuple patterns, the
rank-correlation oracle is scipy.stats.spearmanr, the transition oracle
compares chi of neighbouring cells in a double loop, the filtered-Betti
oracle enumerates and reduces each threshold's complex on its own, and
the file-writer oracles build each document as Python objects and encode
it with json.dumps.
"""

import json
import math
import warnings
from itertools import combinations

import numpy as np
import scipy.linalg
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as sparse_components
from scipy.stats import ConstantInputWarning, spearmanr

from gbstopo.cli import main as cli_main
from gbstopo.cliques import Clique, SearchReport, enumerate_cliques
from gbstopo.graph import ComplexGraph, VertexSet, edge_filter, save_graph
from gbstopo.instances import graded_triangle_chain
from gbstopo.percolation import PercolationReport
from gbstopo.sampler import COUNT_BUDGET, enumerate_distribution
from gbstopo.tda import (
    FiltrationSurface, TptReport, betti_numbers, density_filtration,
    euler_characteristic,
)


def matching_sum_hafnian(m) -> complex:
    """Sum over perfect matchings, built by direct recursion on lists."""
    m = np.asarray(m, dtype=complex)
    idx = list(range(m.shape[0]))
    if len(idx) == 0:
        return 1.0 + 0.0j
    if len(idx) % 2 == 1:
        return 0.0 + 0.0j

    def rec(remaining):
        if not remaining:
            return 1.0 + 0.0j
        first, rest = remaining[0], remaining[1:]
        total = 0.0 + 0.0j
        for pos, j in enumerate(rest):
            total += m[first, j] * rec(rest[:pos] + rest[pos + 1 :])
        return total

    return complex(rec(idx))


def thinned_pattern_law(p, eta) -> dict:
    """Law of one pattern after independent per-photon survival, built one
    mode at a time as a dict over thinned patterns."""
    results = {(): 1.0}
    for c in p:
        probs = [
            math.comb(c, k) * eta**k * (1 - eta) ** (c - k) for k in range(c + 1)
        ]
        nxt = {}
        for prefix, w in results.items():
            for k, pk in enumerate(probs):
                if pk == 0.0:
                    continue
                nxt[prefix + (k,)] = nxt.get(prefix + (k,), 0.0) + w * pk
        results = nxt
    return results


def lossy_entries(entries, eta) -> dict:
    """Distribution entries after uniform loss, pattern by pattern."""
    acc = {p: 0.0 for p in entries}
    for p, w in entries.items():
        for q, t in thinned_pattern_law(p, eta).items():
            acc[q] += w * t
    return acc


def brute_force_cliques(g, k_max):
    """All cliques of each size by scanning every subset (2^n work)."""
    out = {k: [] for k in range(1, k_max + 1)}
    for k in range(1, k_max + 1):
        for s in combinations(range(g.n), k):
            ok = all(g.weights[i, j] != 0 for i, j in combinations(s, 2))
            if ok:
                out[k].append(s)
    return out


def _bron_kerbosch_pivot(
    r: list[int],
    p: set[int],
    x: set[int],
    nbrs: list[set[int]],
    out: list[VertexSet],
) -> None:
    if not p and not x:
        out.append(tuple(sorted(r)))
        return
    # Pivot with the most candidates swallowed; smallest index on ties.
    pivot = max(sorted(p | x), key=lambda u: len(p & nbrs[u]))
    for v in sorted(p - nbrs[pivot]):
        _bron_kerbosch_pivot(r + [v], p & nbrs[v], x & nbrs[v], nbrs, out)
        p.remove(v)
        x.add(v)


def maximal_cliques(g: ComplexGraph) -> list[VertexSet]:
    """All maximal cliques, via Bron-Kerbosch with pivoting."""
    nbrs = [set(np.nonzero(g.weights[v])[0].tolist()) for v in range(g.n)]
    out: list[VertexSet] = []
    _bron_kerbosch_pivot([], set(range(g.n)), set(), nbrs, out)
    return sorted(out)


def closure_of_maximal_cliques(g, k_max) -> dict:
    """Cliques of size 1..k_max as every sub-clique of every maximal
    clique, collected in a set and sorted."""
    collected = set()
    for m in maximal_cliques(g):
        for k in range(1, min(len(m), k_max) + 1):
            collected.update(combinations(m, k))
    by_size = {k: [] for k in range(1, k_max + 1)}
    for s in sorted(collected, key=lambda t: (len(t), t)):
        by_size[len(s)].append(s)
    return by_size


def reference_clique_persistence(g, k) -> list:
    """(clique, birth, death) per k-clique, scanning every outside vertex
    for zero spokes; cliques come from closure_of_maximal_cliques."""
    mags = g.magnitudes()
    pairs = []
    for s in closure_of_maximal_cliques(g, k)[k]:
        internal = [mags[i, j] for i, j in combinations(s, 2)]
        birth = max(internal)
        death = math.inf
        for v in range(g.n):
            if v in s:
                continue
            spokes = [mags[v, u] for u in s]
            if any(x == 0 for x in spokes):
                continue
            absorbed_at = max(birth, max(spokes))
            death = min(death, absorbed_at)
        pairs.append((s, float(birth), death))
    return pairs


def dense_gf2_rank(mat) -> int:
    """Gaussian elimination mod 2 on a dense uint8 matrix."""
    a = (np.array(mat, dtype=np.uint8) % 2).copy()
    rows, cols = a.shape
    rank = 0
    pivot_row = 0
    for col in range(cols):
        hit = None
        for r in range(pivot_row, rows):
            if a[r, col]:
                hit = r
                break
        if hit is None:
            continue
        a[[pivot_row, hit]] = a[[hit, pivot_row]]
        for r in range(rows):
            if r != pivot_row and a[r, col]:
                a[r] ^= a[pivot_row]
        pivot_row += 1
        rank += 1
    return rank


def reference_rank_bits(rows) -> int:
    """GF(2) rank by elimination on packed bit rows, rebuilding the work
    list after every pivot (the library's former _rank_bits)."""
    work = [r for r in rows if r]
    rank = 0
    while work:
        pivot_row = work.pop()
        rank += 1
        low_bit = pivot_row & -pivot_row
        work = [r ^ pivot_row if r & low_bit else r for r in work]
        work = [r for r in work if r]
    return rank


def to_dense(b) -> np.ndarray:
    """A BoundaryMatrix as a dense uint8 array, bit j of row i at [i, j]."""
    n_rows, n_cols = b.shape
    out = np.zeros((n_rows, n_cols), dtype=np.uint8)
    for i, bits in enumerate(b.rows):
        for j in range(n_cols):
            if (bits >> j) & 1:
                out[i, j] = 1
    return out


def clique_counts(cc) -> dict[int, int]:
    """Number of cliques of each enumerated size, by ascending size."""
    return {k: len(v) for k, v in sorted(cc.by_size.items())}


def max_nonempty_size(cc) -> int:
    """Largest clique size with at least one clique; 0 for no cliques."""
    sizes = [k for k, v in cc.by_size.items() if v]
    return max(sizes) if sizes else 0


def connected_components(n, edges) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(v) for v in range(n)})


def betti_via_dense_ranks(by_size):
    """Betti numbers from scratch: dense boundary matrices over GF(2)."""
    sizes = sorted(k for k, v in by_size.items() if v)
    if not sizes:
        return ()
    top = max(sizes)
    ranks = {1: 0}
    for k in range(2, top + 2):
        rows = sorted(by_size.get(k - 1, []))
        cols = sorted(by_size.get(k, []))
        if not rows or not cols:
            ranks[k] = 0
            continue
        row_index = {s: i for i, s in enumerate(rows)}
        mat = np.zeros((len(rows), len(cols)), dtype=np.uint8)
        for j, col in enumerate(cols):
            for facet in combinations(col, k - 1):
                mat[row_index[facet], j] = 1
        ranks[k] = dense_gf2_rank(mat)
    betti = []
    for d in range(top):
        m = len(by_size.get(d + 1, []))
        betti.append(m - ranks.get(d + 1, 0) - ranks.get(d + 2, 0))
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def reference_clique_density(g, s) -> float:
    """Weighted density from an np.ix_ submatrix (the original layout)."""
    s = tuple(sorted(s))
    k = len(s)
    if k < 2:
        return 0.0
    sub = g.weights[np.ix_(s, s)]
    return float(abs(sub.sum())) / (k * (k - 1))


def reference_density_filter(g, k_ref, delta_t):
    """g restricted to the edges inside its k_ref-cliques of density
    >= delta_t, on all n vertices; the cliques come from brute force."""
    w = np.zeros_like(g.weights)
    for s in brute_force_cliques(g, k_ref)[k_ref]:
        if reference_clique_density(g, s) >= delta_t:
            block = np.ix_(s, s)
            w[block] = g.weights[block]
    return ComplexGraph(g.n, w)


def reference_betti_rows(g, dmax, k_ref, thresholds) -> list[list[int]]:
    """betti_rows one threshold at a time, as the betti command once ran:
    per density_filtration graph (g itself without k_ref), enumerate_cliques
    through size dmax + 2, then betti_numbers and euler_characteristic of
    that complex. Each row is m_1..m_top, r_2..r_top, beta_0..beta_dmax, chi."""
    top = dmax + 2
    graphs = ([g] * len(thresholds) if k_ref is None
              else density_filtration(g, k_ref, thresholds))
    rows = []
    for r in graphs:
        c = enumerate_cliques(r, top)
        prof = betti_numbers(c, dmax)
        rows.append([c.m(k) for k in range(1, top + 1)]
                    + [prof.ranks[k] for k in range(2, top + 1)]
                    + list(prof.betti) + [euler_characteristic(c)])
    return rows


def reference_filtration_surface(g, omega_axis, delta_axis, k_ref):
    """filtration_surface one cell at a time: per omega row, edge_filter and
    density_filtration, then the full clique complex of every cell."""
    omega_axis = tuple(float(x) for x in omega_axis)
    delta_axis = tuple(float(x) for x in delta_axis)
    if not omega_axis or not delta_axis:
        raise ValueError("axes must be nonempty")
    if list(omega_axis) != sorted(omega_axis) or list(delta_axis) != sorted(
        delta_axis
    ):
        raise ValueError("axes must be ascending")
    m, chi = [], []
    for omega_t in omega_axis:
        filtered = edge_filter(g, omega_t)
        m.append([])
        chi.append([])
        for rebuilt in density_filtration(filtered, k_ref, delta_axis):
            complex_ = enumerate_cliques(rebuilt, rebuilt.n)
            m[-1].append([complex_.m(k) for k in range(1, g.n + 1)])
            chi[-1].append(euler_characteristic(complex_))
    return FiltrationSurface(
        omega_axis=omega_axis,
        delta_axis=delta_axis,
        m=np.array(m, dtype=np.int64),
        chi=np.array(chi, dtype=np.int64),
    )


def reference_tpt_points(s):
    """tpt_points one cell at a time: zero cells and sign changes to the
    next row and the next column, by a double loop over the grid."""
    zeros = []
    fronts = []
    n_i = len(s.omega_axis)
    n_j = len(s.delta_axis)
    for i in range(n_i):
        for j in range(n_j):
            chi = int(s.chi[i, j])
            if chi == 0:
                zeros.append((i, j))
            for di, dj in ((1, 0), (0, 1)):
                i2, j2 = i + di, j + dj
                if i2 < n_i and j2 < n_j:
                    if chi * int(s.chi[i2, j2]) < 0:
                        fronts.append(((i, j), (i2, j2)))
    return TptReport(zero_cells=tuple(zeros), sign_fronts=tuple(fronts))


def reference_damage(g, node, k):
    """g without the edges inside its k-cliques that hold `node`, zeroed
    pair by pair; the cliques come from brute force."""
    w = np.array(g.weights)
    for s in brute_force_cliques(g, k)[k]:
        if node in s:
            for i, j in combinations(s, 2):
                w[i, j] = w[j, i] = 0
    return ComplexGraph(g.n, w)


def reference_percolation_clusters(g, k) -> PercolationReport:
    """k-clique percolation as the connected components of the bipartite
    graph joining each k-clique to its (k-1)-facets: cliques are nodes
    0..m-1 of one sparse incidence matrix and their distinct facets follow."""
    if k < 2:
        raise ValueError("k must be >= 2")
    cliques = enumerate_cliques(g, k).by_size.get(k, [])
    if not cliques:
        return PercolationReport(clusters=(), phi=0.0, largest_nodes=0)
    m = len(cliques)
    facets: dict[VertexSet, int] = {}
    cols = [
        facets.setdefault(f, m + len(facets))
        for c in cliques for f in combinations(c, k - 1)
    ]
    size = m + len(facets)
    incidence = coo_matrix(
        (np.ones(len(cols)), (np.repeat(np.arange(m), k), cols)),
        shape=(size, size),
    )
    _, labels = sparse_components(incidence, directed=False)
    groups: dict[int, set[int]] = {}
    for label, c in zip(labels[:m].tolist(), cliques):
        groups.setdefault(label, set()).update(c)
    clusters = sorted(
        (tuple(sorted(nodes)) for nodes in groups.values()),
        key=lambda t: (-len(t), t),
    )
    largest = len(clusters[0])
    return PercolationReport(
        clusters=tuple(clusters), phi=largest / g.n, largest_nodes=largest
    )


def relabel(g, perm) -> ComplexGraph:
    """Apply a vertex permutation: new vertex perm[v] is old vertex v."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of range(n)")
    inv = np.argsort(perm)
    return ComplexGraph(g.n, g.weights[np.ix_(inv, inv)])


def has_edge(g, i, j) -> bool:
    """True iff i != j and the weight w_ij is nonzero."""
    return i != j and g.weights[i, j] != 0


def make_clique(g, s) -> Clique:
    """The Clique on the vertices s, with its density; ValueError if s is
    not a clique."""
    s = tuple(sorted(s))
    if not reference_is_clique(g, s):
        raise ValueError(f"{s} is not a clique")
    return Clique(s, len(s), reference_clique_density(g, s))


def reference_is_clique(g, s) -> bool:
    """Every off-diagonal entry of the np.ix_ submatrix is nonzero."""
    s = tuple(sorted(s))
    if len(s) <= 1:
        return True
    sub = g.weights[np.ix_(s, s)]
    off_diag = sub[~np.eye(len(s), dtype=bool)]
    return bool(np.all(off_diag != 0))


def _reference_common_neighbors(g, s):
    members = set(s)
    out = []
    for v in range(g.n):
        if v in members:
            continue
        if all(g.weights[v, u] != 0 for u in s):
            out.append(v)
    return out


def _reference_shot(g, subset, target_k, max_iters):
    """Greedy shrink, trim, expand and swap for one shot, as first written:
    one loop per stage, numpy densities and adjacency, no memo."""
    dens = reference_clique_density
    cur = list(subset)
    while not reference_is_clique(g, cur):
        best_v = None
        best_score = -1.0
        for v in cur:
            rest = tuple(u for u in cur if u != v)
            score = dens(g, rest)
            if score > best_score:
                best_score = score
                best_v = v
        cur.remove(best_v)
    while len(cur) > target_k:
        best_v = None
        best_score = -1.0
        for v in cur:
            rest = tuple(u for u in cur if u != v)
            score = dens(g, rest)
            if score > best_score:
                best_score = score
                best_v = v
        cur.remove(best_v)

    def expand():
        while len(cur) < target_k:
            cands = _reference_common_neighbors(g, cur)
            if not cands:
                return
            best_v = None
            best_score = -1.0
            for v in cands:
                score = dens(g, cur + [v])
                if score > best_score:
                    best_score = score
                    best_v = v
            cur.append(best_v)

    expand()
    iters = 0
    while len(cur) < target_k and iters < max_iters:
        growth_swap = None
        density_swap = None
        base_density = dens(g, cur)
        for u in sorted(cur):
            rest = [w for w in cur if w != u]
            for v in _reference_common_neighbors(g, rest):
                if v == u:
                    continue
                swapped = tuple(sorted(rest + [v]))
                if growth_swap is None and _reference_common_neighbors(
                    g, swapped
                ):
                    growth_swap = (u, v)
                    break
                if density_swap is None and dens(g, swapped) > base_density:
                    density_swap = (u, v)
            if growth_swap:
                break
        chosen = growth_swap or density_swap
        if chosen is None:
            return None
        u, v = chosen
        cur.remove(u)
        cur.append(v)
        iters += 1
        expand()
    if len(cur) == target_k:
        return tuple(sorted(cur))
    return None


def reference_find_cliques(g, batch, target_k, max_iters=50):
    """The clique search run shot by shot with no memo, as a SearchReport."""
    found = []
    for p in batch.patterns:
        subset = tuple(i for i, c in enumerate(p) if c >= 1)
        if not subset:
            continue
        vs = _reference_shot(g, subset, target_k, max_iters)
        if vs is not None:
            found.append(Clique(vs, len(vs), reference_clique_density(g, vs)))
    shots = len(batch.patterns)
    hist = {}
    for c in found:
        hist[c.density] = hist.get(c.density, 0) + 1
    return SearchReport(
        shots_in=shots,
        cliques_found=tuple(found),
        success_rate=len(found) / shots if shots else 0.0,
        density_histogram=dict(sorted(hist.items())),
    )


def scipy_spearman(a, b) -> float:
    """scipy's Spearman statistic; nan, without a warning, on constant input."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstantInputWarning)
        return float(spearmanr(list(a), list(b)).statistic)


def reference_takagi(a_prime):
    """A' = U diag(sigma) U^T from the SVD A' = U0 S V^H: Z = U0^H conj(V)
    is block diagonal over groups of equal singular values and symmetric
    unitary on each nonzero block, so U = U0 sqrt(Z) computed blockwise.
    Zero singular values get an identity block (their columns never touch
    the reconstruction). Returns (U, sigma), sigma descending."""
    a_prime = np.asarray(a_prime, dtype=complex)
    u0, sigma, vh = np.linalg.svd(a_prime)
    z = u0.conj().T @ vh.T
    blocks = []
    for group in takagi_groups(sigma):
        if sigma[group.start] <= takagi_tol(sigma):
            blocks.append(np.eye(group.stop - group.start, dtype=complex))
        else:
            zg = z[group, group]
            blocks.append(scipy.linalg.sqrtm(0.5 * (zg + zg.T)).astype(complex))
    return u0 @ scipy.linalg.block_diag(*blocks), sigma


def takagi_tol(sigma):
    """Singular values at or below this count as zero, and ones closer
    than this as equal."""
    return 1e-8 * (sigma[0] if len(sigma) else 0.0) + 1e-14


def takagi_groups(sigma) -> list[slice]:
    """Runs of descending singular values, each within the Takagi
    tolerance of its first member."""
    groups, start, tol = [], 0, takagi_tol(sigma)
    while start < len(sigma):
        stop = start + 1
        while stop < len(sigma) and sigma[start] - sigma[stop] <= tol:
            stop += 1
        groups.append(slice(start, stop))
        start = stop
    return groups


def reference_doubles(seed, tag, shot, m):
    """The m doubles of shot `shot` of an m-wide batch: draws shot * m
    onward of PCG64([tag, seed]), from a bit generator advanced there
    alone."""
    bits = np.random.PCG64([tag, seed])
    bits.advance(shot * m)
    return np.random.Generator(bits).random(m).tolist()


def _reference_invert(u, probs, last):
    """The least k <= last with u < probs[0] + ... + probs[k], scanning the
    probabilities in order; probs may be an endless iterator."""
    cdf = 0.0
    for k, p in enumerate(probs):
        cdf += p
        if u < cdf or k == last:
            return k


def _reference_poisson_probs(mean):
    """The Poisson(mean) probabilities k = 0, 1, ..., each from the last."""
    p, k = math.exp(-mean), 0
    while True:
        yield p
        k += 1
        p = p * mean / k


def reference_gbs(e, shots, cutoff_total, cutoff_per_mode, seed) -> list:
    """gbs shots inverted from one uniform each, shot i's from
    reference_doubles(seed, 0, i, 1), with a scan of the cumulative law."""
    dist = enumerate_distribution(e, cutoff_total, cutoff_per_mode)
    cum = np.cumsum(dist.probs / dist.mass)
    cum[-1] = 1.0
    rows = dist.lattice.counts.tolist()
    out = []
    for i in range(shots):
        [u] = reference_doubles(seed, 0, i, 1)
        out.append(rows[next(j for j, c in enumerate(cum) if c > u)])
    return out


def reference_uniform(n_modes, k, shots, seed) -> list:
    """Uniform k-subsets, shot i from reference_doubles(seed, 1, i, n): the
    modes of its k smallest doubles, a stable sort breaking ties by mode."""
    out = []
    for i in range(shots):
        u = reference_doubles(seed, 1, i, n_modes)
        picked = sorted(range(n_modes), key=u.__getitem__)[:k]
        out.append([int(v in picked) for v in range(n_modes)])
    return out


def reference_squashed(e, shots, seed) -> list:
    """Squashed-state shots, shot i from reference_doubles(seed, 2, i,
    2h + n): with h = ceil(n/2), doubles 0..h-1 are Box-Muller radii and
    h..2h-1 angles; mode j < h takes the cosine normal of pair j, mode
    j >= h the sine normal of pair j - h. The interferometer sums U_ab a_b
    mode by mode, and double 2h + a inverts the Poisson law of mode a."""
    n, h = e.n, (e.n + 1) // 2
    std = [math.sqrt((math.exp(2.0 * r) - 1.0) / 4.0) for r in e.squeezings]
    out = []
    for i in range(shots):
        u = reference_doubles(seed, 2, i, 2 * h + n)
        normal = []
        for j in range(n):
            pair = j % h
            radius = math.sqrt(-2.0 * math.log1p(-u[pair]))
            turn = (math.cos if j < h else math.sin)(2.0 * math.pi * u[h + pair])
            normal.append(radius * turn)
        row = []
        for a in range(n):
            beta = sum(complex(e.u[a, b]) * (normal[b] * std[b]) for b in range(n))
            mean = abs(beta) ** 2
            row.append(_reference_invert(
                u[2 * h + a], _reference_poisson_probs(mean), COUNT_BUDGET))
        out.append(row)
    return out


def reference_batch_loss(rows, eta, seed) -> list:
    """Batch loss drawn count by count: shot i takes its doubles from
    reference_doubles(seed, 3, i, n), one per mode, and a count c loses
    the k that double selects by a scan of the binomial(c, 1 - eta) CDF."""
    out = []
    for i, p in enumerate(rows):
        u = reference_doubles(seed, 3, i, len(p))
        out.append([c - _reference_invert(v, [
            math.comb(c, k) * eta ** (c - k) * (1 - eta) ** k
            for k in range(c + 1)], c) for c, v in zip(p, u)])
    return out


def reference_click_groups(rows):
    """Click subsets pattern by pattern: the distinct 0/1 tuples sorted, the
    first row of each, and for each row the index of its tuple."""
    clicks = [tuple(1 if c > 0 else 0 for c in p) for p in rows]
    distinct = sorted(set(clicks))
    first = [clicks.index(s) for s in distinct]
    return distinct, first, [distinct.index(s) for s in clicks]


def reference_conditional(weighted, total, collision_policy):
    """Conditioning over (tuple pattern, weight) pairs, pattern by pattern:
    a batch passes Counter(patterns).items(), a law its (pattern,
    probability) entries. None where no weight is left at the total."""
    acc = {}
    for p, w in weighted:
        if w == 0 or sum(p) != total:
            continue
        if collision_policy == "threshold_collapse":
            p = tuple(1 if c > 0 else 0 for c in p)
        elif any(c > 1 for c in p):
            continue
        acc[p] = acc.get(p, 0.0) + w
    norm = sum(acc.values())
    if norm <= 0.0:
        return None
    return {p: acc[p] / norm for p in sorted(acc)}


def reference_edges(g):
    """Yield (i, j, w_ij) with i < j for every present edge, pair by pair."""
    iu, ju = np.triu_indices(g.n, k=1)
    for i, j in zip(iu, ju):
        w = g.weights[i, j]
        if w != 0:
            yield int(i), int(j), complex(w)


def reference_save_graph(g, *, provenance=None) -> bytes:
    """The graph document through json.dumps(indent=1)."""
    edges = [
        {"i": i, "j": j, "re": w.real, "im": w.imag} for i, j, w in reference_edges(g)
    ]
    doc = {"n": g.n, "edges": edges}
    if provenance is not None:
        doc["provenance"] = provenance
    return json.dumps(doc, indent=1).encode("utf-8")


def reference_save_batch(b, *, provenance=None) -> bytes:
    """The batch file, each line through json.dumps."""
    header = {
        "backend": b.backend,
        "seed": b.seed,
        "eta": b.loss_eta,
        "cutoff_total": b.cutoff_total,
        "cutoff_per_mode": b.cutoff_per_mode,
        "shots": len(b.patterns),
    }
    if provenance is not None:
        header["provenance"] = provenance
    lines = [json.dumps(header)]
    for p in b.patterns.tolist():
        lines.append(json.dumps({"pattern": p, "total": sum(p)}))
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_save_distribution(d, *, provenance=None) -> bytes:
    """The distribution document through json.dumps(indent=1)."""
    doc = {
        "cutoff_total": d.lattice.cutoff_total,
        "cutoff_per_mode": d.lattice.cutoff_per_mode,
        "mass": d.mass,
        "entries": [
            {"pattern": p, "probability": w}
            for p, w in zip(d.lattice.counts.tolist(), d.probs.tolist())
        ],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return json.dumps(doc, indent=1).encode("utf-8")


def reference_cliques_report(report, provenance) -> bytes:
    """The cliques report through json.dumps(indent=1): provenance first,
    one record per success, by descending density and then vertices."""
    found = sorted(report.cliques_found, key=lambda c: (-c.density, c.vertices))
    doc = {
        "provenance": provenance,
        "shots": report.shots_in,
        "successes": len(found),
        "success_rate": report.success_rate,
        "density_histogram": [
            {"density": d, "count": c} for d, c in report.density_histogram.items()
        ],
        "cliques": [{"vertices": list(c.vertices), "density": c.density}
                    for c in found],
    }
    return (json.dumps(doc, indent=1) + "\n").encode()


def criterion_9_commands(tmp_path) -> list[list[str]]:
    """Acceptance criterion 9's commands, one per CLI command, with their
    input graphs written to tmp_path; each writes its own --out file."""
    gpath = tmp_path / "g.json"
    assert cli_main([
        "gen", "--n", "10", "--p", "0.4", "--seed", "7", "--out", str(gpath)
    ]) == 0

    chain = tmp_path / "chain.json"
    chain.write_bytes(save_graph(graded_triangle_chain()))

    encp = tmp_path / "e.json"
    samp = tmp_path / "s.jsonl"
    return [
        ["gen", "--n", "10", "--p", "0.4", "--seed", "7",
         "--out", str(gpath)],
        ["encode", "--graph", str(gpath), "--out", str(encp)],
        ["sample", "--graph", str(gpath), "--backend", "gbs", "--shots",
         "60", "--seed", "1", "--out", str(samp)],
        ["sample", "--graph", str(gpath), "--backend", "uniform", "--k",
         "4", "--shots", "60", "--seed", "1",
         "--out", str(tmp_path / "u.jsonl")],
        ["sample", "--graph", str(gpath), "--backend", "squashed",
         "--shots", "60", "--seed", "1", "--eta", "0.8",
         "--out", str(tmp_path / "sq.jsonl")],
        ["dist", "--graph", str(gpath), "--cutoff-total", "4",
         "--cutoff-per-mode", "4", "--out", str(tmp_path / "d.json")],
        ["cliques", "--graph", str(gpath), "--samples", str(samp),
         "--k", "3", "--out", str(tmp_path / "r.json")],
        ["betti", "--graph", str(gpath), "--dmax", "2", "--k-ref", "3",
         "--delta-axis", "0,0.2,0.4", "--out", str(tmp_path / "b.txt")],
        ["surface", "--graph", str(chain), "--omega-axis", "lin:0.2:1.0:6",
         "--delta-axis", "0,0.4,0.8", "--k-ref", "2",
         "--out", str(tmp_path / "surf.txt")],
        ["persistence", "--graph", str(gpath), "--k", "3",
         "--out", str(tmp_path / "pers.txt")],
        ["percolation", "--graph", str(gpath), "--k", "3",
         "--out", str(tmp_path / "perc.json")],
        ["entropy", "--graph", str(chain), "--k-ref", "3", "--delta-axis",
         "lin:0.4:0.92:6", "--photon-total", "4", "--cutoff-total", "4",
         "--cutoff-per-mode", "4", "--out", str(tmp_path / "ent.txt")],
        ["compare", "--graph", str(chain), "--k", "3", "--shots", "150",
         "--seed", "11", "--out", str(tmp_path / "cmp.json")],
    ]
