"""Independent oracle implementations used only to check the library.

These deliberately avoid the production code paths: the hafnian oracle
enumerates perfect matchings directly, the clique oracles scan all vertex
subsets or close Bron-Kerbosch maximal cliques downward, the persistence
oracle scans every outside vertex for absorbers, the damage oracle zeroes
clique edges pair by pair, the homology oracles do dense GF(2) elimination
on numpy arrays or rebuild a packed-row work list after every pivot,
components come from a hand-rolled union-find, the loss oracle expands
every pattern into its thinned patterns one by one, the clique-search
oracle runs every shot's search anew on np.ix_ submatrices, the sampler
and batch-loss oracles build one generator default_rng([seed, tag, i])
per shot (the loss oracle draws one scalar binomial per count), the
conditioning oracle tallies tuple patterns, the rank-correlation
oracle is scipy.stats.spearmanr, and the file-writer oracles build each
document as Python objects and encode it with json.dumps.
"""

import json
import math
import warnings
from itertools import combinations

import numpy as np
from scipy.stats import ConstantInputWarning, spearmanr

from gbstopo.cliques import Clique, SearchReport, enumerate_cliques
from gbstopo.graph import ComplexGraph, VertexSet, edge_filter
from gbstopo.sampler import enumerate_distribution
from gbstopo.tda import (
    FiltrationSurface, SurfaceCell, density_filtration, euler_characteristic,
    euler_entropy,
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
    rows = []
    for omega_t in omega_axis:
        filtered = edge_filter(g, omega_t)
        row = []
        for rebuilt in density_filtration(filtered, k_ref, delta_axis):
            complex_ = enumerate_cliques(rebuilt, rebuilt.n)
            chi = euler_characteristic(complex_)
            row.append(
                SurfaceCell(m=complex_.counts, chi=chi, s_chi=euler_entropy(chi))
            )
        rows.append(tuple(row))
    return FiltrationSurface(
        omega_axis=omega_axis,
        delta_axis=delta_axis,
        cells=tuple(rows),
        k_ref=k_ref,
    )


def reference_damage(g, node, k):
    """g without the edges inside its k-cliques that hold `node`, zeroed
    pair by pair; the cliques come from brute force."""
    w = np.array(g.weights)
    for s in brute_force_cliques(g, k)[k]:
        if node in s:
            for i, j in combinations(s, 2):
                w[i, j] = w[j, i] = 0
    return ComplexGraph(g.n, w)


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


def reference_stream(seed, tag, shot):
    """The PCG64 (state, inc) of shot `shot` and its first double, from a
    generator built for that shot alone."""
    rng = np.random.default_rng([seed, tag, shot])
    st = rng.bit_generator.state["state"]
    return st["state"], st["inc"], rng.random()


def reference_gbs(e, shots, cutoff_total, cutoff_per_mode, seed) -> list:
    """gbs shots inverted from one uniform each, drawn from its own
    generator default_rng([seed, 0, i]), with a scan of the cumulative law."""
    dist = enumerate_distribution(e, cutoff_total, cutoff_per_mode)
    cum = np.cumsum(dist.probs / dist.mass)
    cum[-1] = 1.0
    rows = dist.lattice.counts.tolist()
    out = []
    for i in range(shots):
        u = np.random.default_rng([seed, 0, i]).random()
        out.append(rows[next(j for j, c in enumerate(cum) if c > u)])
    return out


def reference_uniform(n_modes, k, shots, seed) -> list:
    """Uniform k-subsets, shot i from default_rng([seed, 1, i])."""
    out = []
    for i in range(shots):
        picked = np.random.default_rng([seed, 1, i]).choice(
            n_modes, size=k, replace=False)
        out.append([int(v in picked) for v in range(n_modes)])
    return out


def reference_squashed(e, shots, seed) -> list:
    """Squashed-state shots, shot i from default_rng([seed, 2, i]): normal
    amplitudes, the interferometer, then Poisson counts."""
    std = np.sqrt((np.exp(2.0 * e.squeezings) - 1.0) / 4.0)
    out = []
    for i in range(shots):
        rng = np.random.default_rng([seed, 2, i])
        beta = e.u @ (rng.normal(0.0, 1.0, size=e.n) * std)
        out.append(rng.poisson(np.abs(beta) ** 2).tolist())
    return out


def reference_batch_loss(rows, eta, seed) -> list:
    """Batch loss drawn count by count: shot i thins mode after mode with
    scalar binomial draws from its own stream default_rng([seed, 3, i])."""
    out = []
    for i, p in enumerate(rows):
        rng = np.random.default_rng([seed, 3, i])
        out.append([int(rng.binomial(c, eta)) for c in p])
    return out


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
