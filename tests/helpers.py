"""Independent oracle implementations used only to check the library.

These deliberately avoid the production code paths: the hafnian oracle
enumerates perfect matchings directly, the clique oracle scans all vertex
subsets, the homology oracle does dense GF(2) elimination on numpy
arrays, components come from a hand-rolled union-find, and the loss
oracle expands every pattern into its thinned patterns one by one.
"""

import math
from itertools import combinations

import numpy as np


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
