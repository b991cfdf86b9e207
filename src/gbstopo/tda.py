"""Topology of clique complexes: boundary matrices over GF(2), Betti
numbers, Euler characteristic and entropy, two-dimensional filtration
surfaces with transition detection, and clique persistence tracking.

Indexing bridge: clique sizes k = 1, 2, 3, ... (vertices, edges,
triangles) map to topological dimensions d = k - 1. Counts m_k are stored
by clique size; Betti numbers are reported by dimension as
beta_d = m_{d+1} - r_{d+1} - r_{d+2} with r_1 := 0, where r_k is the
GF(2) rank of the incidence of (k-1)-cliques in k-cliques.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .cliques import CliqueComplex, enumerate_cliques
from .errors import BudgetError, InvariantError
from .graph import (
    ComplexGraph, VertexSet, _density, _pair_ids, _pairs_inside, edge_filter,
)

NEG_INF = float("-inf")
# Bits of one boundary matrix, rows x columns: 2^32 bits are 512 MiB of row ints.
BOUNDARY_BITS = 2**32
# Clique counts of one chi surface, len(omega) x len(delta) x n: 2^25 int64
# are 256 MiB.
SURFACE_COUNTS = 2**25


@dataclass(frozen=True)
class BoundaryMatrix:
    """Incidence of (k-1)-cliques (rows) in k-cliques (columns).

    Each row is stored as an integer bitmask over the column index (bit j
    set when column clique j holds the row clique), so gf2_rank reduces
    the rows by XOR. A size with no cliques gives a matrix with no
    columns, whose rows are all 0 and whose rank is 0.
    """

    k: int
    row_cliques: tuple[VertexSet, ...]
    col_cliques: tuple[VertexSet, ...]
    rows: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_cliques), len(self.col_cliques))


def boundary_matrix(c: CliqueComplex, k: int) -> BoundaryMatrix:
    """Build B_k with deterministic lexicographic row/column order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if (bits := c.m(k - 1) * c.m(k)) > BOUNDARY_BITS:  # before any row is built
        raise BudgetError(f"B_{k} of shape {c.m(k - 1)} x {c.m(k)} exceeds the "
                          f"budget of {BOUNDARY_BITS} bits", bits, BOUNDARY_BITS)
    row_cliques = tuple(sorted(c.by_size.get(k - 1, [])))
    col_cliques = tuple(sorted(c.by_size.get(k, [])))
    row_index = {s: i for i, s in enumerate(row_cliques)}
    rows = [0] * len(row_cliques)
    for j, col in enumerate(col_cliques):
        for facet in combinations(col, k - 1):
            i = row_index.get(facet)
            if i is None:
                raise InvariantError(
                    f"complex is not downward closed: {facet} missing"
                )
            rows[i] |= 1 << j
    return BoundaryMatrix(
        k=k, row_cliques=row_cliques, col_cliques=col_cliques, rows=tuple(rows)
    )


def _rank_bits(rows: Sequence[int]) -> int:
    """GF(2) rank by pivot-table reduction: pivots maps a highest set bit
    (as bit_length) to the one reduced row that owns it."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r and (top := r.bit_length()) in pivots:
            r ^= pivots[top]
        if r:
            pivots[top] = r
    return len(pivots)


def gf2_rank(b: BoundaryMatrix) -> int:
    return _rank_bits(b.rows)


@dataclass(frozen=True)
class BettiProfile:
    """Betti numbers indexed by dimension, with the ranks that produced
    them (indexed by clique size)."""

    betti: tuple[int, ...]
    ranks: dict[int, int]


def betti_numbers(c: CliqueComplex, dmax: int) -> BettiProfile:
    """Betti numbers beta_0..beta_dmax from binary ranks of the boundary
    matrices."""
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    top_needed = dmax + 2
    # Through an empty size, or through its vertex count, c is complete.
    if c.k_max < min(top_needed, c.m(1)) and c.m(c.k_max) > 0:
        raise ValueError(
            f"complex enumerated through size {c.k_max} cannot support "
            f"dmax={dmax}; need sizes through {top_needed}"
        )
    ranks: dict[int, int] = {1: 0}
    for k in range(2, top_needed + 1):
        ranks[k] = gf2_rank(boundary_matrix(c, k))
    betti = []
    for d in range(dmax + 1):
        beta = c.m(d + 1) - ranks[d + 1] - ranks[d + 2]
        if beta < 0:
            raise InvariantError(f"negative Betti number at dimension {d}")
        betti.append(beta)
    return BettiProfile(betti=tuple(betti), ranks=ranks)


def euler_characteristic(c: CliqueComplex) -> int:
    """Alternating sum of clique counts, starting at vertices:
    chi = m_1 - m_2 + m_3 - ..."""
    return sum((-1) ** (k - 1) * len(v) for k, v in c.by_size.items())


def euler_entropy(chi: int) -> float:
    """ln|chi|, with -inf at chi = 0 marking a topological transition."""
    if chi == 0:
        return NEG_INF
    return math.log(abs(chi))


def _scored_cliques(g: ComplexGraph, k_ref: int) -> tuple[np.ndarray, np.ndarray]:
    """The k_ref-cliques of g as the rows of an array, and their densities."""
    if k_ref < 2:
        raise ValueError("k_ref must be >= 2")
    found = enumerate_cliques(g, k_ref).by_size.get(k_ref, [])
    refs = np.array(found, dtype=np.intp).reshape(-1, k_ref)
    return refs, np.array([_density(g, s) for s in found], dtype=float)


def _rebuilt(g: ComplexGraph, refs: np.ndarray) -> ComplexGraph:
    """g restricted to the pairs inside the rows of refs, on all n vertices."""
    inside = _pairs_inside(g.n, refs, refs.shape[1])
    return ComplexGraph(g.n, np.where(inside, g.weights, 0))


def density_filtration(
    g: ComplexGraph, k_ref: int, thresholds: Sequence[float]
) -> Iterator[ComplexGraph]:
    """Per threshold delta_t, the network rebuilt from the k_ref-cliques of
    density >= delta_t, on all n vertices.

    The k_ref-cliques come from exhaustive enumeration, and each is scored
    once, at the call, whatever the number of thresholds. The rebuilt graphs
    come one at a time, so only the one in use is held.
    """
    refs, dens = _scored_cliques(g, k_ref)
    return (_rebuilt(g, refs[dens >= delta_t]) for delta_t in thresholds)


def density_filtered_graph(
    g: ComplexGraph, k_ref: int, delta_t: float
) -> ComplexGraph:
    """density_filtration at the one threshold delta_t."""
    return next(density_filtration(g, k_ref, [delta_t]))


@dataclass(frozen=True, eq=False)  # equal only to itself: m and chi are arrays
class FiltrationSurface:
    """Grid over (omega_t, delta_t) of clique counts and Euler data:
    m[i, j, k - 1] is m_k of cell (i, j) and chi[i, j] its Euler
    characteristic, both read-only."""

    omega_axis: tuple[float, ...]
    delta_axis: tuple[float, ...]
    m: np.ndarray
    chi: np.ndarray


def filtration_surface(
    g: ComplexGraph,
    omega_axis: Sequence[float],
    delta_axis: Sequence[float],
    k_ref: int,
) -> FiltrationSurface:
    """Two-dimensional filtration: cell (i, j) keeps edges with
    |w| <= omega_axis[i], then reconstructs from k_ref-cliques of density
    >= delta_axis[j] and takes the full clique complex.

    Cells gain edges along omega and lose them along delta, so only the
    union complex, cell (omega_axis[-1], delta_axis[0]), is enumerated; in
    a row, a clique is present through the first column its edges stop at.
    """
    omega_axis = tuple(float(x) for x in omega_axis)
    delta_axis = tuple(float(x) for x in delta_axis)
    if not omega_axis or not delta_axis:
        raise ValueError("axes must be nonempty")
    if not all(a <= b for axis in (omega_axis, delta_axis)
               for a, b in zip(axis, axis[1:])):  # a NaN is in no order
        raise ValueError("axes must be ascending")
    if omega_axis[0] < 0:
        raise ValueError("threshold must be nonnegative")
    if (counts := len(omega_axis) * len(delta_axis) * g.n) > SURFACE_COUNTS:
        raise BudgetError(f"a {len(omega_axis)} x {len(delta_axis)} surface on "
                          f"{g.n} vertices holds {counts} clique counts, above "
                          f"the budget of {SURFACE_COUNTS}", counts, SURFACE_COUNTS)
    top = edge_filter(g, omega_axis[-1])
    refs, dens = _scored_cliques(top, k_ref)
    last = np.searchsorted(delta_axis, dens, "right") - 1  # -1: in no column
    by_size = enumerate_cliques(_rebuilt(top, refs[last >= 0]), g.n).by_size
    ref_ids = _pair_ids(g.n, refs)
    first = np.searchsorted(omega_axis, top.magnitudes().flat[ref_ids].max(1), "left")
    sizes = [_pair_ids(g.n, np.array(s, dtype=np.int32)) for s in by_size.values() if s]
    m = np.zeros((len(omega_axis), len(delta_axis), g.n), dtype=np.int64)
    pair_last = np.full(g.n * g.n, -1, dtype=np.int32)  # last columns in row i
    for i, row in enumerate(m):  # row[j, k - 1] is m_k of cell (i, j)
        np.maximum.at(pair_last, ref_ids[first == i], last[first == i, None])
        for k, ids in enumerate(sizes):
            # Each clique's last column + 1; a vertex, with no pair, is in all.
            ends = pair_last[ids].min(axis=1, initial=len(row) - 1) + 1
            row[:, k] = np.bincount(ends, minlength=len(row) + 1)[:0:-1].cumsum()[::-1]
    chi = m @ (-1) ** np.arange(g.n)
    m.flags.writeable = chi.flags.writeable = False
    return FiltrationSurface(omega_axis, delta_axis, m, chi)


@dataclass(frozen=True)
class TptReport:
    """Cells where chi vanishes, plus adjacent cell pairs where it
    changes sign (the transition front)."""

    zero_cells: tuple[tuple[int, int], ...]
    sign_fronts: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def tpt_points(s: FiltrationSurface) -> TptReport:
    """Zero cells in row-major order; each cell's front to (i+1, j) comes
    before its front to (i, j+1)."""
    sign = np.sign(s.chi)  # a product of two chi values could overflow
    flips = np.zeros((*sign.shape, 2), dtype=bool)  # [i, j, d]: to (i+1-d, j+d)
    flips[:-1, :, 0] = sign[:-1] * sign[1:] < 0
    flips[:, :-1, 1] = sign[:, :-1] * sign[:, 1:] < 0
    return TptReport(
        zero_cells=tuple(map(tuple, np.argwhere(sign == 0).tolist())),
        sign_fronts=tuple(((i, j), (i + 1 - d, j + d))
                          for i, j, d in np.argwhere(flips).tolist()),
    )


def euler_entropy_path(
    s: FiltrationSurface, path: Sequence[tuple[int, int]]
) -> list[float]:
    """Euler entropy along an ordered list of grid cells."""
    out = []
    for i, j in path:
        if not (0 <= i < len(s.omega_axis) and 0 <= j < len(s.delta_axis)):
            raise ValueError(f"cell ({i}, {j}) outside the grid")
        out.append(euler_entropy(int(s.chi[i, j])))
    return out


@dataclass(frozen=True)
class PersistencePair:
    clique: VertexSet
    birth: float
    death: float


def clique_persistence(g: ComplexGraph, k: int) -> list[PersistencePair]:
    """Birth/death thresholds of each k-clique as omega grows in
    edge_filter(g, omega).

    A clique is born when its heaviest internal edge enters; it dies when
    it stops being maximal, i.e. at the smallest threshold at which some
    outside vertex adjacent to all members has all its connecting edges
    present. Cliques never absorbed die at +inf.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    mags = g.magnitudes()
    pairs = []
    for s in enumerate_cliques(g, k).by_size.get(k, []):
        internal = [mags[i, j] for i, j in combinations(s, 2)]
        birth = max(internal)
        death = math.inf
        for v in g.common_neighbors(s):
            absorbed_at = max(birth, max(mags[v, u] for u in s))
            death = min(death, float(absorbed_at))
        pairs.append(PersistencePair(clique=s, birth=float(birth), death=death))
    return pairs
