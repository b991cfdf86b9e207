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
from typing import Sequence

import numpy as np

from .cliques import CliqueComplex, enumerate_cliques
from .errors import InvariantError
from .graph import (
    ComplexGraph, VertexSet, _density, _pairs_inside, edge_filter,
)

NEG_INF = float("-inf")


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


def density_filtration(
    g: ComplexGraph, k_ref: int, thresholds: Sequence[float]
) -> list[ComplexGraph]:
    """Per threshold delta_t, the network rebuilt from the k_ref-cliques of
    density >= delta_t, on all n vertices.

    The k_ref-cliques come from exhaustive enumeration, and each is scored
    once, whatever the number of thresholds.
    """
    if k_ref < 2:
        raise ValueError("k_ref must be >= 2")
    found = enumerate_cliques(g, k_ref).by_size.get(k_ref, [])
    scored = [(s, _density(g, s)) for s in found]
    return [
        ComplexGraph(g.n, np.where(
            _pairs_inside(g.n, [s for s, d in scored if d >= delta_t], k_ref),
            g.weights, 0,
        ))
        for delta_t in thresholds
    ]


def density_filtered_graph(
    g: ComplexGraph, k_ref: int, delta_t: float
) -> ComplexGraph:
    """density_filtration at the one threshold delta_t."""
    return density_filtration(g, k_ref, [delta_t])[0]


@dataclass(frozen=True)
class SurfaceCell:
    m: dict[int, int]
    chi: int
    s_chi: float

    @property
    def tpt(self) -> bool:
        return self.chi == 0


@dataclass(frozen=True)
class FiltrationSurface:
    """Grid over (omega_t, delta_t) of clique counts and Euler data."""

    omega_axis: tuple[float, ...]
    delta_axis: tuple[float, ...]
    cells: tuple[tuple[SurfaceCell, ...], ...]
    k_ref: int

    def cell(self, i: int, j: int) -> SurfaceCell:
        return self.cells[i][j]


def filtration_surface(
    g: ComplexGraph,
    omega_axis: Sequence[float],
    delta_axis: Sequence[float],
    k_ref: int,
) -> FiltrationSurface:
    """Two-dimensional filtration: cell (i, j) keeps edges with
    |w| <= omega_axis[i], then reconstructs from k_ref-cliques of density
    >= delta_axis[j] and takes the full clique complex."""
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


@dataclass(frozen=True)
class TptReport:
    """Cells where chi vanishes, plus adjacent cell pairs where it
    changes sign (the transition front)."""

    zero_cells: tuple[tuple[int, int], ...]
    sign_fronts: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def tpt_points(s: FiltrationSurface) -> TptReport:
    zeros = []
    fronts = []
    n_i = len(s.omega_axis)
    n_j = len(s.delta_axis)
    for i in range(n_i):
        for j in range(n_j):
            chi = s.cell(i, j).chi
            if chi == 0:
                zeros.append((i, j))
            for di, dj in ((1, 0), (0, 1)):
                i2, j2 = i + di, j + dj
                if i2 < n_i and j2 < n_j:
                    if chi * s.cell(i2, j2).chi < 0:
                        fronts.append(((i, j), (i2, j2)))
    return TptReport(zero_cells=tuple(zeros), sign_fronts=tuple(fronts))


def euler_entropy_path(
    s: FiltrationSurface, path: Sequence[tuple[int, int]]
) -> list[float]:
    """Euler entropy along an ordered list of grid cells."""
    out = []
    for i, j in path:
        if not (0 <= i < len(s.omega_axis) and 0 <= j < len(s.delta_axis)):
            raise ValueError(f"cell ({i}, {j}) outside the grid")
        out.append(s.cell(i, j).s_chi)
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
