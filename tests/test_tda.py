import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbstopo import cliques, tda
from gbstopo.cliques import CliqueComplex, enumerate_cliques
from gbstopo.errors import BudgetError, InvariantError
from gbstopo.graph import (
    MAX_VERTICES,
    clique_density,
    edge_filter,
    graph_from_edges,
    random_dual_layer,
)
from gbstopo.instances import surface_axes, two_community_graph
from gbstopo.percolation import damage
from gbstopo.tda import (
    BoundaryMatrix,
    FiltrationSurface,
    betti_numbers,
    boundary_matrix,
    clique_persistence,
    density_filtered_graph,
    density_filtration,
    euler_characteristic,
    euler_entropy,
    euler_entropy_path,
    filtration_surface,
    gf2_rank,
    tpt_points,
)
from helpers import (
    betti_via_dense_ranks,
    brute_force_cliques,
    clique_counts,
    closure_of_maximal_cliques,
    connected_components,
    dense_gf2_rank,
    max_nonempty_size,
    reference_clique_density,
    reference_clique_persistence,
    reference_damage,
    reference_density_filter,
    reference_betti_rows,
    reference_filtration_surface,
    reference_rank_bits,
    reference_tpt_points,
    relabel,
    to_dense,
)

# Edgeless, sparse, dense and complete random_dual_layer graphs.
EDGE_PROBS = (0.0, 0.3, 0.6, 0.9, 1.0)


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def complete(n):
    return graph_from_edges(
        n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    )


def octahedron():
    non_edges = {(0, 1), (2, 3), (4, 5)}
    edges = [
        (i, j, 1.0)
        for i in range(6)
        for j in range(i + 1, 6)
        if (i, j) not in non_edges
    ]
    return graph_from_edges(6, edges)


def two_triangles():
    return graph_from_edges(
        6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
    )


@st.composite
def small_graphs(draw):
    """Unit-weight graphs on 1 to 10 vertices, each pair an edge or not."""
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs),
                            max_size=len(pairs)))
    return graph_from_edges(
        n, [(i, j, 1.0) for (i, j), keep in zip(pairs, present) if keep]
    )


@st.composite
def bit_rows(draw):
    """(width, rows): up to 50 packed GF(2) rows of one width in [0, 200],
    dense or with at most 3 set bits, with zero rows and repeats."""
    width = draw(st.integers(0, 200))
    if width == 0:
        row = st.just(0)
    else:
        row = st.one_of(
            st.integers(0, (1 << width) - 1),
            st.sets(st.integers(0, width - 1), max_size=3).map(
                lambda bits: sum(1 << b for b in bits)
            ),
        )
    rows = draw(st.lists(row, max_size=40))
    if rows:
        rows = draw(st.permutations(
            rows + draw(st.lists(st.sampled_from(rows), max_size=10))
        ))
    return width, rows


class TestBoundaryMatrix:
    def test_single_triangle(self):
        c = enumerate_cliques(complete(3), 3)
        b = boundary_matrix(c, 3)
        assert b.shape == (3, 1)
        assert np.array_equal(to_dense(b), [[1], [1], [1]])

    def test_c4_incidence(self):
        c = enumerate_cliques(cycle(4), 2)
        b = boundary_matrix(c, 2)
        dense = to_dense(b)
        assert dense.shape == (4, 4)
        assert np.all(dense.sum(axis=0) == 2)

    def test_no_k_cliques_gives_zero_columns(self):
        c = enumerate_cliques(cycle(4), 4)
        b = boundary_matrix(c, 3)
        assert b.shape == (4, 0)

    def test_column_has_k_ones(self):
        g = random_dual_layer(8, 0.6, seed=2)
        c = enumerate_cliques(g, 4)
        for k in (2, 3, 4):
            dense = to_dense(boundary_matrix(c, k))
            if dense.size:
                assert np.all(dense.sum(axis=0) == k)

    def test_over_bit_budget_refused_before_building(self, monkeypatch):
        c = enumerate_cliques(complete(4), 4)  # B_2 and B_3 are 24 bits
        monkeypatch.setattr(tda, "BOUNDARY_BITS", 24)
        assert boundary_matrix(c, 2).shape == (4, 6)
        monkeypatch.setattr(tda, "BOUNDARY_BITS", 23)
        with pytest.raises(BudgetError, match=r"B_3 of shape 6 x 4 exceeds") as exc:
            boundary_matrix(c, 3)
        assert (exc.value.required, exc.value.budget) == (24, 23)
        assert boundary_matrix(c, 4).shape == (4, 1)


class TestGf2Rank:
    def test_zero_matrix(self):
        c = enumerate_cliques(cycle(4), 4)
        assert gf2_rank(boundary_matrix(c, 3)) == 0

    def test_c4_incidence_rank(self):
        c = enumerate_cliques(cycle(4), 2)
        assert gf2_rank(boundary_matrix(c, 2)) == 3

    def test_matches_dense_oracle(self):
        g = random_dual_layer(9, 0.55, seed=8)
        c = enumerate_cliques(g, 4)
        for k in (2, 3, 4):
            b = boundary_matrix(c, k)
            assert gf2_rank(b) == dense_gf2_rank(to_dense(b))

    def test_incidence_rank_is_n_minus_components(self):
        for seed in range(5):
            g = random_dual_layer(10, 0.25, seed=seed)
            c = enumerate_cliques(g, 2)
            rank = gf2_rank(boundary_matrix(c, 2))
            comps = connected_components(
                10, [(i, j) for i, j, _ in g.edges()]
            )
            assert rank == 10 - comps

    @settings(max_examples=200, deadline=None)
    @given(bit_rows())
    @example((0, []))
    @example((0, [0, 0, 0]))
    @example((200, [(1 << 200) - 1, 1 << 199, (1 << 200) - 1, 1]))
    @example((3, [0b011, 0b110, 0b101, 0, 0b011] * 8))
    def test_matches_reference_and_dense_oracles(self, drawn):
        width, rows = drawn
        # Placeholder cliques: gf2_rank reads only the rows, and the shape
        # only the clique counts.
        b = BoundaryMatrix(
            k=2,
            row_cliques=tuple((i,) for i in range(len(rows))),
            col_cliques=tuple((j,) for j in range(width)),
            rows=tuple(rows),
        )
        rank = gf2_rank(b)
        assert rank == reference_rank_bits(rows)
        assert rank == dense_gf2_rank(to_dense(b))


class TestBettiNumbers:
    def test_c4_loop(self):
        prof = betti_numbers(enumerate_cliques(cycle(4), 3), 1)
        assert prof.betti == (1, 1)

    def test_two_filled_triangles(self):
        prof = betti_numbers(enumerate_cliques(two_triangles(), 4), 1)
        assert prof.betti == (2, 0)

    def test_octahedron_sphere(self):
        prof = betti_numbers(enumerate_cliques(octahedron(), 5), 2)
        assert prof.betti == (1, 0, 1)

    def test_beta0_counts_components(self):
        for seed in range(6):
            g = random_dual_layer(9, 0.2, seed=seed)
            prof = betti_numbers(enumerate_cliques(g, 3), 0)
            comps = connected_components(9, [(i, j) for i, j, _ in g.edges()])
            assert prof.betti[0] == comps

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs())
    @example(g=random_dual_layer(9, 0.45, seed=100))
    @example(g=octahedron())
    @example(g=complete(10))
    def test_matches_dense_oracle(self, g):
        cc = enumerate_cliques(g, g.n + 1)
        top = max_nonempty_size(cc)
        prof = betti_numbers(cc, max(top - 1, 0))
        want = betti_via_dense_ranks(cc.by_size)
        got = tuple(prof.betti)
        assert got[: len(want)] == want
        assert all(b == 0 for b in got[len(want):])

    def test_sizes_without_cliques_have_rank_zero(self):
        # C5 has no triangle, so B_3, B_4 and B_5 have no columns.
        prof = betti_numbers(enumerate_cliques(cycle(5), 6), 3)
        assert prof.ranks == {1: 0, 2: 4, 3: 0, 4: 0, 5: 0}
        assert prof.betti == (1, 1, 0, 0)

    def test_complete_through_vertex_count(self):
        # No 5-clique fits in 4 vertices, so K4 through size 4 is complete.
        prof = betti_numbers(enumerate_cliques(complete(4), 4), 3)
        assert prof.ranks == {1: 0, 2: 3, 3: 3, 4: 1, 5: 0}
        assert prof.betti == (1, 0, 0, 0)

    def test_rejects_shallow_enumeration(self):
        cc = enumerate_cliques(complete(6), 3)
        with pytest.raises(ValueError):
            betti_numbers(cc, 2)

    def test_rejects_non_closed(self):
        broken = CliqueComplex(
            by_size={1: [(0,), (1,), (2,)], 2: [], 3: [(0, 1, 2)]}, k_max=3
        )
        with pytest.raises(InvariantError):
            betti_numbers(broken, 1)

    def test_invariant_under_relabeling(self):
        g = random_dual_layer(9, 0.4, seed=55)
        perm = [4, 7, 0, 8, 2, 6, 1, 3, 5]
        prof_g = betti_numbers(enumerate_cliques(g, 5), 2)
        prof_h = betti_numbers(enumerate_cliques(relabel(g, perm), 5), 2)
        assert prof_g.betti == prof_h.betti
        assert prof_g.ranks == prof_h.ranks


class TestEulerCharacteristic:
    def test_c4(self):
        assert euler_characteristic(enumerate_cliques(cycle(4), 4)) == 0

    def test_k4_contractible(self):
        assert euler_characteristic(enumerate_cliques(complete(4), 4)) == 1

    def test_octahedron(self):
        assert euler_characteristic(enumerate_cliques(octahedron(), 6)) == 2

    def test_euler_poincare_identity(self):
        for seed in range(10):
            g = random_dual_layer(10, 0.4, seed=200 + seed)
            cc = enumerate_cliques(g, 10)
            top = max_nonempty_size(cc)
            prof = betti_numbers(cc, max(top - 1, 0))
            lhs = sum((-1) ** d * b for d, b in enumerate(prof.betti))
            assert lhs == euler_characteristic(cc)

    def test_boundary_of_boundary_vanishes(self):
        for seed in range(6):
            g = random_dual_layer(9, 0.5, seed=300 + seed)
            cc = enumerate_cliques(g, 9)
            top = max_nonempty_size(cc)
            for k in range(2, top):
                bk = to_dense(boundary_matrix(cc, k))
                bk1 = to_dense(boundary_matrix(cc, k + 1))
                if bk.size and bk1.size:
                    assert not np.any((bk @ bk1) % 2)


class TestEulerEntropy:
    def test_chi_one_is_zero(self):
        assert euler_entropy(1) == 0.0

    def test_magnitude(self):
        assert euler_entropy(-3) == pytest.approx(math.log(3))

    def test_zero_is_negative_infinity(self):
        assert euler_entropy(0) == float("-inf")


class TestDensityFilter:
    def two_blocks(self):
        # dense aligned K5 on 0..4, weak sign-mixed K5 on 5..9
        edges = []
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((i, j, 0.9))
        signs = [1, -1, 1, -1, 1, -1, 1, -1, 1, 1]
        for idx, (i, j) in enumerate(
            (i, j) for i in range(5, 10) for j in range(i + 1, 10)
        ):
            edges.append((i, j, 0.3 * signs[idx]))
        return graph_from_edges(10, edges)

    def test_zero_threshold_keeps_union(self):
        g = self.two_blocks()
        rebuilt = density_filtered_graph(g, 5, 0.0)
        assert rebuilt.num_edges() == 20

    def test_above_max_gives_empty(self):
        g = self.two_blocks()
        cc = enumerate_cliques(density_filtered_graph(g, 5, 2.0), g.n)
        assert cc.m(1) == 10
        assert all(cc.m(k) == 0 for k in range(2, 6))

    def test_selects_dense_block(self):
        g = self.two_blocks()
        rebuilt = density_filtered_graph(g, 5, 0.5)
        kept = {(i, j) for i, j, _ in rebuilt.edges()}
        assert kept == {(i, j) for i in range(5) for j in range(i + 1, 5)}


class TestDensityFiltration:
    @given(n=st.integers(1, 10), p=st.sampled_from(EDGE_PROBS),
           seed=st.integers(0, 10_000), k_ref=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_filter(self, n, p, seed, k_ref):
        g = random_dual_layer(n, p, seed=seed)
        refs = brute_force_cliques(g, k_ref)[k_ref]
        # Thresholds equal to clique densities probe the >= boundary.
        dens = sorted({reference_clique_density(g, s) for s in refs})
        thresholds = [0.0, *dens, 2.0]
        got = list(density_filtration(g, k_ref, thresholds))
        assert len(got) == len(thresholds)
        for delta_t, rebuilt in zip(thresholds, got):
            want = reference_density_filter(g, k_ref, delta_t)
            assert np.array_equal(rebuilt.weights, want.weights)
            one = density_filtered_graph(g, k_ref, delta_t)
            assert np.array_equal(one.weights, want.weights)

    def test_m_and_chi_are_read_only_arrays(self):
        surf = filtration_surface(two_community_graph(), [0.3, 1.0], [0.0, 0.5, 0.9], 2)
        assert surf.m.shape == (2, 3, 20) and surf.chi.shape == (2, 3)
        for a in (surf.m, surf.chi):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1

    def test_k_ref_below_two_rejected(self):
        with pytest.raises(ValueError, match="k_ref must be >= 2"):
            density_filtration(complete(4), 1, [0.0])

    def test_threshold_graphs_built_one_at_a_time(self):
        """2,000 thresholds on a 100-vertex graph: every rebuilt graph held
        at once peaks near 314 MiB, one at a time below 8 MiB."""
        g = random_dual_layer(100, 0.05, seed=1)
        thresholds = np.linspace(0.0, 1.0, 2000)
        tracemalloc.start()
        try:
            rebuilt = density_filtration(g, 2, thresholds)
            assert sum(1 for _ in rebuilt) == 2000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestBettiRows:
    """betti_rows reduces the complex at the smallest threshold once; each
    row must equal the per-row path it replaced, reference_betti_rows."""

    @given(data=st.data(), n=st.integers(1, 12), p=st.sampled_from(EDGE_PROBS),
           seed=st.integers(0, 10_000), k_ref=st.sampled_from([None, 2, 3]),
           dmax=st.integers(0, 3))
    @example(data=None, n=12, p=1.0, seed=0, k_ref=None, dmax=3)
    @example(data=None, n=12, p=0.9, seed=1, k_ref=3, dmax=3)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_reference(self, data, n, p, seed, k_ref, dmax):
        g = random_dual_layer(n, p, seed=seed)
        # Thresholds equal to a k_ref-clique density probe the >= boundary,
        # 2.0 is above every density, and the axis is drawn unsorted, with
        # repeats.
        k = k_ref or 2
        dens = [clique_density(g, s) for s in brute_force_cliques(g, k)[k]]
        values = st.sampled_from([0.0, 2.0, *dens]) | st.floats(-0.2, 1.6)
        thresholds = (
            [2.0, *dens[::-1], 0.0, *dens[:2], 2.0] if data is None else
            data.draw(st.lists(values, min_size=1, max_size=6), label="axis")
        )
        got = tda.betti_rows(g, dmax, k_ref, thresholds)
        assert got.tolist() == reference_betti_rows(g, dmax, k_ref, thresholds)

    def test_community_rows(self):
        """The surface_community workload's filtered op, 10 thresholds."""
        g = two_community_graph(seed=5)
        thresholds = np.linspace(0.0, 0.9, 10).tolist()
        got = tda.betti_rows(g, 3, 3, thresholds)
        assert got.shape == (10, 5 + 4 + 4 + 1)
        assert got.tolist() == reference_betti_rows(g, 3, 3, thresholds)

    def test_above_every_density_leaves_the_vertices(self):
        g = complete(5)
        (row,) = tda.betti_rows(g, 1, 3, [9.0]).tolist()
        assert row == [5, 0, 0, 0, 0, 5, 0, 5]  # m_1..m_3, r_2, r_3, beta, chi

    def test_negative_dmax_rejected(self):
        with pytest.raises(ValueError, match="dmax must be >= 0"):
            tda.betti_rows(complete(3), -1, None, [0.0])


class TestEdgeMask:
    """Every filtered network comes from one boolean edge mask; each is
    checked against a pair-by-pair reference."""

    @given(n=st.integers(1, 9), p=st.sampled_from(EDGE_PROBS),
           seed=st.integers(0, 10_000), k=st.integers(2, 4),
           node=st.integers(0, 8), cut=st.integers(0, 40))
    @example(n=7, p=0.0, seed=0, k=2, node=3, cut=0)
    @example(n=7, p=1.0, seed=0, k=4, node=3, cut=10)
    @settings(max_examples=60, deadline=None)
    def test_filters_match_pair_references(self, n, p, seed, k, node, cut):
        g = random_dual_layer(n, p, seed=seed)
        node %= n
        # |w| is g.magnitudes(): numpy's array abs can differ from the
        # scalar abs in the last place.
        mags = g.magnitudes()
        # 0, every edge magnitude (the <= boundary) and one above them all.
        cuts = [0.0, *sorted(set(mags.ravel().tolist())), 2.0]
        omega = cuts[cut % len(cuts)]

        want = np.zeros_like(g.weights)
        for i in range(n):
            for j in range(n):
                if 0 < mags[i, j] <= omega:
                    want[i, j] = g.weights[i, j]
        assert np.array_equal(edge_filter(g, omega).weights, want)

        dens = sorted({reference_clique_density(g, s)
                       for s in brute_force_cliques(g, k)[k]})
        thresholds = [0.0, *dens, 2.0]
        for delta_t, rebuilt in zip(thresholds, density_filtration(g, k, thresholds)):
            want = reference_density_filter(g, k, delta_t)
            assert np.array_equal(rebuilt.weights, want.weights)

        want = reference_damage(g, node, k)
        assert np.array_equal(damage(g, node, k).weights, want.weights)


def counts_at(surf, i, j) -> dict[int, int]:
    """Clique counts of cell (i, j) by size, as helpers.clique_counts gives
    them for a complex."""
    return dict(enumerate(surf.m[i, j].tolist(), 1))


class TestFiltrationSurface:
    def test_single_cell_equals_direct_analysis(self):
        g = two_community_graph()
        top = float(np.max(g.magnitudes()))
        surf = filtration_surface(g, [top], [0.0], k_ref=2)
        direct = enumerate_cliques(g, g.n)
        assert surf.chi[0, 0] == euler_characteristic(direct)
        assert counts_at(surf, 0, 0) == clique_counts(direct)

    def test_edgeless_row_chi_is_n(self):
        g = two_community_graph()
        surf = filtration_surface(g, [0.0], [0.0], k_ref=2)
        assert surf.chi[0, 0] == 20
        assert surf.m[0, 0, 0] == 20

    def test_m2_monotone_along_omega_at_zero_delta(self):
        g = two_community_graph()
        omega, _ = surface_axes()
        surf = filtration_surface(g, omega, [0.0], k_ref=2)
        m2 = surf.m[:, 0, 1].tolist()
        assert all(a <= b for a, b in zip(m2, m2[1:]))

    def test_axes_must_ascend(self):
        g = two_community_graph()
        with pytest.raises(ValueError):
            filtration_surface(g, [0.5, 0.1], [0.0], 2)

    def test_cells_match_per_cell_recomputation(self):
        import networkx as nx

        g = two_community_graph()
        omega = [0.2, 0.4, 0.8, 1.0]
        delta = [0.0, 0.3, 0.7]
        surf = filtration_surface(g, omega, delta, k_ref=2)
        mags = g.magnitudes()
        for i, wt in enumerate(omega):
            for j, dt in enumerate(delta):
                keep = (mags > 0) & (mags <= wt) & (mags >= dt)
                gx = nx.Graph()
                gx.add_nodes_from(range(20))
                gx.add_edges_from(
                    (a, b)
                    for a in range(20)
                    for b in range(a + 1, 20)
                    if keep[a, b]
                )
                counts = {}
                for cl in nx.enumerate_all_cliques(gx):
                    counts[len(cl)] = counts.get(len(cl), 0) + 1
                chi = sum(
                    (-1) ** (k - 1) * m for k, m in counts.items()
                )
                assert surf.chi[i, j] == chi
                for k, m in counts.items():
                    assert surf.m[i, j, k - 1] == m


    def test_m_and_chi_are_read_only_arrays(self):
        surf = filtration_surface(two_community_graph(), [0.3, 1.0], [0.0, 0.5, 0.9], 2)
        assert surf.m.shape == (2, 3, 20) and surf.chi.shape == (2, 3)
        for a in (surf.m, surf.chi):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1

    def test_k_ref_below_two_rejected(self):
        with pytest.raises(ValueError, match="k_ref must be >= 2"):
            filtration_surface(two_community_graph(), [0.5], [0.0], 1)

    @given(n=st.integers(1, 16), p=st.sampled_from(EDGE_PROBS),
           seed=st.integers(0, 10_000), k_ref=st.integers(2, 4))
    @example(n=16, p=0.0, seed=0, k_ref=2)
    @example(n=16, p=1.0, seed=0, k_ref=2)
    @settings(max_examples=40, deadline=None)
    def test_cells_equal_per_cell_density_filter_complex(
        self, n, p, seed, k_ref
    ):
        g = random_dual_layer(n, p, seed=seed)
        present = g.magnitudes()[g.weights != 0]
        mid = float(np.median(present)) if present.size else 0.0
        omega = [0.0, mid, float(g.magnitudes().max())]
        # Thresholds equal to clique densities probe the >= boundary.
        refs = closure_of_maximal_cliques(g, k_ref)[k_ref]
        dens = sorted(clique_density(g, s) for s in refs)
        delta = sorted({0.0, 0.3, *dens[len(dens) // 2:][:1], *dens[-1:]})
        surf = filtration_surface(g, omega, delta, k_ref)
        for i, wt in enumerate(omega):
            for j, dt in enumerate(delta):
                filtered = edge_filter(g, wt)
                c = enumerate_cliques(
                    density_filtered_graph(filtered, k_ref, dt), n
                )
                chi = euler_characteristic(c)
                assert counts_at(surf, i, j) == clique_counts(c)
                assert surf.chi[i, j] == chi
                assert euler_entropy_path(surf, [(i, j)]) == [euler_entropy(chi)]

    @given(data=st.data(), n=st.integers(1, 12), p=st.sampled_from(EDGE_PROBS),
           seed=st.integers(0, 10_000), k_ref=st.integers(2, 5))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_cell_reference(self, data, n, p, seed, k_ref):
        g = random_dual_layer(n, p, seed=seed)
        # Thresholds equal to an edge magnitude or a k_ref-clique density
        # probe the <= and >= boundaries; repeated values give equal rows.
        mags = g.magnitudes()[np.triu(g.weights, 1) != 0].tolist()
        dens = [clique_density(g, s) for s in brute_force_cliques(g, k_ref)[k_ref]]
        omega = data.draw(st.lists(
            st.sampled_from([0.0, *mags]) | st.floats(0.0, 1.6),
            min_size=1, max_size=5,
        ).map(sorted), label="omega")
        delta = data.draw(st.lists(
            st.sampled_from([0.0, *dens, *mags]) | st.floats(-0.2, 1.6),
            min_size=1, max_size=5,
        ).map(sorted), label="delta")
        got = filtration_surface(g, omega, delta, k_ref)
        want = reference_filtration_surface(g, omega, delta, k_ref)
        assert (got.omega_axis, got.delta_axis) == (want.omega_axis, want.delta_axis)
        assert np.array_equal(got.m, want.m) and np.array_equal(got.chi, want.chi)
        cells = list(np.ndindex(len(omega), len(delta)))
        assert euler_entropy_path(got, cells) == euler_entropy_path(want, cells)

    # On this graph the k_ref = 3 enumeration counts 66 cliques and the
    # union complex 95: budgets below, at and between both.
    @pytest.mark.parametrize("budget", [1, 40, 65, 66, 80, 94, 95])
    def test_budget_error_matches_reference(self, monkeypatch, budget):
        monkeypatch.setattr(cliques, "CLIQUE_BUDGET", budget)
        g = random_dual_layer(8, 0.8, seed=3)

        def outcome(surface):
            try:
                return surface(g, [0.5, 1.0, 1.5], [0.0, 0.3], 3)
            except BudgetError as exc:
                return exc.required, exc.budget

        got, want = outcome(filtration_surface), outcome(reference_filtration_surface)
        if budget < 95:
            assert got == want == (budget + 1, budget)
        else:
            assert (got.omega_axis, got.delta_axis) == (want.omega_axis, want.delta_axis)
            assert np.array_equal(got.m, want.m) and np.array_equal(got.chi, want.chi)

    def test_axis_holding_nan_rejected(self):
        # The union complex reads the last omega; a NaN there would empty it.
        for omega, delta in (([0.5, math.nan], [0.0]), ([0.5], [math.nan, 0.3])):
            with pytest.raises(ValueError, match="axes must be ascending"):
                filtration_surface(two_community_graph(), omega, delta, 2)

    def test_over_count_budget_refused_before_filtering(self, monkeypatch):
        assert 20 * 20 * MAX_VERTICES <= tda.SURFACE_COUNTS
        g = two_community_graph()  # 20 vertices: 2 x 3 cells hold 120 counts
        monkeypatch.setattr(tda, "SURFACE_COUNTS", 120)
        assert filtration_surface(g, [0.3, 1.0], [0.0, 0.5, 0.9], 2).m.size == 120

        def refused(*args, **kwargs):
            raise AssertionError("an oversized surface reached the filtration")

        monkeypatch.setattr(tda, "SURFACE_COUNTS", 119)
        monkeypatch.setattr(tda, "edge_filter", refused)
        monkeypatch.setattr(tda, "enumerate_cliques", refused)
        with pytest.raises(BudgetError, match=r"a 2 x 3 surface on 20 vertices "
                           r"holds 120 clique counts, above the budget of 119$"
                           ) as exc:
            filtration_surface(g, [0.3, 1.0], [0.0, 0.5, 0.9], 2)
        assert (exc.value.required, exc.value.budget) == (120, 119)

    def test_negative_omega_anywhere_rejected(self):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            filtration_surface(two_community_graph(), [-0.1, 0.5], [0.0], 1)


class TestTptDetection:
    @staticmethod
    def surface_of(chi):
        """A surface whose cells hold the Euler characteristics chi."""
        chi = np.array(chi, dtype=np.int64)
        rows, cols = chi.shape
        m = np.zeros((rows, cols, 1), dtype=np.int64)
        return FiltrationSurface(
            tuple(map(float, range(rows))), tuple(map(float, range(cols))), m, chi,
        )

    # Small values give zeros and sign flips along both axes; the large
    # ones have products beyond int64.
    @given(chi=st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-2, 2) | st.integers(-2**62, 2**62),
                     min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0])))
    @example(chi=[[0]])
    @example(chi=[[1, -1, 0, 2, -3]])
    @example(chi=[[2], [0], [-1], [4], [-2**62]])
    @example(chi=[[1, -1], [-1, 1]])
    @example(chi=[[2**62, -2**62], [-2**62, 3]])
    @settings(max_examples=200, deadline=None)
    def test_matches_per_cell_reference(self, chi):
        surf = self.surface_of(chi)
        assert tpt_points(surf) == reference_tpt_points(surf)

    def test_constant_surface_has_no_points(self):
        g = complete(4)
        surf = filtration_surface(g, [2.0], [0.0], k_ref=2)
        rep = tpt_points(surf)
        assert not rep.zero_cells and not rep.sign_fronts

    def test_two_community_fixture_has_zero_cells_and_fronts(self):
        g = two_community_graph()
        omega, delta = surface_axes()
        surf = filtration_surface(g, omega, delta, k_ref=2)
        rep = tpt_points(surf)
        assert rep.zero_cells
        assert rep.sign_fronts
        for (i1, j1), (i2, j2) in rep.sign_fronts:
            assert int(surf.chi[i1, j1]) * int(surf.chi[i2, j2]) < 0

    def test_path_sentinels_match_zero_cells(self):
        g = two_community_graph()
        omega, delta = surface_axes()
        surf = filtration_surface(g, omega, delta, k_ref=2)
        path = [(i, 0) for i in range(len(omega))]
        entropies = euler_entropy_path(surf, path)
        sentinel_at = [i for i, v in enumerate(entropies) if v == float("-inf")]
        zero_at = np.flatnonzero(surf.chi[:, 0] == 0).tolist()
        assert sentinel_at == zero_at
        assert sentinel_at

    @given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_path_reads_each_cell_entropy(self, data, rows, cols):
        chi = data.draw(st.lists(st.integers(-3, 3), min_size=rows * cols,
                                 max_size=rows * cols), label="chi")
        surf = self.surface_of(np.reshape(chi, (rows, cols)))
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        path = data.draw(st.lists(cell, max_size=8), label="path")
        assert euler_entropy_path(surf, path) == [
            euler_entropy(int(surf.chi[i, j])) for i, j in path
        ]
        # One cell off the grid, on either axis and on either side.
        off = data.draw(st.sampled_from(
            [(-1, 0), (rows, 0), (0, -1), (0, cols), (rows, cols)]
        ), label="off")
        at = data.draw(st.integers(0, len(path)), label="at")
        with pytest.raises(ValueError, match="outside the grid"):
            euler_entropy_path(surf, [*path[:at], off, *path[at:]])

    def test_out_of_grid_path_rejected(self):
        g = complete(4)
        surf = filtration_surface(g, [2.0], [0.0], k_ref=2)
        with pytest.raises(ValueError):
            euler_entropy_path(surf, [(1, 0)])


class TestCliquePersistence:
    def test_lone_triangle(self):
        g = graph_from_edges(3, [(0, 1, 0.2), (1, 2, 0.5), (0, 2, 0.9)])
        pairs = clique_persistence(g, 3)
        assert len(pairs) == 1
        assert pairs[0].birth == pytest.approx(0.9)
        assert pairs[0].death == math.inf

    def test_absorption_into_k4(self):
        g = graph_from_edges(
            4,
            [(0, 1, 0.2), (1, 2, 0.5), (0, 2, 0.9),
             (0, 3, 0.95), (1, 3, 0.96), (2, 3, 0.97)],
        )
        by_clique = {p.clique: p for p in clique_persistence(g, 3)}
        assert by_clique[(0, 1, 2)].death == pytest.approx(0.97)
        assert by_clique[(0, 1, 2)].birth == pytest.approx(0.9)

    @given(st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_birth_never_exceeds_death(self, seed):
        g = random_dual_layer(8, 0.5, seed=seed)
        for p in clique_persistence(g, 3):
            assert p.birth <= p.death

    @given(n=st.integers(1, 16), p=st.sampled_from(EDGE_PROBS),
           seed=st.integers(0, 10_000), k=st.integers(2, 4))
    @example(n=16, p=0.0, seed=0, k=3)
    @example(n=16, p=1.0, seed=0, k=3)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop(self, n, p, seed, k):
        g = random_dual_layer(n, p, seed=seed)
        pairs = clique_persistence(g, k)
        got = [(q.clique, q.birth, q.death) for q in pairs]
        assert got == reference_clique_persistence(g, k)
        assert all(type(q.birth) is type(q.death) is float for q in pairs)

    def test_relabel_consistency(self):
        g = random_dual_layer(7, 0.6, seed=17)
        perm = [2, 4, 0, 6, 1, 5, 3]
        h = relabel(g, perm)
        pg = {
            tuple(sorted(perm[v] for v in p.clique)): (p.birth, p.death)
            for p in clique_persistence(g, 3)
        }
        ph = {p.clique: (p.birth, p.death) for p in clique_persistence(h, 3)}
        assert pg == ph
