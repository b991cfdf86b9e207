import numpy as np

from gbstopo.cliques import enumerate_cliques
from gbstopo.graph import clique_density
from gbstopo.instances import (
    graded_triangle_chain,
    planted_clique_graph,
    surface_axes,
    two_community_graph,
)


class TestPlantedClique:
    def test_planted_clique_is_unique(self):
        g = planted_clique_graph()
        cc = enumerate_cliques(g, 6)
        assert cc.by_size[5] == [(0, 1, 2, 3, 4)]
        assert cc.by_size[6] == []

    def test_flat_magnitude_profile(self):
        g = planted_clique_graph()
        mags = np.abs(g.weights[np.abs(g.weights) > 0])
        assert mags.min() >= 0.9 and mags.max() <= 1.0

    def test_gauge_alignment_makes_matchings_coherent(self):
        # all three pair-products of the planted 4-subsets share one phase
        g = planted_clique_graph()
        w = g.weights
        for sub in ((0, 1, 2, 3), (0, 1, 2, 4), (1, 2, 3, 4)):
            a, b, c, d = sub
            prods = [w[a, b] * w[c, d], w[a, c] * w[b, d], w[a, d] * w[b, c]]
            phases = np.angle(prods)
            spread = np.max(np.abs(np.exp(1j * phases) - np.exp(1j * phases[0])))
            assert spread < 1e-9

    def test_background_vertices_see_at_most_three_planted(self):
        g = planted_clique_graph()
        for v in range(5, 12):
            spokes = sum(1 for a in range(5) if g.weights[v, a] != 0)
            assert spokes <= 3

    def test_deterministic(self):
        assert np.array_equal(
            planted_clique_graph().weights, planted_clique_graph().weights
        )


class TestTwoCommunity:
    def test_band_structure(self):
        g = two_community_graph()
        mags = np.abs(g.weights)
        bridges = mags[:10, 10:]
        bridge_vals = np.sort(bridges[bridges > 0])
        assert len(bridge_vals) == 41
        assert (bridge_vals[:20] >= 0.16 - 1e-12).all()
        assert (bridge_vals[:20] <= 0.24 + 1e-12).all()
        assert (bridge_vals[20:] >= 0.36 - 1e-12).all()
        assert (bridge_vals[20:] <= 0.44 + 1e-12).all()

    def test_communities_complete(self):
        g = two_community_graph()
        for block in (range(10), range(10, 20)):
            for i in block:
                for j in block:
                    if i < j:
                        assert g.weights[i, j] != 0

    def test_bridge_layer_is_triangle_free(self):
        from gbstopo.graph import edge_filter

        g = two_community_graph()
        bridges_only = edge_filter(g, 0.5)
        cc = enumerate_cliques(bridges_only, 3)
        assert cc.m(3) == 0
        assert cc.m(2) == 41

    def test_grid_hits_the_band_gap(self):
        omega, delta = surface_axes()
        gap = [w for w in omega if 0.24 < w < 0.36]
        assert gap  # at least one column isolates the low bridge band


class TestGradedChain:
    def test_triangle_densities_are_graded(self):
        g = graded_triangle_chain()
        chain = [(i, i + 1, i + 2) for i in range(8)]
        dens = [clique_density(g, t) for t in chain]
        assert all(a > b for a, b in zip(dens, dens[1:]))

    def test_heavy_end_has_a_four_clique(self):
        g = graded_triangle_chain()
        cc = enumerate_cliques(g, 4)
        assert (0, 1, 2, 3) in cc.by_size[4]

    def test_density_range_spans_sweep(self):
        g = graded_triangle_chain()
        cc = enumerate_cliques(g, 3)
        dens = [clique_density(g, t) for t in cc.by_size[3]]
        assert min(dens) < 0.5 and max(dens) > 0.85
