import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbstopo import percolation
from gbstopo.cliques import enumerate_cliques
from gbstopo.encoding import encode
from gbstopo.graph import edge_filter, graph_from_edges, random_dual_layer
from gbstopo.instances import graded_triangle_chain
from gbstopo.percolation import (
    SweepConfig,
    curve_correlation,
    damage,
    percolation_clusters,
    percolation_entropy_sweep,
    renyi_entropy,
)
from gbstopo.sampler import (
    conditional_from_distribution,
    conditional_pattern_histogram,
    enumerate_distribution,
    sample_gbs,
)
from gbstopo.tda import density_filtration
from helpers import brute_force_cliques, has_edge, scipy_spearman


class TestPercolationClusters:
    def test_shared_edge_percolates(self):
        g = graph_from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
        )
        rep = percolation_clusters(g, 3)
        assert rep.phi == pytest.approx(1.0)
        assert rep.clusters == ((0, 1, 2, 3),)

    def test_disjoint_triangles(self):
        g = graph_from_edges(
            6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
        )
        rep = percolation_clusters(g, 3)
        assert rep.phi == pytest.approx(0.5)
        assert rep.clusters == ((0, 1, 2), (3, 4, 5))

    def test_no_cliques(self):
        g = graph_from_edges(4, [(0, 1, 1.0)])
        rep = percolation_clusters(g, 3)
        assert rep.phi == 0.0
        assert rep.largest_nodes == 0

    def test_matches_networkx_communities(self):
        nx = pytest.importorskip("networkx")
        for seed in range(8):
            g = random_dual_layer(25, 0.25, seed=seed)
            rep = percolation_clusters(g, 3)
            gx = nx.Graph()
            gx.add_nodes_from(range(25))
            gx.add_edges_from((i, j) for i, j, _ in g.edges())
            comms = list(nx.algorithms.community.k_clique_communities(gx, 3))
            want = 0.0
            if comms:
                want = max(len(c) for c in comms) / 25
            assert rep.phi == pytest.approx(want)

    @given(n=st.integers(1, 12), p=st.sampled_from((0.0, 0.3, 0.6, 1.0)),
           seed=st.integers(0, 10_000), k=st.sampled_from((2, 3, 4)))
    @example(n=12, p=0.0, seed=0, k=2)
    @example(n=12, p=1.0, seed=0, k=4)
    @settings(max_examples=80, deadline=None)
    def test_clusters_match_networkx_communities(self, n, p, seed, k):
        nx = pytest.importorskip("networkx")
        g = random_dual_layer(n, p, seed=seed)
        gx = nx.Graph()
        gx.add_nodes_from(range(n))
        gx.add_edges_from((i, j) for i, j, _ in g.edges())
        comms = nx.algorithms.community.k_clique_communities(gx, k)
        want = sorted(
            (tuple(sorted(c)) for c in comms), key=lambda t: (-len(t), t)
        )
        rep = percolation_clusters(g, k)
        assert rep.clusters == tuple(want)
        largest = len(want[0]) if want else 0
        assert rep.largest_nodes == largest
        assert rep.phi == largest / n

    def test_phi_monotone_under_edge_removal(self):
        g = random_dual_layer(30, 0.3, seed=11)
        mags = sorted(m for m in np.unique(np.abs(g.weights)) if m > 0)
        thresholds = [mags[-1], mags[len(mags) // 2], mags[len(mags) // 4]]
        phis = [
            percolation_clusters(edge_filter(g, t), 3).phi
            for t in thresholds
        ]
        assert all(a >= b for a, b in zip(phis, phis[1:]))

    def test_cluster_nodes_belong_to_cliques(self):
        g = random_dual_layer(15, 0.35, seed=9)
        rep = percolation_clusters(g, 3)
        tris = enumerate_cliques(g, 3).by_size[3]
        covered = set()
        for t in tris:
            covered.update(t)
        for cluster in rep.clusters:
            assert set(cluster) <= covered


class TestDamage:
    def test_node_in_no_clique_is_noop(self):
        g = graph_from_edges(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0)])
        damaged = damage(g, 0, 4)
        assert np.array_equal(damaged.weights, g.weights)

    def test_k4_loses_all_six_edges(self):
        g = graph_from_edges(
            5,
            [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
            + [(3, 4, 1.0)],
        )
        damaged = damage(g, 0, 4)
        assert damaged.num_edges() == 1
        assert has_edge(damaged, 3, 4)

    def test_matches_brute_force_union(self):
        g = random_dual_layer(10, 0.5, seed=13)
        damaged = damage(g, 1, 4)
        hit = set()
        for s in brute_force_cliques(g, 4)[4]:
            if 1 in s:
                from itertools import combinations

                hit.update(combinations(s, 2))
        for i in range(10):
            for j in range(i + 1, 10):
                if (i, j) in hit:
                    assert not has_edge(damaged, i, j)
                else:
                    assert has_edge(damaged, i, j) == has_edge(g, i, j)


class TestRenyiEntropy:
    def test_uniform_four_outcomes(self):
        p = [0.25] * 4
        for alpha in (0.5, 1.0, 2.0, 5.0):
            assert renyi_entropy(p, alpha) == pytest.approx(math.log(4))

    def test_point_mass(self):
        assert renyi_entropy([1.0], 2.0) == pytest.approx(0.0)

    def test_two_point_collision_entropy(self):
        assert renyi_entropy([0.5, 0.5], 2.0) == pytest.approx(math.log(2))

    def test_shannon_limit(self):
        p = [0.7, 0.2, 0.1]
        want = -sum(x * math.log(x) for x in p)
        assert renyi_entropy(p, 1.0) == pytest.approx(want)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy([0.5, 0.6], 2.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            renyi_entropy([1.0], 0.0)

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_decreasing_in_alpha(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(6))
        p = p / p.sum()
        h1 = renyi_entropy(p, 0.5)
        h2 = renyi_entropy(p, 2.0)
        h3 = renyi_entropy(p, 4.0)
        assert h1 >= h2 - 1e-12 >= h3 - 2e-12

    def test_permutation_invariant(self):
        p = [0.5, 0.3, 0.2]
        assert renyi_entropy(p, 2.0) == pytest.approx(
            renyi_entropy(p[::-1], 2.0)
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1e308, 1.7e308])
    def test_huge_alpha_reaches_min_entropy(self, alpha):
        # alpha * ln(pmax) overflows here; alpha / (1 - alpha) is -1.
        assert renyi_entropy([0.1] * 10, alpha) == pytest.approx(math.log(10))
        h = renyi_entropy([0.5, 0.25, 0.25], alpha)
        assert h == pytest.approx(math.log(2))

    @pytest.mark.filterwarnings("error")
    def test_underflowing_power_sum_stays_finite(self):
        # 0.1**400 and 0.5**2000 round to 0; the entropy does not.
        assert renyi_entropy([0.1] * 10, 400.0) == pytest.approx(math.log(10))
        h = renyi_entropy([0.5, 0.25, 0.25], 2000.0)
        assert h == pytest.approx(2000 * math.log(2) / 1999)


class TestSweepNormalization:
    """h_norm is h_alpha over the entropy ceiling over collision-free
    patterns, ln C(n, photon_total), on the sweep's own results."""

    def sweep(self, g, photon_total=2):
        cfg = SweepConfig(
            k_ref=2, alpha=2.0, photon_total=photon_total,
            collision_policy="collision_free_only",
            cutoff_total=2, cutoff_per_mode=2,
        )
        return percolation_entropy_sweep(g, [0.0], cfg)

    def test_uniform_over_all_patterns_is_one(self):
        # Every pair of K4 carries the same hafnian: all C(4, 2) patterns
        # are equally likely.
        pairs = combinations(range(4), 2)
        g = graph_from_edges(4, [(i, j, 1.0) for i, j in pairs])
        assert self.sweep(g).h_norm[0] == pytest.approx(1.0)

    def test_point_mass_is_zero(self):
        assert self.sweep(graph_from_edges(4, [(0, 1, 1.0)])).h_norm == (0.0,)

    def test_two_pattern_value(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        want = math.log(2) / math.log(6)
        assert self.sweep(g).h_norm[0] == pytest.approx(want)

    @pytest.mark.parametrize("backend", ["exact", "gbs"])
    @pytest.mark.parametrize("photon_total", [2, 4])
    def test_h_norm_is_h_alpha_over_log_ceiling(self, backend, photon_total):
        g = graded_triangle_chain()
        cfg = SweepConfig(
            k_ref=3, alpha=2.0, photon_total=photon_total, backend=backend,
            shots=400, cutoff_total=4, cutoff_per_mode=4,
        )
        sweep = percolation_entropy_sweep(g, np.linspace(0.4, 0.92, 14), cfg)
        ceiling = math.log(math.comb(g.n, photon_total))
        assert sweep.h_norm == tuple(h / ceiling for h in sweep.h_alpha)
        assert sweep.h_alpha[0] > 0.0 and sweep.h_alpha[-1] == 0.0

    def test_h_alpha_is_each_threshold_law_entropy(self):
        g = graded_triangle_chain()
        thresholds = np.linspace(0.4, 0.92, 14)
        cfg = SweepConfig(k_ref=3, alpha=2.0, photon_total=4,
                          cutoff_total=4, cutoff_per_mode=4)
        sweep = percolation_entropy_sweep(g, thresholds, cfg)
        want = []
        for f in density_filtration(g, 3, thresholds):
            if f.num_edges() == 0:
                want.append(0.0)
                continue
            law = enumerate_distribution(encode(f, 0.7), 4, 4)
            hist = conditional_from_distribution(law, 4, "threshold_collapse")
            want.append(renyi_entropy(hist, 2.0))
        assert sweep.h_alpha == tuple(want)

    # C(10, 0) = C(10, 10) = 1 and C(10, 11) = 0, which only the squashed
    # backend can reach; C(1, 1) = 1 on a single vertex.
    @pytest.mark.parametrize("n,photon_total,backend", [
        (10, 0, "exact"), (10, 10, "exact"), (10, 11, "squashed"),
        (1, 1, "exact"),
    ])
    def test_undefined_normalization_raises_before_any_work(
        self, monkeypatch, n, photon_total, backend
    ):
        def refused(*args, **kwargs):
            raise AssertionError("the sweep worked before its ceiling check")

        monkeypatch.setattr(percolation, "density_filtration", refused)
        monkeypatch.setattr(percolation, "encode", refused)
        g = graded_triangle_chain() if n == 10 else graph_from_edges(1, [])
        cfg = SweepConfig(k_ref=3, alpha=2.0, photon_total=photon_total,
                          backend=backend, cutoff_total=10, cutoff_per_mode=2)
        ceiling = math.comb(n, photon_total)
        with pytest.raises(ValueError, match=(
            rf"^normalization undefined: C\({n},{photon_total}\) = {ceiling}$"
        )):
            percolation_entropy_sweep(g, [0.4, 0.6], cfg)


# Few distinct values force ties; free floats add nan, inf and wide ranges.
CURVE_VALUES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan]), st.floats()
)
CURVE_PAIRS = st.integers(3, 30).flatmap(lambda n: st.tuples(
    st.lists(CURVE_VALUES, min_size=n, max_size=n),
    st.lists(CURVE_VALUES, min_size=n, max_size=n),
))


class TestCurveCorrelation:
    def test_identical(self):
        assert curve_correlation([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert curve_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_partial(self):
        assert curve_correlation([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            curve_correlation([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ValueError):
            curve_correlation([1, 2], [1, 2])

    @given(CURVE_PAIRS)
    @example(([0.5, 0.5, 0.5], [1.0, 2.0, 3.0]))
    @example(([3.0, 1.0, 2.0], [0.0, 0.0, 0.0]))
    @example(([1.0, 2.0, math.nan], [1.0, 2.0, 3.0]))
    @example(([1.0, 1.0, 2.0, 2.0, 0.0], [4.0, 3.0, 3.0, 1.0, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_spearman(self, curves):
        a, b = curves
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # constant curves warn in scipy
            got = curve_correlation(a, b)
        want = scipy_spearman(a, b)
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestEntropyConvergence:
    def test_empirical_matches_exact_at_large_shots(self):
        g = graded_triangle_chain()
        enc = encode(g, 0.7)
        dist = enumerate_distribution(enc, 4, 4)
        exact_hist = conditional_from_distribution(dist, 2, "threshold_collapse")
        batch = sample_gbs(enc, 100_000, 4, 4, seed=31)
        emp_hist = conditional_pattern_histogram(batch, 2, "threshold_collapse")
        h_exact = renyi_entropy(exact_hist, 2.0)
        h_emp = renyi_entropy(emp_hist, 2.0)
        assert abs(h_exact - h_emp) < 0.02


class TestSweep:
    def cfg(self):
        return SweepConfig(
            k_ref=3, alpha=2.0, photon_total=4,
            target_spectral=0.7, backend="exact",
            cutoff_total=4, cutoff_per_mode=4,
        )

    def test_endpoints(self):
        g = graded_triangle_chain()
        sweep = percolation_entropy_sweep(g, [0.0, 2.0], self.cfg())
        assert sweep.phi[0] == pytest.approx(1.0)
        assert sweep.phi[1] == 0.0
        assert sweep.h_norm[1] == 0.0
        assert sweep.h_norm[0] > 0.5
        assert sweep.h_norm[0] == max(sweep.h_norm)

    def test_phi_and_entropy_track(self):
        g = graded_triangle_chain()
        thresholds = np.linspace(0.40, 0.92, 14)
        sweep = percolation_entropy_sweep(g, thresholds, self.cfg())
        rho = curve_correlation(sweep.phi, sweep.h_norm)
        assert rho >= 0.8

    def test_damage_shifts_both_curves_down(self):
        g = graded_triangle_chain()
        thresholds = np.linspace(0.40, 0.92, 14)
        cfg = self.cfg()
        sweep = percolation_entropy_sweep(g, thresholds, cfg)
        damaged = percolation_entropy_sweep(damage(g, 1, 4), thresholds, cfg)
        dphi = np.array(damaged.phi) - np.array(sweep.phi)
        dent = np.array(damaged.h_norm) - np.array(sweep.h_norm)
        agree = sum(np.sign(a) == np.sign(b) for a, b in zip(dphi, dent))
        assert agree >= 0.8 * len(thresholds)


class TestSweepCollisionPolicy:
    def test_unknown_policy_raises_instead_of_flooring(self):
        # An odd total carries no mass, so only a policy check made before
        # conditioning tells a bad policy apart from the floor value 0.
        cfg = SweepConfig(
            k_ref=3, alpha=2.0, photon_total=3, backend="exact",
            cutoff_total=4, cutoff_per_mode=4, collision_policy="bogus",
        )
        with pytest.raises(ValueError, match="collision policy"):
            percolation_entropy_sweep(graded_triangle_chain(), [0.4], cfg)
