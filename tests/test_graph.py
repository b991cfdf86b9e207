import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbstopo.errors import FormatError
from gbstopo.graph import (
    MAX_VERTICES,
    ComplexGraph,
    _row_masks,
    clique_density,
    edge_filter,
    graph_from_edges,
    is_clique,
    load_graph,
    random_dual_layer,
    save_graph,
)
from helpers import has_edge, relabel


def doc(n, edges):
    return json.dumps({"n": n, "edges": edges}).encode()


class TestLoadGraph:
    def test_single_edge_is_mirrored(self):
        g = load_graph(doc(3, [{"i": 0, "j": 1, "re": 1, "im": 0}]))
        assert g.weights[0, 1] == 1
        assert g.weights[1, 0] == 1
        assert np.count_nonzero(g.weights) == 2

    def test_edgeless(self):
        g = load_graph(doc(2, []))
        assert g.n == 2
        assert g.num_edges() == 0

    def test_diagonal_rejected(self):
        with pytest.raises(FormatError):
            load_graph(doc(4, [{"i": 1, "j": 1, "re": 0.5, "im": 0}]))

    def test_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            load_graph(doc(3, [{"i": 0, "j": 5, "re": 1, "im": 0}]))

    def test_duplicate_rejected(self):
        e = [{"i": 0, "j": 1, "re": 1, "im": 0}] * 2
        with pytest.raises(FormatError):
            load_graph(doc(3, e))

    def test_zero_weight_rejected(self):
        with pytest.raises(FormatError):
            load_graph(doc(3, [{"i": 0, "j": 1, "re": 0, "im": 0}]))

    def test_unordered_pair_rejected(self):
        with pytest.raises(FormatError):
            load_graph(doc(3, [{"i": 2, "j": 1, "re": 1, "im": 0}]))

    def test_not_json(self):
        with pytest.raises(FormatError):
            load_graph(b"not json {")

    @pytest.mark.parametrize("n, edges", [
        (3, 5), (3, {"i": 0, "j": 1}), (True, []), (2.0, []),
    ], ids=["edges-int", "edges-dict", "n-bool", "n-float"])
    def test_bad_field_types_rejected(self, n, edges):
        with pytest.raises(FormatError):
            load_graph(doc(n, edges))

    @pytest.mark.parametrize("i, j", [
        (0.9, 1.7), (0, 1.0), (False, True), (0, "1"),
    ], ids=["fractions", "integral-float", "bools", "string"])
    def test_non_integer_edge_indices_rejected(self, i, j):
        with pytest.raises(FormatError, match="edge indices must be integers"):
            load_graph(doc(3, [{"i": i, "j": j, "re": 1, "im": 0}]))

    @pytest.mark.parametrize("re_, im", [
        (float("nan"), 0.0), (float("inf"), 0.0), (1.0, float("-inf")),
        ("nan", 0.0),
    ], ids=["nan", "inf", "minus-inf-imag", "nan-string"])
    def test_non_finite_weight_rejected(self, re_, im):
        d = json.dumps({"n": 3, "edges": [
            {"i": 0, "j": 2, "re": 0.5, "im": 0},
            {"i": 1, "j": 2, "re": re_, "im": im},
        ]}).encode()
        with pytest.raises(FormatError, match=r"edge \(1,2\).*non-finite"):
            load_graph(d)

    @pytest.mark.parametrize("re_, im", [
        ("0.5", 0), (0.5, True), (10**400, 0), (0.5, None),
    ], ids=["string", "bool", "int-beyond-float", "null"])
    def test_weight_must_be_a_json_number(self, re_, im):
        d = json.dumps({"n": 3, "edges": [
            {"i": 0, "j": 2, "re": 0.5, "im": 0},
            {"i": 1, "j": 2, "re": re_, "im": im},
        ]}).encode()
        with pytest.raises(FormatError, match=r"edge \(1,2\).*non-finite"):
            load_graph(d)

    # Found by tests/test_loader_fuzz.py: numpy's ValueError escaped. The
    # vertex cap now refuses each n before anything is allocated.
    @pytest.mark.parametrize("n", [2**63 - 1, 10**30])
    def test_vertex_count_beyond_an_array_rejected(self, n):
        with pytest.raises(FormatError, match=f"vertex count {n} is too large"):
            load_graph(doc(n, []))

    # A small document must not ask for gigabytes: 4097 vertices would be a
    # 268 MB matrix, 50,000 a 40 GB one.
    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 50_000])
    def test_vertex_count_above_cap_rejected(self, n):
        with pytest.raises(FormatError, match=(
            f"vertex count {n} is too large: at most {MAX_VERTICES}"
        )):
            load_graph(doc(n, []))


class TestSaveGraph:
    def test_round_trip_simple(self):
        g = load_graph(doc(3, [{"i": 0, "j": 1, "re": 1, "im": 0}]))
        g2 = load_graph(save_graph(g))
        assert np.array_equal(g.weights, g2.weights)

    def test_edgeless_serializes_empty(self):
        g = ComplexGraph(2, np.zeros((2, 2), dtype=complex))
        assert json.loads(save_graph(g))["edges"] == []

    def test_field_mapping(self):
        g = graph_from_edges(2, [(0, 1, 0.3 - 0.2j)])
        rec = json.loads(save_graph(g))["edges"][0]
        assert rec == {"i": 0, "j": 1, "re": 0.3, "im": -0.2}

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random(self, seed):
        g = random_dual_layer(8, 0.5, seed=seed)
        g2 = load_graph(save_graph(g))
        assert np.array_equal(g.weights, g2.weights)


class TestRandomDualLayer:
    def test_p_zero_is_edgeless(self):
        assert random_dual_layer(5, 0.0, seed=1).num_edges() == 0

    def test_p_one_degenerate_law(self):
        g = random_dual_layer(5, 1.0, ((1, 1), (1, 1)), seed=1)
        assert g.num_edges() == 10
        off = g.weights[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 1 + 1j)

    def test_deterministic(self):
        a = random_dual_layer(10, 0.3, seed=123)
        b = random_dual_layer(10, 0.3, seed=123)
        assert np.array_equal(a.weights, b.weights)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            random_dual_layer(5, 1.5, seed=0)

    def test_edge_count_concentrates(self):
        # 100 seeds at n=30, p=0.4: total edges ~ Binomial(100*435, 0.4).
        total = sum(
            random_dual_layer(30, 0.4, seed=s).num_edges() for s in range(100)
        )
        mean = 100 * 435 * 0.4
        sigma = np.sqrt(100 * 435 * 0.4 * 0.6)
        assert abs(total - mean) < 3 * sigma

    @pytest.mark.parametrize("law", [((-1e308, 1e308), (0, 0)),
                                     ((0, 1), (1e308, -1e308))])
    def test_refuses_range_wider_than_a_float(self, law):
        with pytest.raises(ValueError, match="wider than a float"):
            random_dual_layer(5, 0.5, law)

    def test_refuses_above_vertex_cap(self):
        with pytest.raises(ValueError, match=f"at most {MAX_VERTICES}"):
            random_dual_layer(MAX_VERTICES + 1, 0.5)

    def test_refuses_overflowing_weight_sum(self):
        with pytest.raises(FormatError, match="weight sum overflows"):
            random_dual_layer(5, 1.0, ((1e308, 1e308), (0, 0)))


class TestWeightSum:
    """|re| + |im| over both directions of every edge must be a finite
    float: every clique density sums a subset of those entries."""

    @pytest.mark.parametrize("re, im", [(1e308, 0), (0, -1e308), (6e307, 6e307)])
    def test_load_refuses_overflow(self, re, im):
        with pytest.raises(FormatError, match="weight sum overflows"):
            load_graph(doc(2, [{"i": 0, "j": 1, "re": re, "im": im}]))

    def test_load_refuses_overflow_spread_over_edges(self):
        edges = [{"i": 0, "j": j, "re": 5e307, "im": 0} for j in (1, 2)]
        with pytest.raises(FormatError, match="weight sum overflows"):
            load_graph(doc(3, edges))

    def test_sum_just_below_the_top_loads(self):
        g = load_graph(doc(2, [{"i": 0, "j": 1, "re": 4e307, "im": -4e307}]))
        assert clique_density(g, [0, 1]) == pytest.approx(abs(4e307 - 4e307j))

    def test_constructor_does_not_check(self):
        # The check runs where a graph enters, not on every construction.
        w = np.array([[0, 1e308], [1e308, 0]], dtype=complex)
        assert ComplexGraph(2, w).num_edges() == 1


class TestCliqueDensity:
    def test_unit_triangle(self):
        g = graph_from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert clique_density(g, (0, 1, 2)) == pytest.approx(1.0)

    def test_imaginary_triangle(self):
        g = graph_from_edges(3, [(0, 1, 1j), (0, 2, 1j), (1, 2, 1j)])
        assert clique_density(g, (0, 1, 2)) == pytest.approx(1.0)

    def test_sign_cancellation(self):
        g = graph_from_edges(3, [(0, 1, 1), (0, 2, -1), (1, 2, 1)])
        assert clique_density(g, (0, 1, 2)) == pytest.approx(1 / 3)

    def test_requires_two_vertices(self):
        g = random_dual_layer(4, 1.0, seed=0)
        with pytest.raises(ValueError):
            clique_density(g, (1,))

    def test_non_clique_allowed(self):
        g = graph_from_edges(3, [(0, 1, 1)])
        assert clique_density(g, (0, 1, 2)) == pytest.approx(2 / 6)

    @given(st.integers(0, 1000), st.floats(0, 2 * np.pi))
    @settings(max_examples=30, deadline=None)
    def test_global_phase_invariance(self, seed, theta):
        g = random_dual_layer(6, 0.7, seed=seed)
        rotated = ComplexGraph(6, g.weights * np.exp(1j * theta))
        s = (0, 2, 4, 5)
        assert clique_density(g, s) == pytest.approx(
            clique_density(rotated, s), abs=1e-12
        )


class TestEdgeFilter:
    def fixture(self):
        return graph_from_edges(4, [(0, 1, 0.2), (1, 2, 0.5j), (2, 3, -0.9)])

    def test_keep_leq_zero_empties(self):
        assert edge_filter(self.fixture(), 0.0).num_edges() == 0

    def test_keep_leq_max_keeps_all(self):
        g = self.fixture()
        assert edge_filter(g, 0.9).num_edges() == 3

    def test_keep_leq_selects(self):
        g = edge_filter(self.fixture(), 0.5)
        assert has_edge(g, 0, 1) and has_edge(g, 1, 2)
        assert not has_edge(g, 2, 3)

    def test_composition_is_min(self):
        g = random_dual_layer(10, 0.6, seed=5)
        a = edge_filter(edge_filter(g, 0.8), 0.4)
        b = edge_filter(g, 0.4)
        assert np.array_equal(a.weights, b.weights)

    def test_vertex_count_unchanged(self):
        assert edge_filter(self.fixture(), 0.1).n == 4


class TestIsClique:
    def test_triangle(self):
        g = graph_from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert is_clique(g, (0, 1, 2))

    def test_path_is_not(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert not is_clique(g, (0, 1, 2))

    def test_singleton_and_empty(self):
        g = graph_from_edges(4, [(0, 1, 1)])
        assert is_clique(g, (3,))
        assert is_clique(g, ())

    @pytest.mark.parametrize("s, bad", [((-1, 0), -1), ((0, 7), 7), ((5,), 5)])
    def test_out_of_range_vertex_rejected(self, s, bad):
        g = graph_from_edges(5, [(0, 1, 1), (0, 4, 1)])
        msg = f"vertex {bad} out of range for n=5"
        for fn in (is_clique, clique_density):
            with pytest.raises(ValueError, match=msg):
                fn(g, s)


class TestRelabel:
    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_density_commutes_with_permutation(self, seed):
        rng = np.random.default_rng(seed)
        g = random_dual_layer(7, 0.6, seed=seed)
        perm = list(rng.permutation(7))
        h = relabel(g, perm)
        s = (0, 3, 5)
        mapped = tuple(sorted(perm[v] for v in s))
        assert is_clique(g, s) == is_clique(h, mapped)
        if is_clique(g, s):
            assert clique_density(g, s) == pytest.approx(
                clique_density(h, mapped)
            )

    def test_invalid_perm(self):
        g = random_dual_layer(4, 0.5, seed=0)
        with pytest.raises(ValueError):
            relabel(g, [0, 0, 1, 2])


class TestInvariants:
    def test_constructor_rejects_asymmetric(self):
        w = np.zeros((3, 3), dtype=complex)
        w[0, 1] = 1.0
        with pytest.raises(ValueError):
            ComplexGraph(3, w)

    def test_constructor_rejects_nonzero_diagonal(self):
        w = np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            ComplexGraph(3, w)

    def test_weights_frozen(self):
        g = random_dual_layer(4, 0.5, seed=1)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0


class TestRowMasks:
    def test_bit_v_for_column_v_across_bytes(self):
        rows = np.zeros((3, 17), dtype=bool)
        rows[0, [0, 2]] = True
        rows[2, [7, 8, 16]] = True
        assert _row_masks(rows) == [0b101, 0, 1 << 7 | 1 << 8 | 1 << 16]

    def test_no_rows_and_no_columns(self):
        assert _row_masks(np.zeros((0, 5), dtype=bool)) == []
        assert _row_masks(np.zeros((2, 0), dtype=bool)) == [0, 0]
