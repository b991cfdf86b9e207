from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbstopo.cliques import (
    Clique,
    binomial_interval,
    enumerate_cliques,
    find_cliques,
    greedy_shrink,
    local_search,
)
import gbstopo.cliques as cliques_mod
from gbstopo.errors import BudgetError
from gbstopo.graph import (
    clique_density,
    graph_from_edges,
    is_clique,
    random_dual_layer,
)
from gbstopo.sampler import SampleBatch
from helpers import (
    brute_force_cliques,
    clique_counts,
    closure_of_maximal_cliques,
    make_clique,
    maximal_cliques,
    reference_clique_density,
    reference_find_cliques,
    reference_is_clique,
    relabel,
)


# Edgeless, sparse, dense and complete random_dual_layer graphs.
EDGE_PROBS = (0.0, 0.3, 0.6, 0.9, 1.0)


def complete(n):
    return graph_from_edges(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


class TestGreedyShrink:
    def test_clique_is_fixed_point(self):
        g = complete(4)
        out = greedy_shrink(g, (0, 1, 2, 3))
        assert out.vertices == (0, 1, 2, 3)

    def test_pendant_removed_first(self):
        edges = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
        edges.append((3, 4, 1.0))
        g = graph_from_edges(5, edges)
        out = greedy_shrink(g, (0, 1, 2, 3, 4))
        assert out.vertices == (0, 1, 2, 3)
        assert out.density == pytest.approx(1.0)

    def test_path_tie_breaks_low_index(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert greedy_shrink(g, (0, 1, 2)).vertices == (1, 2)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            greedy_shrink(complete(3), ())

    @pytest.mark.parametrize("s", [(3,), (0, 5), (-1, 0, 1), (0, 0, 1)])
    def test_bad_vertex_rejected(self, s):
        with pytest.raises(ValueError):
            greedy_shrink(complete(3), s)

    @given(st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_output_is_clique_subset(self, seed):
        g = random_dual_layer(9, 0.4, seed=seed)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        s = tuple(sorted(rng.choice(9, size=k, replace=False).tolist()))
        out = greedy_shrink(g, s)
        assert set(out.vertices) <= set(s)
        assert is_clique(g, out.vertices)


class TestLocalSearch:
    def test_edge_expands_to_k5(self):
        g = complete(5)
        start = make_clique(g, (0, 1))
        out = local_search(g, start, 5)
        assert out is not None and out.vertices == (0, 1, 2, 3, 4)

    def test_swap_fixture(self):
        # only 4-clique is {1,2,3,4}; the seed triangle {0,2,3} needs a swap
        g = graph_from_edges(
            6,
            [
                (0, 2, 1.0), (0, 3, 1.0), (2, 3, 1.0),
                (1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0),
                (2, 4, 1.0), (3, 4, 1.0),
            ],
        )
        assert brute_force_cliques(g, 4)[4] == [(1, 2, 3, 4)]
        start = make_clique(g, (0, 2, 3))
        assert local_search(g, start, 4, max_iters=0) is None
        out = local_search(g, start, 4, max_iters=1)
        assert out is not None and out.vertices == (1, 2, 3, 4)

    def test_oversized_clique_is_trimmed(self):
        g = complete(6)
        out = local_search(g, make_clique(g, range(6)), 4)
        # Every density ties on unit weights, so the lowest indices go first.
        assert out is not None and out.vertices == (2, 3, 4, 5)

    def test_trim_drops_the_vertex_that_lowers_density(self):
        w = {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)}
        w[(0, 3)] = w[(1, 3)] = w[(2, 3)] = -1.0
        g = graph_from_edges(4, [(i, j, x) for (i, j), x in w.items()])
        out = local_search(g, make_clique(g, range(4)), 3)
        assert out.vertices == (0, 1, 2)
        assert out.density == pytest.approx(1.0)

    @pytest.mark.parametrize("vertices", [(0, 7), (-1, 2)])
    def test_out_of_range_clique_rejected(self, vertices):
        bad = Clique(vertices, len(vertices), 0.0)
        with pytest.raises(ValueError):
            local_search(complete(5), bad, 3)

    @pytest.mark.parametrize("target_k", [3, 4])
    def test_non_clique_result_rejected(self, target_k):
        # K4 without edge 0-1: {0,1,2} is not a clique, kept whole at
        # target 3 and grown by the common neighbour 3 at target 4.
        g = graph_from_edges(
            4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)
                if (i, j) != (0, 1)],
        )
        bad = Clique((0, 1, 2), 3, 0.0)
        with pytest.raises(ValueError, match="is not a clique"):
            local_search(g, bad, target_k)

    def test_unreachable_target_fails(self):
        g = complete(4)
        start = make_clique(g, (0, 1))
        assert local_search(g, start, 6, max_iters=10) is None

    def test_success_has_exact_size(self):
        g = random_dual_layer(10, 0.75, seed=4)
        start = greedy_shrink(g, tuple(range(10)))
        out = local_search(g, start, 4, max_iters=20)
        if out is not None:
            assert out.k == 4 and len(out.vertices) == 4
            assert is_clique(g, out.vertices)


class TestFindCliques:
    def test_vacuum_batch_scores_zero(self):
        g = complete(5)
        b = SampleBatch(patterns=((0,) * 5,) * 10, seed=0, backend="x")
        rep = find_cliques(g, b, 3)
        assert rep.success_rate == 0.0
        assert rep.shots_in == 10

    def test_planted_patterns_succeed(self):
        g = complete(6)
        b = SampleBatch(
            patterns=((1, 1, 1, 1, 1, 1), (0, 1, 1, 0, 1, 1)),
            seed=0,
            backend="x",
        )
        rep = find_cliques(g, b, 6)
        assert rep.success_rate == 1.0
        assert all(c.vertices == (0, 1, 2, 3, 4, 5) for c in rep.cliques_found)

    def test_rate_monotone_in_target(self):
        g = random_dual_layer(10, 0.6, seed=77)
        rng = np.random.default_rng(0)
        pats = tuple(
            tuple(int(x) for x in rng.integers(0, 2, 10)) for _ in range(150)
        )
        b = SampleBatch(patterns=pats, seed=0, backend="x")
        rates = [find_cliques(g, b, k, 5).success_rate for k in (2, 3, 4, 5)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_histogram_counts_match(self):
        g = complete(5)
        b = SampleBatch(patterns=((1, 1, 1, 0, 0),) * 4, seed=0, backend="x")
        rep = find_cliques(g, b, 3)
        assert sum(rep.density_histogram.values()) == 4


class TestSearchParameters:
    @pytest.mark.parametrize("k, iters", [(0, 50), (-1, 50), (3, -3)])
    def test_find_cliques_rejects(self, k, iters):
        vacuum = SampleBatch(patterns=((0,) * 5,) * 3, seed=0, backend="x")
        with pytest.raises(ValueError):
            find_cliques(complete(5), vacuum, k, iters)

    @pytest.mark.parametrize("k, iters", [(0, 50), (-1, 50), (3, -3)])
    def test_local_search_rejects(self, k, iters):
        g = complete(5)
        with pytest.raises(ValueError):
            local_search(g, make_clique(g, (0, 1, 2)), k, iters)


class TestSearchAgainstReference:
    """The memoised bitmask search against the shot-by-shot numpy one."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_report_equal_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 15))
        g = random_dual_layer(n, float(rng.uniform(0.3, 0.9)), seed=seed)
        target_k = int(rng.integers(2, 7))
        max_iters = int(rng.choice([0, 1, 50]))
        distinct = [
            tuple(int(x) for x in rng.integers(0, 3, n) * (rng.random(n) < 0.6))
            for _ in range(6)
        ]
        picks = rng.integers(0, len(distinct) + 1, 14)
        pats = tuple(
            distinct[i] if i < len(distinct) else (0,) * n for i in picks
        )
        b = SampleBatch(patterns=pats, seed=0, backend="x")
        got = find_cliques(g, b, target_k, max_iters)
        want = reference_find_cliques(g, b, target_k, max_iters)
        assert got == want
        assert list(got.density_histogram.items()) == list(
            want.density_histogram.items()
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_masks_clique_test_and_density(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 70))
        g = random_dual_layer(n, float(rng.uniform(0.0, 1.0)), seed=seed)
        for v, mask in enumerate(g.neighbor_masks):
            row = [mask >> u & 1 == 1 for u in range(n)]
            assert row == (g.weights[v] != 0).tolist()
            assert mask >> n == 0
        for _ in range(20):
            k = int(rng.integers(0, min(n, 6) + 1))
            s = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            assert is_clique(g, s) == reference_is_clique(g, s)
            if k >= 2:
                assert clique_density(g, s) == reference_clique_density(g, s)


class TestMaskDensityMemo:
    """ComplexGraph._mask_density, the memo the search scores sets with."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equal_to_clique_density(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        g = random_dual_layer(n, float(rng.uniform(0.0, 1.0)), seed=seed)
        for _ in range(30):
            k = int(rng.integers(0, min(n, 8) + 1))
            s = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            mask = sum(1 << v for v in s)
            # Twice: once computed, once from the memo.
            for _ in range(2):
                got = g._mask_density(mask)
                if k < 2:
                    assert got == 0.0
                else:
                    assert got == clique_density(g, s)
                    assert got == reference_clique_density(g, s)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_warm_graph_reports_equal_reference(self, seed):
        # One graph object, so every call after the first starts from the
        # memo the earlier calls left behind.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        g = random_dual_layer(n, float(rng.uniform(0.3, 0.9)), seed=seed)
        for call in range(4):
            target_k = int(rng.integers(2, 7))
            max_iters = int(rng.choice([0, 1, 50]))
            pats = tuple(
                tuple(int(x) for x in rng.integers(0, 2, n) * (rng.random(n) < 0.7))
                for _ in range(8)
            )
            b = SampleBatch(patterns=pats, seed=0, backend="x")
            got = find_cliques(g, b, target_k, max_iters)
            assert got == reference_find_cliques(g, b, target_k, max_iters)
            if call == 0 and any(map(any, pats)):
                assert g._densities


class TestSearchOncePerSubset:
    def counting(self, monkeypatch, name):
        calls = []
        fn = getattr(cliques_mod, name)

        def wrapped(*args, **kwargs):
            calls.append(args[1])
            return fn(*args, **kwargs)

        monkeypatch.setattr(cliques_mod, name, wrapped)
        return calls

    def peeled(self, monkeypatch):
        """The vertex sets of the rows the array peel receives."""
        rows = []
        fn = cliques_mod._shrink

        def wrapped(g, clicked):
            rows.extend(tuple(np.flatnonzero(r).tolist()) for r in clicked)
            return fn(g, clicked)

        monkeypatch.setattr(cliques_mod, "_shrink", wrapped)
        return rows

    def test_repeated_pattern_searched_once(self, monkeypatch):
        g = random_dual_layer(8, 0.8, seed=2)
        shrinks = self.peeled(monkeypatch)
        searches = self.counting(monkeypatch, "local_search")
        pat = (1, 0, 2, 1, 1, 0, 1, 1)
        vac = (0,) * 8
        b = SampleBatch(
            patterns=(vac, pat, pat, vac, pat, pat, pat), seed=0, backend="x"
        )
        rep = find_cliques(g, b, 3)
        assert rep.shots_in == 7
        assert len(rep.cliques_found) == 5
        assert len(set(rep.cliques_found)) == 1
        assert rep.success_rate == 5 / 7
        assert shrinks == [(0, 2, 3, 4, 6, 7)]
        assert len(searches) == 1

    def test_distinct_subsets_in_grouping_order(self, monkeypatch):
        # Subsets are shrunk in _click_groups' ascending order, not in order
        # of first appearance; the cliques found stay in shot order.
        g = complete(6)
        pats = ((1, 1, 0, 0, 0, 1), (0, 1, 1, 0, 1, 0), (0, 2, 1, 0, 3, 0))
        b = SampleBatch(patterns=pats, seed=0, backend="x")
        want = reference_find_cliques(g, b, 3)
        shrinks = self.peeled(monkeypatch)
        assert find_cliques(g, b, 3) == want
        assert shrinks == [(1, 2, 4), (0, 1, 5)]

    @pytest.mark.parametrize("target_k", [3, 5, 6])
    def test_local_search_once_per_greedy_clique(self, monkeypatch, target_k):
        # A unit-weight 5-clique on 0..4 with vertices 5-7 hanging off it by
        # weak edges: each superset of the clique shrinks back to it.
        edges = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
        weak = [(0, 5, 0.1), (1, 6, 0.1), (2, 6, 0.1), (3, 7, 0.1)]
        g = graph_from_edges(8, edges + weak)
        pats = ((1, 1, 1, 1, 1, 1, 0, 0), (1, 1, 2, 1, 1, 0, 1, 0), (0,) * 8,
                (1, 1, 1, 1, 1, 1, 0, 1), (1, 1, 1, 1, 1, 1, 1, 1),
                (1, 1, 1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 0, 0, 0))
        b = SampleBatch(patterns=pats, seed=0, backend="x")
        want = reference_find_cliques(g, b, target_k)
        shrinks = self.peeled(monkeypatch)
        searches = self.counting(monkeypatch, "local_search")
        assert find_cliques(g, b, target_k) == want
        assert len(shrinks) == 5
        assert [c.vertices for c in searches] == [(0, 1, 2, 3, 4)]


# Weight laws on which many peel steps tie: unit, +-1 and +-i weights, and
# two magnitudes under +-1 and +-i phases. Those magnitudes are not dyadic,
# so sums of them in different orders round apart and exact ties between
# rests become near ties.
TIE_KINDS = ("unit", "pm1", "pmi", "two")


def tie_heavy_graph(n, kind, p, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    phases = rng.choice([1, -1, 1j, -1j], len(iu))
    vals = {"unit": np.ones(len(iu)),
            "pm1": rng.choice([1.0, -1.0], len(iu)),
            "pmi": phases,
            "two": rng.choice([0.1, 0.7], len(iu)) * phases}[kind]
    keep = rng.random(len(iu)) < p
    return graph_from_edges(n, [
        (i, j, complex(w)) for i, j, w in zip(iu[keep].tolist(),
                                              ju[keep].tolist(),
                                              vals[keep].tolist())])


def batch_from_pool(rng, width, pool_size, shots, click_prob=0.6):
    """Shots drawn from a few distinct count rows, so subsets repeat (also
    under different counts) and some shots are vacuum."""
    pool = rng.integers(0, 3, (pool_size, width)) * (
        rng.random((pool_size, width)) < click_prob)
    pool = np.vstack([pool, np.zeros((1, width), dtype=np.int64)])
    return SampleBatch(pool[rng.integers(0, len(pool), shots)], 0, "x")


def assert_equal_to_reference(g, b, target_k, max_iters):
    got = find_cliques(g, b, target_k, max_iters)
    want = reference_find_cliques(g, b, target_k, max_iters)
    assert got == want
    assert list(got.density_histogram.items()) == list(
        want.density_histogram.items())


class TestArrayPeelAgainstReference:
    """find_cliques, which peels every distinct subset of a batch at once,
    against the shot-by-shot search, where exact and near ties decide."""

    @given(kind=st.sampled_from(TIE_KINDS), n=st.integers(1, 14),
           p=st.sampled_from(EDGE_PROBS), seed=st.integers(0, 10_000),
           target_k=st.integers(1, 6), max_iters=st.sampled_from([0, 5]))
    # Peels whose exact choice differs from the array score's first best.
    @example(kind="two", n=6, p=0.6, seed=34, target_k=1, max_iters=0)
    @example(kind="two", n=12, p=0.3, seed=34, target_k=1, max_iters=0)
    @settings(max_examples=120, deadline=None)
    def test_tie_heavy_graphs(self, kind, n, p, seed, target_k, max_iters):
        g = tie_heavy_graph(n, kind, p, seed)
        b = batch_from_pool(np.random.default_rng(seed), n, 5, 16)
        assert_equal_to_reference(g, b, target_k, max_iters)

    @given(seed=st.integers(0, 10_000), target_k=st.integers(1, 6),
           max_iters=st.sampled_from([0, 5]))
    @settings(max_examples=40, deadline=None)
    def test_repeated_subsets(self, seed, target_k, max_iters):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        g = random_dual_layer(n, float(rng.uniform(0.3, 1.0)), seed=seed)
        b = batch_from_pool(rng, n, 2, 30)
        assert_equal_to_reference(g, b, target_k, max_iters)

    @pytest.mark.parametrize("shots, width", [(0, 6), (0, 0), (7, 6), (3, 2)])
    @pytest.mark.parametrize("target_k", range(1, 7))
    @pytest.mark.parametrize("max_iters", [0, 5])
    def test_vacuum_and_empty_batches(self, shots, width, target_k, max_iters):
        b = SampleBatch(np.zeros((shots, width), dtype=np.int64), 0, "x")
        assert_equal_to_reference(complete(6), b, target_k, max_iters)

    @given(kind=st.sampled_from(TIE_KINDS + ("random",)),
           seed=st.integers(0, 10_000), target_k=st.integers(1, 6),
           max_iters=st.sampled_from([0, 5]))
    # Peels whose exact choice differs from the array score's first best.
    @example(kind="two", seed=2, target_k=1, max_iters=0)
    @example(kind="two", seed=11, target_k=1, max_iters=0)
    @settings(max_examples=12, deadline=None)
    def test_subset_of_at_least_40(self, kind, seed, target_k, max_iters):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 47))
        p = float(rng.uniform(0.5, 0.95))
        g = (random_dual_layer(n, p, seed=seed) if kind == "random"
             else tie_heavy_graph(n, kind, p, seed))
        big = np.ones((1, n), dtype=np.int64)
        big[0, rng.choice(n, n - 40, replace=False)] = 0
        b = SampleBatch(np.vstack([big, batch_from_pool(rng, n, 3, 4).patterns,
                                   big]), 0, "x")
        assert_equal_to_reference(g, b, target_k, max_iters)

    @given(kind=st.sampled_from(TIE_KINDS + ("random",)),
           seed=st.integers(0, 10_000), rows=st.integers(1, 3),
           target_k=st.integers(1, 6), max_iters=st.sampled_from([0, 5]))
    @settings(max_examples=40, deadline=None)
    def test_chunk_boundaries(self, kind, seed, rows, target_k, max_iters):
        # The budget admits `rows` padded blocks a chunk; 1 gives one row.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        g = (random_dual_layer(n, 0.7, seed=seed) if kind == "random"
             else tie_heavy_graph(n, kind, 0.7, seed))
        b = batch_from_pool(rng, n, 7, 20, click_prob=0.8)
        k = int((b.patterns > 0).sum(axis=1).max())
        with patch.object(cliques_mod, "SHRINK_BLOCK_ENTRIES",
                          1 if rows == 1 else rows * k * k + k):
            assert_equal_to_reference(g, b, target_k, max_iters)


class TestBatchWidth:
    """A batch may be wider or narrower than the graph; clicks outside it
    raise the error _vertex_mask raises for the first such shot."""

    @pytest.mark.parametrize("pats, bad", [
        (((1, 1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1, 1), (1, 0, 0, 0, 1, 0, 0)),
         6),
        (((0,) * 7, (1, 0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 1, 1)), 4),
        (((0, 0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 0, 1, 0)), 5),
    ])
    def test_click_outside_graph_raises(self, pats, bad):
        b = SampleBatch(pats, 0, "x")
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range for n=4$"):
            find_cliques(complete(4), b, 2)

    def test_outside_click_refused_before_grouping(self, monkeypatch):
        def no_grouping(rows):
            raise AssertionError("the batch was grouped")

        monkeypatch.setattr(cliques_mod, "_click_groups", no_grouping)
        b = SampleBatch(((1, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1)), 0, "x")
        with pytest.raises(ValueError, match="^vertex 5 out of range for n=4$"):
            find_cliques(complete(4), b, 2)

    @given(seed=st.integers(0, 10_000), extra=st.integers(-4, 4),
           target_k=st.integers(1, 6), max_iters=st.sampled_from([0, 5]))
    @settings(max_examples=60, deadline=None)
    def test_any_width(self, seed, extra, target_k, max_iters):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 11))
        g = random_dual_layer(n, float(rng.uniform(0.3, 1.0)), seed=seed)
        b = batch_from_pool(rng, n + extra, 4, 10,
                            click_prob=float(rng.uniform(0.1, 0.7)))
        outside = [np.flatnonzero(p).max() for p in b.patterns
                   if p.any() and np.flatnonzero(p).max() >= n]
        if outside:
            with pytest.raises(
                ValueError, match=f"^vertex {outside[0]} out of range for n={n}$"
            ):
                find_cliques(g, b, target_k, max_iters)
        else:
            assert_equal_to_reference(g, b, target_k, max_iters)


class TestEnhancement:
    def test_wilson_interval_basics(self):
        lo, hi = binomial_interval(50, 100)
        assert lo < 0.5 < hi
        lo0, hi0 = binomial_interval(0, 100)
        assert lo0 == pytest.approx(0.0, abs=1e-12)
        assert 0 < hi0 < 0.05

    @given(shots=st.integers(1, 10**7), data=st.data())
    @example(shots=3000, data=None)  # compare's 3000 of 3000
    @example(shots=7, data=None)
    @settings(max_examples=300, deadline=None)
    def test_wilson_interval_holds_the_rate_inside_the_unit_interval(
        self, shots, data
    ):
        # Rounding once put the bounds at 5.55e-17 and 1.0000000000000002.
        picks = [0, shots] if data is None else [data.draw(
            st.integers(0, shots) | st.sampled_from([0, 1, shots - 1, shots]),
            label="successes")]
        for successes in picks:
            lo, hi = binomial_interval(successes, shots)
            assert 0.0 <= lo <= successes / shots <= hi <= 1.0
            assert (lo == 0.0) == (successes == 0)
            assert (hi == 1.0) == (successes == shots)


class TestEnumerateCliques:
    def test_k4_counts(self):
        cc = enumerate_cliques(complete(4), 4)
        assert clique_counts(cc) == {1: 4, 2: 6, 3: 4, 4: 1}

    def test_c5_has_no_triangles(self):
        g = graph_from_edges(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])
        cc = enumerate_cliques(g, 3)
        assert clique_counts(cc) == {1: 5, 2: 5, 3: 0}

    def test_matches_brute_force(self):
        g = random_dual_layer(12, 0.5, seed=3)
        cc = enumerate_cliques(g, 4)
        brute = brute_force_cliques(g, 4)
        for k in range(1, 5):
            assert cc.by_size[k] == brute[k]

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(cliques_mod, "CLIQUE_BUDGET", 100)
        with pytest.raises(BudgetError):
            enumerate_cliques(complete(16), 16)

    def test_isolated_vertices_are_cliques(self):
        g = graph_from_edges(4, [(0, 1, 1.0)])
        cc = enumerate_cliques(g, 2)
        assert cc.by_size[1] == [(0,), (1,), (2,), (3,)]

    def test_downward_consistency(self):
        g = random_dual_layer(10, 0.55, seed=21)
        cc = enumerate_cliques(g, 5)
        for k in range(2, 6):
            lower = set(cc.by_size[k - 1])
            from itertools import combinations

            for s in cc.by_size[k]:
                facets = set(combinations(s, k - 1))
                assert len(facets) == k
                assert facets <= lower

    def test_relabeling_permutes_output(self):
        g = random_dual_layer(8, 0.5, seed=10)
        perm = [5, 3, 7, 1, 0, 6, 2, 4]
        h = relabel(g, perm)
        cc_g = enumerate_cliques(g, 3)
        cc_h = enumerate_cliques(h, 3)
        for k in range(1, 4):
            mapped = sorted(
                tuple(sorted(perm[v] for v in s)) for s in cc_g.by_size[k]
            )
            assert mapped == cc_h.by_size[k]

    @given(n=st.integers(1, 16), p=st.sampled_from(EDGE_PROBS),
           seed=st.integers(0, 10_000))
    @example(n=16, p=0.0, seed=0)
    @example(n=16, p=1.0, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_equals_closure_of_maximal_cliques(self, n, p, seed):
        g = random_dual_layer(n, p, seed=seed)
        reference = closure_of_maximal_cliques(g, n + 1)
        for k_max in range(1, n + 2):
            cc = enumerate_cliques(g, k_max)
            assert cc.by_size == {k: reference[k] for k in range(1, k_max + 1)}

    @given(n=st.integers(1, 16), p=st.sampled_from(EDGE_PROBS),
           seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_budget_raises_iff_reference_count_exceeds(self, n, p, seed, data):
        g = random_dual_layer(n, p, seed=seed)
        k_max = data.draw(st.integers(1, n + 1))
        total = sum(map(len, closure_of_maximal_cliques(g, k_max).values()))
        budget = data.draw(
            st.sampled_from(sorted({0, total // 2, total - 1, total, total + 1}))
        )
        with patch.object(cliques_mod, "CLIQUE_BUDGET", budget):
            if total > budget:
                with pytest.raises(BudgetError) as err:
                    enumerate_cliques(g, k_max)
                assert str(err.value) == f"clique count exceeds budget {budget}"
                assert err.value.required == budget + 1
                assert err.value.budget == budget
            else:
                assert enumerate_cliques(g, k_max).k_max == k_max

    def test_maximal_cliques_are_maximal(self):
        g = random_dual_layer(9, 0.6, seed=5)
        for m in maximal_cliques(g):
            assert is_clique(g, m)
            outside = set(range(9)) - set(m)
            assert not any(
                all(g.weights[v, u] != 0 for u in m) for v in outside
            )
