import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbstopo import instances
from gbstopo.encoding import (
    RECON_TOL,
    encode,
    load_encoding,
    reconstruct,
    rescale,
    save_encoding,
    takagi,
)
from gbstopo.errors import FormatError
from gbstopo.graph import ComplexGraph, graph_from_edges, random_dual_layer
from helpers import reference_takagi, relabel, takagi_groups, takagi_tol


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return (a + a.T) / 2


def unit_edge_graph(n=2):
    return graph_from_edges(n, [(0, 1, 1.0)])


class TestRescale:
    def test_unit_edge(self):
        c, a_prime = rescale(unit_edge_graph(), 0.5)
        assert c == pytest.approx(0.5)
        assert np.allclose(a_prime, [[0, 0.5], [0.5, 0]])

    def test_imaginary_weights(self):
        g = graph_from_edges(2, [(0, 1, 2j)])
        c, a_prime = rescale(g, 0.8)
        assert c == pytest.approx(0.4)
        smax = np.linalg.svd(a_prime, compute_uv=False)[0]
        assert smax == pytest.approx(0.8, abs=1e-9)

    def test_zero_matrix_without_shift_fails(self):
        g = ComplexGraph(2, np.zeros((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            rescale(g, 0.5)

    def test_shift_fixed_point(self):
        g = random_dual_layer(6, 0.7, seed=3)
        c, a_prime = rescale(g, 0.6, d=0.1)
        assert np.allclose(a_prime, c * g.weights + 0.1 * np.eye(6))
        smax = np.linalg.svd(a_prime, compute_uv=False)[0]
        assert smax == pytest.approx(0.6, abs=1e-9)

    @pytest.mark.parametrize("d", [0.69, -0.699, 0.6999, 0.69999999, -0.6])
    @pytest.mark.parametrize("n,seed", [(8, 1), (10, 4), (12, 7)])
    def test_shift_close_to_target_reaches_it(self, d, n, seed):
        # The damped fixed-point iteration stopped off the target here.
        g = random_dual_layer(n, 0.6, seed=seed)
        c, a_prime = rescale(g, 0.7, d)
        assert c > 0
        assert np.array_equal(a_prime, c * g.weights + d * np.eye(n))
        smax = np.linalg.svd(a_prime, compute_uv=False)[0]
        assert smax == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("d", [0.5, 0.9, -0.5, 5.0, -3.0, 1e308])
    def test_shift_beyond_target_rejected(self, d):
        # cA + dI has trace 2d, so sigma_max >= |d| for every scale c.
        with pytest.raises(ValueError, match=re.escape(
            f"d = {d} cannot reach target spectral value 0.5"
        )):
            rescale(unit_edge_graph(), 0.5, d)

    def test_target_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            rescale(unit_edge_graph(), 1.2)


class TestTakagi:
    def test_already_diagonal(self):
        u, lam = takagi(np.diag([0.5, 0.3]).astype(complex))
        assert np.allclose(lam, [0.5, 0.3])
        assert np.allclose(np.abs(u), np.eye(2))

    def test_degenerate_offdiagonal(self):
        t = 0.6
        a = np.array([[0, t], [t, 0]], dtype=complex)
        u, lam = takagi(a)
        assert np.allclose(lam, [t, t])
        assert np.max(np.abs(reconstruct(u, lam) - a)) < 1e-10

    def test_random_8x8(self):
        a = random_symmetric(8, seed=42)
        u, lam = takagi(a)
        assert np.max(np.abs(reconstruct(u, lam) - a)) < 1e-10
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10

    def test_negative_diagonal_entry(self):
        a = np.diag([-0.5, 0.3]).astype(complex)
        u, lam = takagi(a)
        assert np.allclose(lam, [0.5, 0.3])
        assert np.max(np.abs(reconstruct(u, lam) - a)) < 1e-10

    def test_rank_deficient(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = a[1, 0] = 0.7
        u, lam = takagi(a)
        assert np.max(np.abs(reconstruct(u, lam) - a)) < 1e-10
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            takagi(np.array([[0, 1.0], [0.5, 0]]))

    def test_lambda_matches_singular_values(self):
        a = random_symmetric(9, seed=7)
        _, lam = takagi(a)
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(lam - sv)) < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = random_symmetric(n, seed)
        u, lam = takagi(a)
        assert np.max(np.abs(reconstruct(u, lam) - a)) < 1e-10
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-10


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_takagi_values(sigma, seed):
    """W diag(sigma) W^T for a random unitary W: Takagi values sigma."""
    w = random_unitary(len(sigma), seed)
    a = w @ np.diag(sigma) @ w.T
    return (a + a.T) / 2


def assert_matches_reference(a):
    """takagi agrees with the SVD-and-sqrtm oracle wherever the factor is
    unique: sigma, and per group of equal sigma, U_g U_g^H; U_g U_g^T too
    on groups with sigma > 0 (the real-orthogonal freedom within a group
    leaves both alike, while the columns at sigma = 0 may be any unitary
    completion)."""
    u, lam = takagi(a)
    u_ref, lam_ref = reference_takagi(a)
    n = len(a)
    assert np.max(np.abs(lam - lam_ref), initial=0.0) < 1e-12
    assert (lam >= 0).all()  # load_encoding refuses a negative lambda
    assert np.max(np.abs(reconstruct(u, lam) - a), initial=0.0) < RECON_TOL
    assert np.max(np.abs(u.conj().T @ u - np.eye(n)), initial=0.0) < RECON_TOL
    for g in takagi_groups(lam_ref):
        ug, rg = u[:, g], u_ref[:, g]
        assert np.max(np.abs(ug @ ug.conj().T - rg @ rg.conj().T)) < 1e-10
        if lam_ref[g.start] > takagi_tol(lam_ref):
            assert np.max(np.abs(ug @ ug.T - rg @ rg.T)) < 1e-10


def isolated_vertex_graph():
    """The planted instance with three isolated vertices appended."""
    g = instances.planted_clique_graph()
    w = np.zeros((g.n + 3, g.n + 3), dtype=complex)
    w[:g.n, :g.n] = g.weights
    return ComplexGraph(g.n + 3, w)


class TestTakagiOracle:
    @given(st.integers(0, 2**32), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_random_symmetric(self, seed, n):
        assert_matches_reference(random_symmetric(n, seed))

    # Distinct levels lie at least 0.1 apart, so every group of equal
    # sigma is well separated from the next.
    @given(st.integers(0, 2**32), st.lists(
        st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.6, 0.9]), min_size=1,
        max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_repeated_and_zero_values(self, seed, sigma):
        sigma = np.sort(sigma)[::-1]
        if sigma[0] == 0.0:
            sigma[0] = 0.5
        assert_matches_reference(with_takagi_values(sigma, seed))

    @pytest.mark.parametrize("a", [
        np.array([[0.3 - 0.4j]]),
        np.array([[-0.7]]),
        np.zeros((1, 1)),
        np.zeros((5, 5)),
        np.diag([-0.5, 0.3, 0.0]),
        np.diag([0.2j, -0.6, 0.4]),
    ], ids=["n1", "n1-negative", "n1-zero", "zero", "negative-diagonal",
            "complex-diagonal"])
    def test_explicit(self, a):
        assert_matches_reference(a.astype(complex))

    def test_six_fold_value(self):
        a = with_takagi_values([0.6] * 6 + [0.3, 0.2], seed=3)
        _, lam = takagi(a)
        assert np.allclose(lam[:6], 0.6, atol=1e-14)
        assert_matches_reference(a)

    @pytest.mark.parametrize("g", [
        isolated_vertex_graph(), instances.planted_clique_graph(),
        instances.two_community_graph(), instances.graded_triangle_chain(),
    ], ids=["isolated", "planted", "two-community", "triangle-chain"])
    def test_instances(self, g):
        assert_matches_reference(rescale(g, 0.95)[1])

    # The graphs of `gen --n 100 --p 0.02`: 18 to 26 of their 100 Takagi
    # values are zero.
    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_sparse_random_graphs(self, seed):
        a = rescale(random_dual_layer(100, 0.02, seed=seed), 0.7)[1]
        assert np.sum(takagi(a)[1] <= 1e-8) >= 18
        assert_matches_reference(a)

    @pytest.mark.parametrize("g", [
        isolated_vertex_graph(), instances.planted_clique_graph(),
        random_dual_layer(100, 0.02, seed=5),
    ], ids=["isolated", "planted", "sparse-100"])
    def test_signs_do_not_follow_eigh(self, monkeypatch, g):
        # Eigenvectors are unique only up to sign; a LAPACK build may
        # return any of them, and the written encoding must not move.
        want = save_encoding(encode(g, 0.9))
        eigh = np.linalg.eigh

        def flipped(m):
            w, v = eigh(m)
            v = v.copy()
            v[:, ::2] *= -1
            v[:, 1::3] *= -1
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", flipped)
        assert save_encoding(encode(g, 0.9)) == want


class TestReconstruct:
    def test_identity_u(self):
        assert np.allclose(
            reconstruct(np.eye(2), [0.2, 0.7]), np.diag([0.2, 0.7])
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reconstruct(np.eye(3), [0.1, 0.2])

    def test_column_permutation_gauge(self):
        a = random_symmetric(5, seed=11)
        u, lam = takagi(a)
        perm = [2, 0, 1, 4, 3]
        assert np.allclose(
            reconstruct(u[:, perm], lam[perm]), reconstruct(u, lam)
        )


class TestEncode:
    def test_unit_edge_squeezings(self):
        e = encode(unit_edge_graph(), 0.5)
        assert np.allclose(e.lambdas, [0.5, 0.5])
        assert np.allclose(e.squeezings, math.atanh(0.5))

    def test_diagonal_only(self):
        g = ComplexGraph(3, np.zeros((3, 3), dtype=complex))
        e = encode(g, 0.7, d=0.4)
        assert e.c == pytest.approx(1.0)
        assert np.allclose(e.lambdas, 0.4)
        assert np.allclose(e.squeezings, math.atanh(0.4))

    def test_scale_consistency(self):
        g = random_dual_layer(6, 0.6, seed=9)
        scaled = ComplexGraph(6, 3.7 * g.weights)
        e1, e2 = encode(g, 0.6), encode(scaled, 0.6)
        assert np.allclose(e1.lambdas, e2.lambdas, atol=1e-10)
        assert np.allclose(
            reconstruct(e1.u, e1.lambdas), reconstruct(e2.u, e2.lambdas)
        )

    def test_permutation_conjugates(self):
        g = random_dual_layer(6, 0.7, seed=13)
        perm = [3, 1, 5, 0, 2, 4]
        h = relabel(g, perm)
        eg, eh = encode(g, 0.7), encode(h, 0.7)
        bg = reconstruct(eg.u, eg.lambdas)
        bh = reconstruct(eh.u, eh.lambdas)
        assert np.allclose(bh[np.ix_(perm, perm)], bg, atol=1e-10)


class TestEncodingIO:
    def test_round_trip(self):
        e = encode(random_dual_layer(5, 0.8, seed=2), 0.65, d=0.0)
        e2 = load_encoding(save_encoding(e))
        assert np.array_equal(e.u, e2.u)
        assert np.array_equal(e.lambdas, e2.lambdas)
        assert np.array_equal(e.squeezings, e2.squeezings)
        assert (e.c, e.d) == (e2.c, e2.d)

    # Found by tests/test_loader_fuzz.py: u^H u overflowed with a warning,
    # and the second u loaded, its unitarity deviation NaN.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u", [[1e200j], [1e200j, 1e200j, 1e200j, 1e200]])
    def test_huge_u_entries_rejected(self, u):
        n = math.isqrt(len(u))
        doc = {"n": n, "c": 1.0, "d": 0.0, "lambdas": [0.1] * n,
               "squeezings": [math.atanh(0.1)] * n,
               "u": [{"re": z.real, "im": z.imag} for z in map(complex, u)]}
        with pytest.raises(FormatError, match="not unitary"):
            load_encoding(json.dumps(doc))
