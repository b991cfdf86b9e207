import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbstopo.encoding import (
    encode,
    load_encoding,
    reconstruct,
    rescale,
    save_encoding,
    takagi,
)
from gbstopo.errors import FormatError
from gbstopo.graph import ComplexGraph, graph_from_edges, random_dual_layer
from helpers import relabel


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
