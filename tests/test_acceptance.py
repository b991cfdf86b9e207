"""Acceptance suite: one criterion per test, one printed PASS/FAIL line
per criterion. Run with `pytest -s tests/test_acceptance.py -v`.
"""

import math
import time
from pathlib import Path

import numpy as np

import gbstopo as gt
from gbstopo.cli import main as cli_main
from gbstopo.cliques import binomial_interval, find_cliques
from gbstopo.graph import graph_from_edges, random_dual_layer
from gbstopo.instances import (
    graded_triangle_chain,
    planted_clique_graph,
    surface_axes,
    two_community_graph,
)
from gbstopo.percolation import SweepConfig, percolation_entropy_sweep
from gbstopo.tda import boundary_matrix
from helpers import (
    criterion_9_commands,
    matching_sum_hafnian,
    max_nonempty_size,
    to_dense,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return (a + a.T) / 2


def test_criterion_1_hafnian_oracle():
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for dim in range(2, 11):
        for rep in (400, 23):  # two seed families per dimension
            for s in range(12):
                m = random_symmetric(dim, seed=rep * 1000 + dim * 37 + s)
                got = gt.hafnian(m)
                want = matching_sum_hafnian(m)
                if want == 0:
                    err = abs(got)
                else:
                    err = abs(got - want) / abs(want)
                worst = max(worst, err)
                count += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        "hafnian matches matching-sum oracle",
        count >= 200 and worst < 1e-9 and elapsed < 30,
        f"{count} matrices, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gbs_closed_forms():
    ok = True
    details = []

    lam = 0.45
    g1 = gt.ComplexGraph(1, np.zeros((1, 1), dtype=complex))
    e1 = gt.encode(g1, 0.7, d=lam)
    r = e1.squeezings[0]
    ok &= abs(gt.pattern_probability(e1, (0,)) - 1 / math.cosh(r)) < 1e-10
    ok &= (
        abs(
            gt.pattern_probability(e1, (2,))
            - 0.5 * math.tanh(r) ** 2 / math.cosh(r)
        )
        < 1e-10
    )

    t = 0.6
    e2 = gt.encode(graph_from_edges(2, [(0, 1, 1.0)]), t)
    r2 = math.atanh(t)
    d2 = gt.enumerate_distribution(e2, 16, 8)
    for n in range(6):
        want = t ** (2 * n) / math.cosh(r2) ** 2
        ok &= abs(d2.entries[(n, n)] - want) < 1e-10

    # mass >= 0.999 at per-pair cutoff 8 across the squeezing range
    for t_test in (0.3, 0.45, 0.6):
        e = gt.encode(graph_from_edges(2, [(0, 1, 1.0)]), t_test)
        mass = gt.enumerate_distribution(e, 16, 8).mass
        details.append(f"mass(lam={t_test})={mass:.6f}")
        ok &= mass >= 0.999

    odd_zero = all(
        w == 0.0 for p, w in d2.entries.items() if sum(p) % 2 == 1
    )
    ok &= odd_zero
    _report(
        2,
        "single-mode and TMSV closed forms, truncation mass, odd totals",
        ok,
        "; ".join(details),
    )


def test_criterion_3_takagi_reconstruction():
    worst_rec = worst_unit = worst_sv = 0.0
    rng = np.random.default_rng(7)
    for i in range(100):
        n = int(rng.integers(2, 13))
        a = random_symmetric(n, seed=5000 + i)
        u, lam = gt.takagi(a)
        worst_rec = max(
            worst_rec, float(np.max(np.abs(gt.reconstruct(u, lam) - a)))
        )
        worst_unit = max(
            worst_unit,
            float(np.max(np.abs(u.conj().T @ u - np.eye(n)))),
        )
        sv = np.linalg.svd(a, compute_uv=False)
        worst_sv = max(worst_sv, float(np.max(np.abs(sv - lam))))
    ok = worst_rec < 1e-10 and worst_unit < 1e-10 and worst_sv < 1e-10
    _report(
        3,
        "Takagi factorization on 100 random symmetric matrices",
        ok,
        f"recon {worst_rec:.2e}, unitarity {worst_unit:.2e}, sv {worst_sv:.2e}",
    )


def test_criterion_4_homology_fixtures():
    ok = True

    c4 = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    ok &= gt.betti_numbers(gt.enumerate_cliques(c4, 3), 1).betti == (1, 1)

    tt = graph_from_edges(
        6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
    )
    ok &= gt.betti_numbers(gt.enumerate_cliques(tt, 4), 1).betti == (2, 0)

    non_edges = {(0, 1), (2, 3), (4, 5)}
    octa = graph_from_edges(
        6,
        [(i, j, 1.0) for i in range(6) for j in range(i + 1, 6)
         if (i, j) not in non_edges],
    )
    occ = gt.enumerate_cliques(octa, 5)
    ok &= gt.betti_numbers(occ, 2).betti == (1, 0, 1)
    ok &= gt.euler_characteristic(occ) == 2

    k4 = graph_from_edges(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    ok &= gt.euler_characteristic(gt.enumerate_cliques(k4, 4)) == 1

    identity_ok = 0
    bb_ok = 0
    for s in range(50):
        p = 0.2 + 0.012 * s
        g = random_dual_layer(10, p, seed=900 + s)
        cc = gt.enumerate_cliques(g, 10)
        top = max_nonempty_size(cc)
        prof = gt.betti_numbers(cc, max(top - 1, 0))
        chi = gt.euler_characteristic(cc)
        if sum((-1) ** d * b for d, b in enumerate(prof.betti)) == chi:
            identity_ok += 1
        clean = True
        for k in range(2, top):
            bk = to_dense(boundary_matrix(cc, k))
            bk1 = to_dense(boundary_matrix(cc, k + 1))
            if bk.size and bk1.size and np.any((bk @ bk1) % 2):
                clean = False
        if clean:
            bb_ok += 1
    ok &= identity_ok == 50 and bb_ok == 50
    _report(
        4,
        "Betti fixtures, Euler-Poincare identity, boundary-of-boundary",
        ok,
        f"identity {identity_ok}/50, BB=0 {bb_ok}/50",
    )


def test_criterion_5_enhancement():
    t0 = time.monotonic()
    g = planted_clique_graph()
    planted = (0, 1, 2, 3, 4)
    assert gt.enumerate_cliques(g, 6).by_size[5] == [planted]

    shots = 3000
    e = gt.encode(g, 0.95)
    batches = {
        "gbs": gt.sample_gbs(e, shots, 6, 6, seed=42),
        "uniform": gt.sample_uniform(g.n, 5, shots, seed=43),
        "squashed": gt.sample_squashed(e, shots, seed=44),
    }
    hits = {}
    for name, batch in batches.items():
        rep = find_cliques(g, batch, 5, max_iters=0)
        assert all(c.vertices == planted for c in rep.cliques_found)
        hits[name] = len(rep.cliques_found)
    lo_gbs, _ = binomial_interval(hits["gbs"], shots)
    _, hi_uni = binomial_interval(hits["uniform"], shots)
    _, hi_sq = binomial_interval(hits["squashed"], shots)
    ratio_uni = hits["gbs"] / max(hits["uniform"], 1)
    ratio_sq = hits["gbs"] / max(hits["squashed"], 1)
    elapsed = time.monotonic() - t0
    ok = (
        hits["gbs"] > hits["uniform"]
        and hits["gbs"] > hits["squashed"]
        and ratio_uni > 1
        and ratio_sq > 1
        and lo_gbs > hi_uni
        and lo_gbs > hi_sq
        and elapsed < 300
    )
    _report(
        5,
        "planted 5-clique: GBS beats uniform and squashed baselines",
        ok,
        f"rates gbs={hits['gbs']/shots:.4f} uni={hits['uniform']/shots:.4f} "
        f"sq={hits['squashed']/shots:.4f}, ratios {ratio_uni:.1f}/{ratio_sq:.1f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_tpt_detection():
    g = two_community_graph()
    omega, delta = surface_axes()
    surf = gt.filtration_surface(g, omega, delta, k_ref=2)
    rep = gt.tpt_points(surf)
    path = [(i, 0) for i in range(len(omega))]
    entropies = gt.euler_entropy_path(surf, path)
    sentinel_at = [i for i, v in enumerate(entropies) if v == float("-inf")]
    zero_at = np.flatnonzero(surf.chi[:, 0] == 0).tolist()
    ok = (
        bool(rep.sign_fronts)
        and bool(rep.zero_cells)
        and sentinel_at == zero_at
        and len(sentinel_at) > 0
    )
    _report(
        6,
        "chi surface has a sign-change front and -inf sentinels at chi=0",
        ok,
        f"{len(rep.zero_cells)} zero cells, {len(rep.sign_fronts)} fronts, "
        f"sentinels at {sentinel_at}",
    )


def _phi_networkx(g, k):
    import networkx as nx

    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from((i, j) for i, j, _ in g.edges())
    comms = list(nx.algorithms.community.k_clique_communities(gx, k))
    return max((len(c) for c in comms), default=0) / g.n


def _crossing_index(values, level=0.5):
    for i, v in enumerate(values):
        if v >= level:
            return i
    return None


def test_criterion_7_percolation_threshold():
    t0 = time.monotonic()
    p_grid = [round(0.02 + 0.01 * i, 2) for i in range(14)]
    law = ((0.2, 1.0), (0.0, 0.0))

    production = []
    for p in p_grid:
        vals = [
            gt.percolation_clusters(
                random_dual_layer(100, p, law, seed=1000 * i + int(p * 100)), 3
            ).phi
            for i in range(50)
        ]
        production.append(float(np.mean(vals)))

    oracle = []
    for p in p_grid:
        vals = [
            _phi_networkx(
                random_dual_layer(100, p, law, seed=7_000_000 + 1000 * i + int(p * 100)),
                3,
            )
            for i in range(25)
        ]
        oracle.append(float(np.mean(vals)))

    ci = _crossing_index(production)
    co = _crossing_index(oracle)
    elapsed = time.monotonic() - t0
    # crossing bracket [p[ci-1], p[ci]] must reach into [0.05, 0.09]
    bracket_ok = (
        ci is not None
        and ci > 0
        and p_grid[ci - 1] <= 0.09 + 1e-9
        and p_grid[ci] >= 0.05 - 1e-9
    )
    ok = bracket_ok and co is not None and abs(ci - co) <= 1 and elapsed < 120
    _report(
        7,
        "triangle percolation threshold location and oracle agreement",
        ok,
        f"crossing bracket [{p_grid[ci - 1] if ci else None}, "
        f"{p_grid[ci] if ci is not None else None}], oracle index diff "
        f"{None if co is None or ci is None else abs(ci - co)}, {elapsed:.0f}s",
    )


def test_criterion_8_entropy_percolation_agreement():
    g = graded_triangle_chain()
    thresholds = np.linspace(0.40, 0.92, 14)
    cfg = SweepConfig(
        k_ref=3, alpha=2.0, photon_total=4, target_spectral=0.7,
        backend="exact", cutoff_total=4, cutoff_per_mode=4,
    )
    sweep = percolation_entropy_sweep(g, thresholds, cfg)
    rho = gt.curve_correlation(sweep.phi, sweep.h_norm)

    damaged = percolation_entropy_sweep(gt.damage(g, 1, 4), thresholds, cfg)
    dphi = np.array(damaged.phi) - np.array(sweep.phi)
    dent = np.array(damaged.h_norm) - np.array(sweep.h_norm)
    agree = int(sum(np.sign(a) == np.sign(b) for a, b in zip(dphi, dent)))
    ok = rho >= 0.8 and agree >= 0.8 * len(thresholds)
    _report(
        8,
        "entropy tracks percolation order parameter, also after damage",
        ok,
        f"spearman {rho:.3f}, damage direction {agree}/{len(thresholds)}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    commands = criterion_9_commands(tmp_path)
    stable = 0
    for argv in commands:
        out = argv[argv.index("--out") + 1]
        assert cli_main(argv) == 0
        first = Path(out).read_bytes()
        assert cli_main(argv) == 0
        if Path(out).read_bytes() == first:
            stable += 1
    ok = stable == len(commands)
    _report(
        9,
        "every CLI command re-runs byte-identically",
        ok,
        f"{stable}/{len(commands)} commands stable",
    )
