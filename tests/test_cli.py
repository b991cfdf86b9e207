import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gbstopo
from gbstopo import cliques, tda
from gbstopo.cli import build_parser, main
from gbstopo.errors import BudgetError
from gbstopo.graph import (
    ComplexGraph, graph_from_edges, load_graph, random_dual_layer, save_graph,
)
from gbstopo.instances import planted_clique_graph, two_community_graph
from gbstopo.percolation import percolation_clusters
from gbstopo.tda import density_filtered_graph
from helpers import (
    brute_force_cliques,
    criterion_9_commands,
    dense_gf2_rank,
    reference_betti_rows,
)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    assert main([
        "gen", "--n", "10", "--p", "0.4", "--seed", "7", "--out", str(path)
    ]) == 0
    return path


def run_twice_identical(argv, out_path):
    assert main(argv) == 0
    first = out_path.read_bytes()
    assert main(argv) == 0
    assert out_path.read_bytes() == first
    return first


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        out = tmp_path / "g.json"
        argv = ["gen", "--n", "12", "--p", "0.45", "--seed", "7",
                "--out", str(out)]
        run_twice_identical(argv, out)

    def test_output_is_loadable_with_provenance(self, graph_file):
        doc = json.loads(graph_file.read_text())
        assert doc["provenance"]["command"] == "gen"
        g = load_graph(graph_file.read_bytes())
        assert g.n == 10

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--n", "5"])
        assert err.value.code == 2

    def test_bad_n_exit_3(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(["gen", "--n", "0", "--p", "0.5", "--seed", "1",
                     "--out", str(out)])
        assert code == 3


class TestEncodeSample:
    def test_encode_then_sample_via_encoding_file(self, tmp_path, graph_file):
        enc = tmp_path / "e.json"
        assert main(["encode", "--graph", str(graph_file),
                     "--target-spectral", "0.6", "--out", str(enc)]) == 0
        out = tmp_path / "s.jsonl"
        argv = ["sample", "--encoding", str(enc), "--backend", "gbs",
                "--shots", "40", "--seed", "3", "--out", str(out)]
        data = run_twice_identical(argv, out)
        lines = data.decode().splitlines()
        assert len(lines) == 41
        header = json.loads(lines[0])
        assert header["backend"] == "gbs"
        assert all(json.loads(l)["total"] == sum(json.loads(l)["pattern"])
                   for l in lines[1:])

    def test_uniform_patterns_have_weight_k(self, tmp_path, graph_file):
        out = tmp_path / "u.jsonl"
        assert main(["sample", "--graph", str(graph_file),
                     "--backend", "uniform", "--k", "5", "--shots", "25",
                     "--seed", "2", "--out", str(out)]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()[1:]]
        assert all(r["total"] == 5 and max(r["pattern"]) == 1 for r in recs)

    def test_eta_zero_gives_vacuum_records(self, tmp_path, graph_file):
        out = tmp_path / "v.jsonl"
        assert main(["sample", "--graph", str(graph_file), "--backend", "gbs",
                     "--shots", "10", "--seed", "2", "--eta", "0",
                     "--out", str(out)]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()[1:]]
        assert all(r["total"] == 0 for r in recs)

    def test_budget_exit_4(self, tmp_path, graph_file):
        out = tmp_path / "d.json"
        code = main(["dist", "--graph", str(graph_file),
                     "--cutoff-total", "50", "--cutoff-per-mode", "50",
                     "--out", str(out)])
        assert code == 4

    def test_missing_graph_exit_3(self, tmp_path):
        code = main(["sample", "--graph", str(tmp_path / "nope.json"),
                     "--backend", "gbs", "--shots", "1", "--seed", "0",
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 3


class TestCliquesCmd:
    def test_report_fields(self, tmp_path, graph_file):
        samples = tmp_path / "s.jsonl"
        assert main(["sample", "--graph", str(graph_file), "--backend",
                     "uniform", "--k", "4", "--shots", "30", "--seed", "5",
                     "--out", str(samples)]) == 0
        out = tmp_path / "r.json"
        argv = ["cliques", "--graph", str(graph_file), "--samples",
                str(samples), "--k", "3", "--out", str(out)]
        run_twice_identical(argv, out)
        doc = json.loads(out.read_text())
        assert doc["shots"] == 30
        assert doc["successes"] == len(doc["cliques"])
        dens = [c["density"] for c in doc["cliques"]]
        assert dens == sorted(dens, reverse=True)


class TestBettiCmd:
    def test_sweep_rows(self, tmp_path, graph_file):
        out = tmp_path / "b.txt"
        argv = ["betti", "--graph", str(graph_file), "--dmax", "2",
                "--k-ref", "3", "--delta-axis", "0,0.2,0.4", "--out", str(out)]
        run_twice_identical(argv, out)
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0].startswith("delta_t")
        assert len(lines) == 4

    def test_threshold_above_max_density(self, tmp_path, graph_file):
        out = tmp_path / "b.txt"
        assert main(["betti", "--graph", str(graph_file), "--dmax", "1",
                     "--k-ref", "3", "--delta-axis", "99.0",
                     "--out", str(out)]) == 0
        header, row = [
            l for l in out.read_text().splitlines()
            if l and not l.startswith("#")
        ]
        vals = dict(zip(header.split("\t"), row.split("\t")))
        assert vals["beta0"] == "10"  # isolated vertices survive
        assert vals["beta1"] == "0"
        assert vals["m2"] == "0"

    def test_boundary_over_bit_budget_exit_4(self, tmp_path):
        """B_4 of this graph, 55,903 triangles by 470,147 4-cliques, would
        take 3.1 GiB of row ints; it is refused before a row is built."""
        import resource

        graph, out = tmp_path / "g.json", tmp_path / "b.tsv"
        assert main(["gen", "--n", "100", "--p", "0.7", "--seed", "1",
                     "--out", str(graph)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(gbstopo.__file__).parents[1])}
        cap = 2 << 30  # a regression then fails with MemoryError, not the host
        proc = subprocess.run(
            [sys.executable, "-m", "gbstopo.cli", "betti", "--graph", str(graph),
             "--dmax", "2", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ("error: B_4 of shape 55903 x 470147 exceeds the "
                               "budget of 4294967296 bits\n")
        assert not out.exists()

    def test_unfiltered_sweep_repeats_one_row(
        self, tmp_path, graph_file, monkeypatch
    ):
        calls = []
        enumerate_cliques = tda.enumerate_cliques

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_cliques(*args, **kwargs)

        monkeypatch.setattr(tda, "enumerate_cliques", counted)
        out, single = tmp_path / "b.txt", tmp_path / "one.txt"
        assert main(["betti", "--graph", str(graph_file), "--dmax", "2",
                     "--delta-axis", "0,0.4,0.9", "--out", str(out)]) == 0
        assert len(calls) == 1  # one complex, however many thresholds
        assert main(["betti", "--graph", str(graph_file), "--dmax", "2",
                     "--out", str(single)]) == 0

        def body(path):
            return [l.split("\t") for l in path.read_text().splitlines()
                    if l and not l.startswith("#")]

        header, *rows = body(out)
        assert header == body(single)[0]
        assert [r[0] for r in rows] == ["0.0", "0.4", "0.9"]
        assert all(r[1:] == body(single)[1][1:] for r in rows)


    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 8), p=st.sampled_from([0.3, 0.6, 0.9, 1.0]),
           seed=st.integers(0, 2**16), dmax=st.integers(0, 3))
    def test_rows_read_the_skeleton(self, tmp_path, n, p, seed, dmax):
        g = random_dual_layer(n, p, seed=seed)
        gpath, out = tmp_path / "g.json", tmp_path / "b.txt"
        gpath.write_bytes(save_graph(g))

        def rows(*flags):
            assert main(["betti", "--graph", str(gpath), "--dmax", str(dmax),
                         *flags, "--out", str(out)]) == 0
            header, *body = [l.split("\t") for l in out.read_text().splitlines()
                             if l and not l.startswith("#")]
            return [dict(zip(header, r)) for r in body]

        # --k-ref 2 at density 0 rebuilds g from its own edges.
        (row,) = rows()
        assert rows("--k-ref", "2", "--delta-axis", "0") == [row]
        top = dmax + 2
        assert list(row) == (
            ["delta_t"] + [f"m{k}" for k in range(1, top + 1)]
            + [f"r{k}" for k in range(2, top + 1)]
            + [f"beta{d}" for d in range(dmax + 1)] + ["chi", "s_chi"]
        )
        m = {k: int(row[f"m{k}"]) for k in range(1, top + 1)}
        r = {k: int(row[f"r{k}"]) for k in range(2, top + 1)}
        alternating = sum((-1) ** d * int(row[f"beta{d}"])
                          for d in range(dmax + 1))
        assert int(row["chi"]) == (
            alternating + (-1) ** (dmax + 1) * (m[top] - r[top])
        )
        cliques = brute_force_cliques(g, top)
        for k in range(2, top + 1):
            assert m[k] == len(cliques[k])
            faces, cofaces = cliques[k - 1], cliques[k]
            mat = np.zeros((len(faces), len(cofaces)), dtype=np.uint8)
            for i, f in enumerate(faces):
                for j, c in enumerate(cofaces):
                    mat[i, j] = set(f) <= set(c)
            assert r[k] == dense_gf2_rank(mat)

    @pytest.mark.parametrize("axis", ["0,0.3,0.3,0.6", "0.6,0,0.3"])
    @pytest.mark.parametrize("budget, size", [
        ("BOUNDARY_BITS",
         lambda c: max(c.m(k - 1) * c.m(k) for k in (2, 3, 4)) - 1),
        ("CLIQUE_BUDGET", lambda c: sum(map(c.m, (1, 2, 3, 4))) - 1),
        ("CLIQUE_BUDGET", lambda c: 10),  # below the 3-cliques of g itself
    ])
    def test_budget_refused_before_any_column(
        self, tmp_path, capsys, monkeypatch, axis, budget, size
    ):
        """Over either budget, betti exits 4 and builds no column; on an
        ascending axis it says what the per-row path said."""
        g = two_community_graph()
        gpath, out = tmp_path / "g.json", tmp_path / "b.tsv"
        gpath.write_bytes(save_graph(g))
        union = cliques.enumerate_cliques(density_filtered_graph(g, 3, 0.0), 4)
        module = tda if budget == "BOUNDARY_BITS" else cliques
        monkeypatch.setattr(module, budget, size(union))
        with pytest.raises(BudgetError) as per_row:
            reference_betti_rows(g, 2, 3, sorted(map(float, axis.split(","))))

        def column_built(rows):
            raise AssertionError("a column was built over the budget")

        monkeypatch.setattr(tda, "_rank_bits", column_built)
        assert main(["betti", "--graph", str(gpath), "--dmax", "2",
                     "--k-ref", "3", "--delta-axis", axis,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert not out.exists()
        if axis == "0,0.3,0.3,0.6":
            assert err == f"error: {per_row.value}\n"
        else:
            assert err.startswith("error: ") and "budget" in err


class TestWeightSumOverflow:
    """A graph whose |re| + |im| sum overflows is refused on load and by gen
    (exit 3), before any clique density can read inf. Warnings are errors
    here, as under python -W error."""

    @pytest.fixture(params=["one_edge", "gen"])
    def graph(self, request, tmp_path):
        if request.param == "one_edge":
            g = graph_from_edges(2, [(0, 1, 1e308)])
        else:  # what gen --n 5 --p 1 --alpha-range 1e308 1e308 would write
            g = ComplexGraph(5, np.where(np.eye(5), 0, 1e308 + 0j))
        path = tmp_path / "g.json"
        path.write_bytes(save_graph(g))
        samples = tmp_path / "s.jsonl"
        small = tmp_path / "small.json"
        assert main(["gen", "--n", str(g.n), "--p", "1", "--seed", "0",
                     "--out", str(small)]) == 0
        assert main(["sample", "--graph", str(small), "--backend", "uniform",
                     "--k", "2", "--shots", "5", "--seed", "0",
                     "--out", str(samples)]) == 0
        return str(path), str(samples)

    @pytest.mark.parametrize("command", [
        ["cliques", "--k", "2"],
        ["betti", "--k-ref", "3"],
        ["surface", "--omega-axis", "1e308", "--delta-axis", "0"],
        ["percolation", "--k", "2", "--k-ref", "2"],
    ])
    def test_command_refuses(self, tmp_path, capsys, graph, command):
        path, samples = graph
        extra = ["--samples", samples] if command[0] == "cliques" else []
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--graph", path, *extra, "--out", str(out)])
        assert code == 3
        assert "weight sum overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_refuses(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gen", "--n", "5", "--p", "1", "--seed", "0",
                         "--alpha-range", "1e308", "1e308",
                         "--beta-range", "0", "0", "--out", str(out)])
        assert code == 3
        assert "weight sum overflows" in capsys.readouterr().err
        assert not out.exists()


class TestSurfaceCmd:
    def test_surface_contains_tpt_flags(self, tmp_path):
        gpath = tmp_path / "tc.json"
        gpath.write_bytes(save_graph(two_community_graph()))
        out = tmp_path / "surf.txt"
        argv = ["surface", "--graph", str(gpath),
                "--omega-axis", "lin:0.05:1.0:20",
                "--delta-axis", "lin:0.0:0.95:20",
                "--k-ref", "2", "--out", str(out)]
        run_twice_identical(argv, out)
        rows = [l.split("\t") for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        header, body = rows[0], rows[1:]
        assert len(body) == 400
        tpt_col = header.index("tpt")
        chi_col = header.index("chi")
        flagged = [r for r in body if r[tpt_col] == "1"]
        assert flagged and all(r[chi_col] == "0" for r in flagged)
        assert "-inf" in out.read_text()
        assert "# front:" in out.read_text()

    def test_over_count_budget_exit_4(self, tmp_path):
        """A 10,000 x 10,000 surface of 6 vertices would take 4.47 GiB of
        clique counts; it is refused before any is allocated."""
        import resource

        graph, out = tmp_path / "g.json", tmp_path / "s.tsv"
        assert main(["gen", "--n", "6", "--p", "0.5", "--seed", "1",
                     "--out", str(graph)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(gbstopo.__file__).parents[1])}
        cap = 2 << 30  # a regression then fails with MemoryError, not the host
        proc = subprocess.run(
            [sys.executable, "-m", "gbstopo.cli", "surface", "--graph", str(graph),
             "--omega-axis", "lin:0:1:10000", "--delta-axis", "lin:0:1:10000",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ("error: a 10000 x 10000 surface on 6 vertices "
                               "holds 600000000 clique counts, above the budget "
                               "of 33554432\n")
        assert not out.exists()


class TestPersistenceCmd:
    def test_death_column_is_plain_numbers(self, tmp_path, graph_file):
        out = tmp_path / "pers.txt"
        argv = ["persistence", "--graph", str(graph_file), "--k", "3",
                "--out", str(out)]
        run_twice_identical(argv, out)
        rows = [l.split("\t") for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        header, body = rows[0], rows[1:]
        assert body
        death = header.index("death")
        for row in body:
            assert row[death] == "inf" or float(row[death]) > 0


class TestPercolationCmd:
    def test_report(self, tmp_path, graph_file):
        out = tmp_path / "p.json"
        argv = ["percolation", "--graph", str(graph_file), "--k", "3",
                "--out", str(out)]
        run_twice_identical(argv, out)
        doc = json.loads(out.read_text())
        assert 0 <= doc["phi"] <= 1
        assert doc["largest_nodes"] == max(
            (len(c) for c in doc["clusters"]), default=0
        )

    def test_damage_flag_reduces_phi(self, tmp_path):
        gpath = tmp_path / "chain.json"
        from gbstopo.instances import graded_triangle_chain

        gpath.write_bytes(save_graph(graded_triangle_chain()))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["percolation", "--graph", str(gpath), "--k", "3",
                     "--out", str(out_a)]) == 0
        assert main(["percolation", "--graph", str(gpath), "--k", "3",
                     "--damage-node", "1", "--damage-k", "4",
                     "--out", str(out_b)]) == 0
        assert (json.loads(out_b.read_text())["phi"]
                < json.loads(out_a.read_text())["phi"])

    def test_delta_t_without_k_ref_exit_3(self, tmp_path, capsys):
        # Without --k-ref no filtration runs, so a threshold would be ignored.
        gpath = tmp_path / "g.json"
        assert main(["gen", "--n", "12", "--p", "0.5", "--seed", "3",
                     "--out", str(gpath)]) == 0
        out = tmp_path / "p.json"
        code = main(["percolation", "--graph", str(gpath), "--k", "3",
                     "--delta-t", "0.9", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--delta-t 0.9" in err and "--k-ref" in err

    @pytest.mark.parametrize("delta_t", ["0", "-1"])
    def test_k_ref_filters_at_any_delta_t(self, tmp_path, delta_t):
        # As in betti, --k-ref alone turns the density filter on.
        gpath = tmp_path / "g.json"
        assert main(["gen", "--n", "14", "--p", "0.5", "--seed", "3",
                     "--alpha-range", "0.2", "1", "--beta-range", "0", "0",
                     "--out", str(gpath)]) == 0
        out = tmp_path / "p.json"
        assert main(["percolation", "--graph", str(gpath), "--k", "3",
                     "--k-ref", "4", "--delta-t", delta_t,
                     "--out", str(out)]) == 0
        g = load_graph(gpath.read_bytes())
        want = percolation_clusters(
            density_filtered_graph(g, 4, float(delta_t)), 3
        )
        doc = json.loads(out.read_text())
        assert doc["phi"] == want.phi < 1.0
        assert doc["clusters"] == [list(c) for c in want.clusters]


class TestEntropyCmd:
    def test_sweep_table(self, tmp_path):
        gpath = tmp_path / "chain.json"
        from gbstopo.instances import graded_triangle_chain

        gpath.write_bytes(save_graph(graded_triangle_chain()))
        out = tmp_path / "ent.txt"
        argv = ["entropy", "--graph", str(gpath), "--k-ref", "3",
                "--delta-axis", "lin:0.4:0.92:8", "--photon-total", "4",
                "--cutoff-total", "4", "--cutoff-per-mode", "4",
                "--out", str(out)]
        run_twice_identical(argv, out)
        text = out.read_text()
        assert "# spearman_phi_entropy = " in text
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 9

    @pytest.mark.filterwarnings("error")
    def test_large_alpha_stays_finite(self, tmp_path):
        # sum(p**400) rounds to 0 at delta 0; h_alpha must not read inf.
        gpath = tmp_path / "g.json"
        assert main(["gen", "--n", "8", "--p", "0.6", "--seed", "1",
                     "--out", str(gpath)]) == 0
        out = tmp_path / "e.tsv"
        assert main(["entropy", "--graph", str(gpath), "--k-ref", "3",
                     "--delta-axis", "0,0.5", "--photon-total", "2",
                     "--alpha", "400", "--out", str(out)]) == 0
        rows = [l.split("\t") for l in out.read_text().splitlines()
                if not l.startswith("#")]
        h = float(rows[1][rows[0].index("h_alpha")])
        assert h == pytest.approx(2.3240, abs=1e-4)

    def test_huge_alpha_stays_finite_and_quiet(self, tmp_path):
        # alpha * ln(pmax) overflows here; h_alpha must stay finite and
        # numpy silent.
        from gbstopo.instances import graded_triangle_chain

        gpath = tmp_path / "chain.json"
        gpath.write_bytes(save_graph(graded_triangle_chain()))
        argv = ["entropy", "--graph", str(gpath), "--k-ref", "3",
                "--delta-axis", "lin:0.4:0.92:4", "--photon-total", "4",
                "--cutoff-total", "4", "--cutoff-per-mode", "4"]
        env = {**os.environ, "PYTHONPATH": str(Path(gbstopo.__file__).parents[1])}
        columns = {}
        for alpha in ("1e308", "1e300"):
            out = tmp_path / f"e{alpha}.tsv"
            proc = subprocess.run(
                [sys.executable, "-m", "gbstopo.cli", *argv, "--alpha", alpha,
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            rows = [l.split("\t") for l in out.read_text().splitlines()
                    if not l.startswith("#")]
            col = rows[0].index("h_alpha")
            columns[alpha] = [float(r[col]) for r in rows[1:]]
        assert all(map(math.isfinite, columns["1e308"]))
        assert columns["1e308"][0] > 2.5
        assert columns["1e308"] == pytest.approx(columns["1e300"])

    def test_undefined_normalization_exit_3(self, tmp_path, capsys):
        # C(10, 0) = 1; every threshold here is floored, so only a check
        # made before the sweep refuses it.
        from gbstopo.instances import graded_triangle_chain

        gpath = tmp_path / "chain.json"
        gpath.write_bytes(save_graph(graded_triangle_chain()))
        out = tmp_path / "e.tsv"
        assert main(["entropy", "--graph", str(gpath), "--k-ref", "3",
                     "--photon-total", "0", "--delta-axis", "2,3,4",
                     "--cutoff-total", "4", "--cutoff-per-mode", "4",
                     "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: normalization undefined: C(10,0) = 1\n"
        )


class TestEntropySampledBackend:
    def test_gbs_backend_runs_and_records_shots(self, tmp_path):
        gpath = tmp_path / "chain.json"
        from gbstopo.instances import graded_triangle_chain

        gpath.write_bytes(save_graph(graded_triangle_chain()))
        out = tmp_path / "ent.txt"
        assert main(["entropy", "--graph", str(gpath), "--k-ref", "3",
                     "--delta-axis", "0.4,0.6", "--photon-total", "2",
                     "--backend", "gbs", "--shots", "400", "--seed", "5",
                     "--cutoff-total", "4", "--cutoff-per-mode", "4",
                     "--out", str(out)]) == 0
        rows = [l.split("\t") for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        header, body = rows[0], rows[1:]
        assert [r[header.index("backend")] for r in body] == ["gbs", "gbs"]
        assert [r[header.index("shots")] for r in body] == ["400", "400"]


class TestSampleSourceEquivalence:
    def test_graph_and_encoding_paths_agree(self, tmp_path, graph_file):
        enc = tmp_path / "e.json"
        assert main(["encode", "--graph", str(graph_file), "--out",
                     str(enc)]) == 0
        via_graph = tmp_path / "a.jsonl"
        via_enc = tmp_path / "b.jsonl"
        assert main(["sample", "--graph", str(graph_file), "--backend",
                     "gbs", "--shots", "30", "--seed", "4",
                     "--out", str(via_graph)]) == 0
        assert main(["sample", "--encoding", str(enc), "--backend", "gbs",
                     "--shots", "30", "--seed", "4",
                     "--out", str(via_enc)]) == 0
        recs = lambda p: p.read_text().splitlines()[1:]
        assert recs(via_graph) == recs(via_enc)

    def test_uniform_takes_mode_count_from_encoding(self, tmp_path, graph_file):
        enc = tmp_path / "e.json"
        assert main(["encode", "--graph", str(graph_file), "--out",
                     str(enc)]) == 0
        draws = {}
        for source in (["--graph", str(graph_file)], ["--encoding", str(enc)]):
            out = tmp_path / "u.jsonl"
            assert main(["sample", *source, "--backend", "uniform", "--k", "3",
                         "--shots", "30", "--seed", "4", "--out", str(out)]) == 0
            draws[source[0]] = out.read_text().splitlines()[1:]
        assert draws["--graph"] == draws["--encoding"]
        assert len(draws["--graph"]) == 30

    def test_uniform_validates_encoding_file(self, tmp_path, capsys):
        enc = tmp_path / "e.json"
        enc.write_text('{"n": 3}')
        out = tmp_path / "u.jsonl"
        assert main(["sample", "--encoding", str(enc), "--backend", "uniform",
                     "--k", "2", "--shots", "3", "--seed", "0",
                     "--out", str(out)]) == 3
        assert not out.exists()
        assert "encoding lambdas must be a list of 3" in capsys.readouterr().err

    def test_uniform_without_source_names_every_flag(self, tmp_path, capsys):
        assert main(["sample", "--backend", "uniform", "--k", "2", "--shots",
                     "3", "--seed", "0", "--out", str(tmp_path / "u.jsonl")]) == 3
        assert ("uniform backend needs --graph, --encoding or --n-modes"
                in capsys.readouterr().err)


class TestCompareCmd:
    def test_enhancement_on_planted_instance(self, tmp_path):
        gpath = tmp_path / "planted.json"
        gpath.write_bytes(save_graph(planted_clique_graph()))
        out = tmp_path / "cmp.json"
        argv = ["compare", "--graph", str(gpath), "--k", "5",
                "--shots", "400", "--seed", "42", "--max-iters", "0",
                "--target-spectral", "0.95", "--out", str(out)]
        run_twice_identical(argv, out)
        doc = json.loads(out.read_text())
        assert set(doc["backends"]) == {"gbs", "uniform", "squashed"}
        for stats in doc["backends"].values():
            lo, hi = stats["interval_95"]
            assert lo <= stats["success_rate"] <= hi
        assert doc["enhancement"]["gbs_over_uniform"] is None or (
            doc["enhancement"]["gbs_over_uniform"] > 0
        )
        rates = {k: v["success_rate"] for k, v in doc["backends"].items()}
        ratio = doc["enhancement"]["gbs_over_squashed"]
        assert rates["squashed"] > 0
        assert ratio == rates["gbs"] / rates["squashed"]

    def test_ratios_are_null_without_a_k_clique(self, tmp_path):
        gpath = tmp_path / "path.json"
        gpath.write_bytes(save_graph(
            graph_from_edges(6, [(i, i + 1, 1.0) for i in range(5)])
        ))
        out = tmp_path / "cmp.json"
        assert main(["compare", "--graph", str(gpath), "--k", "3",
                     "--shots", "50", "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all(s["successes"] == 0 for s in doc["backends"].values())
        assert doc["enhancement"] == {
            "gbs_over_uniform": None, "gbs_over_squashed": None,
        }


class TestDryRunAndConfig:
    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gen", "--n", "5", "--p", "0.5", "--seed", "1",
                     "--out", str(out), "--dry-run"]) == 0
        assert not out.exists()
        printed = capsys.readouterr().out
        assert "n = 5" in printed

    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "p": 0.5, "seed": 9}))
        out = tmp_path / "g.json"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 6

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "p": 0.5, "seed": 9}))
        out = tmp_path / "g.json"
        assert main(["gen", "--config", str(cfg), "--n", "4",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 4

    def test_bad_config_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1,2,3]")
        assert main(["gen", "--config", str(cfg), "--out", "x"]) == 3
        assert capsys.readouterr().err == (
            "error: config must be a flat JSON object\n"
        )

    # Whatever stops the config being read or parsed is named after its path.
    @pytest.mark.parametrize("content", [None, b"{", b"\xff{}"],
                             ids=["missing", "not-json", "not-utf-8"])
    def test_unreadable_config_exit_3(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        try:
            if content is not None:
                cfg.write_bytes(content)
            json.loads(cfg.read_text())
        except (OSError, ValueError, RecursionError) as exc:
            want = f"error: cannot read config {cfg}: {exc}\n"
        out = tmp_path / "g.json"
        assert main(["gen", "--config", str(cfg), "--n", "4", "--p", "0.5",
                     "--seed", "0", "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("value", [True, False])
    def test_config_help_key_is_ignored(self, tmp_path, capsys, value):
        # help names no parameter, so the provenance must not record it.
        argv = ["gen", "--n", "4", "--p", "0.5", "--seed", "0"]
        outputs = []
        for doc in ({"help": value}, {}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            out = tmp_path / "g.json"
            run = [*argv, "--config", str(cfg), "--out", str(out)]
            assert main([*run, "--dry-run"]) == 0
            assert main(run) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]


# The smallest argv of every command. The input files are never created:
# --dry-run must not read them.
DRY_RUN_ARGV = {
    "gen": ["--n", "5", "--p", "0.5", "--seed", "1"],
    "encode": ["--graph", "{missing}"],
    "sample": ["--graph", "{missing}", "--shots", "3", "--seed", "1"],
    "dist": ["--graph", "{missing}"],
    "cliques": ["--graph", "{missing}", "--samples", "{missing}", "--k", "3"],
    "betti": ["--graph", "{missing}"],
    "surface": ["--graph", "{missing}", "--omega-axis", "0.5",
                "--delta-axis", "0"],
    "persistence": ["--graph", "{missing}", "--k", "3"],
    "percolation": ["--graph", "{missing}", "--k", "3"],
    "entropy": ["--graph", "{missing}", "--k-ref", "3", "--delta-axis", "0",
                "--photon-total", "2"],
    "compare": ["--graph", "{missing}", "--k", "3", "--seed", "1"],
}


class TestSingleReportPath:
    def test_every_command_is_covered(self):
        _, commands = build_parser()
        assert [p.prog.split()[-1] for p in commands] == list(DRY_RUN_ARGV)

    @pytest.mark.parametrize("command", list(DRY_RUN_ARGV))
    def test_dry_run_reads_and_writes_nothing(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        out = tmp_path / "out"
        argv = [a.format(missing=missing) for a in DRY_RUN_ARGV[command]]
        assert main([command, *argv, "--out", str(out), "--dry-run"]) == 0
        assert not out.exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(" = " in line for line in lines)
        assert f"out = {out}" in lines

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("inputs")
        graph, chain = work / "g.json", work / "chain.json"
        assert main(["gen", "--n", "8", "--p", "0.6", "--seed", "3",
                     "--out", str(graph)]) == 0
        from gbstopo.instances import graded_triangle_chain

        chain.write_bytes(save_graph(graded_triangle_chain()))
        samples = work / "s.jsonl"
        assert main(["sample", "--graph", str(graph), "--backend", "uniform",
                     "--k", "4", "--shots", "20", "--seed", "1",
                     "--out", str(samples)]) == 0
        return {"graph": str(graph), "chain": str(chain),
                "samples": str(samples)}

    RUNS = {
        "gen": ["--n", "5", "--p", "0.5", "--seed", "1"],
        "encode": ["--graph", "{graph}"],
        "sample": ["--graph", "{graph}", "--shots", "10", "--seed", "1"],
        "dist": ["--graph", "{graph}", "--cutoff-total", "2",
                 "--cutoff-per-mode", "2"],
        "cliques": ["--graph", "{graph}", "--samples", "{samples}", "--k", "3"],
        "betti": ["--graph", "{graph}", "--dmax", "1"],
        "surface": ["--graph", "{chain}", "--omega-axis", "0.5",
                    "--delta-axis", "0,0.5"],
        "persistence": ["--graph", "{graph}", "--k", "3"],
        "percolation": ["--graph", "{graph}", "--k", "3"],
        "entropy": ["--graph", "{chain}", "--k-ref", "3", "--delta-axis",
                    "0.4,0.6,0.8", "--photon-total", "2", "--cutoff-total",
                    "2", "--cutoff-per-mode", "2"],
        "compare": ["--graph", "{chain}", "--k", "3", "--shots", "20",
                    "--seed", "1"],
    }
    # Where each command puts its provenance.
    PLACES = {
        "gen": "last", "encode": "last", "dist": "last",
        "sample": "header_last",
        "cliques": "first", "percolation": "first", "compare": "first",
        "betti": "table", "surface": "table", "persistence": "table",
        "entropy": "table",
    }

    def test_places_cover_every_command(self):
        assert set(self.RUNS) == set(self.PLACES) == set(DRY_RUN_ARGV)

    @pytest.mark.parametrize("command", list(DRY_RUN_ARGV))
    def test_provenance_position(self, command, inputs, tmp_path):
        out = tmp_path / "out"
        argv = [a.format(**inputs) for a in self.RUNS[command]]
        assert main([command, *argv, "--out", str(out)]) == 0
        text = out.read_text()
        place = self.PLACES[command]
        if place == "table":
            lines = text.splitlines()
            assert lines[0] == f"# {command}"
            assert f"# out = {out}" in lines
            return
        if place == "header_last":
            doc = json.loads(text.splitlines()[0])
        else:
            assert text.endswith("}\n") and not text.endswith("\n\n")
            doc = json.loads(text)
        keys = list(doc)
        assert keys[0 if place == "first" else -1] == "provenance"
        assert doc["provenance"]["command"] == command
        assert doc["provenance"]["params"]["out"] == str(out)

    def test_config_supplies_required_flag_of_cliques(self, inputs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "max_iters": 7}))
        out = tmp_path / "r.json"
        assert main(["cliques", "--config", str(cfg), "--graph",
                     inputs["graph"], "--samples", inputs["samples"],
                     "--out", str(out)]) == 0
        params = json.loads(out.read_text())["provenance"]["params"]
        assert (params["k"], params["max_iters"]) == (3, 7)

    def test_config_does_not_leak_into_later_calls(self, inputs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3}))
        argv = ["cliques", "--graph", inputs["graph"], "--samples",
                inputs["samples"], "--out", str(tmp_path / "r.json")]
        assert main(argv + ["--config", str(cfg)]) == 0
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


class TestInputContract:
    def graph(self, tmp_path, n):
        path = tmp_path / f"g{n}.json"
        assert main(["gen", "--n", str(n), "--p", "0.9", "--seed", "1",
                     "--out", str(path)]) == 0
        return str(path)

    # Only the reject side is run: a graph at the cap is a 268 MB matrix.
    @pytest.mark.parametrize("command", [
        ["percolation", "--k", "3"], ["encode"], ["betti"],
    ])
    def test_graph_above_vertex_cap_exit_3(self, tmp_path, capsys, command):
        graph = tmp_path / "big.json"
        graph.write_text(json.dumps({"n": 4097, "edges": []}))
        out = tmp_path / "out"
        assert main([*command, "--graph", str(graph), "--out", str(out)]) == 3
        assert not out.exists()
        assert "vertex count 4097 is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("modes, vertices", [(10, 6), (6, 10)])
    def test_cliques_rejects_pattern_of_other_length(
        self, tmp_path, capsys, modes, vertices
    ):
        samples = tmp_path / "s.jsonl"
        assert main(["sample", "--n-modes", str(modes), "--backend",
                     "uniform", "--k", "3", "--shots", "5", "--seed", "1",
                     "--out", str(samples)]) == 0
        out = tmp_path / "r.json"
        code = main(["cliques", "--graph", self.graph(tmp_path, vertices),
                     "--samples", str(samples), "--k", "3", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{modes} modes" in err and f"{vertices} vertices" in err

    # json.loads raises RecursionError on nesting this deep.
    @pytest.mark.parametrize("flag, named", [
        ("--config", "cannot read config"),
        ("--graph", "graph document is not valid JSON"),
        ("--encoding", "encoding document is not valid JSON"),
        ("--samples", "bad sample file"),
    ])
    def test_deeply_nested_json_exit_3(self, tmp_path, capsys, flag, named):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = {
            "--config": ["gen", "--n", "4", "--p", "0.5", "--seed", "0"],
            "--graph": ["percolation", "--k", "3"],
            "--encoding": ["sample", "--backend", "gbs", "--shots", "3",
                           "--seed", "0"],
            "--samples": ["cliques", "--graph", self.graph(tmp_path, 6),
                          "--k", "3"],
        }[flag]
        out = tmp_path / "out"
        assert main([*argv, flag, str(deep), "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_exit_3(self, tmp_path, capsys, weight):
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps({"n": 3, "edges": [
            {"i": 0, "j": 1, "re": 1.0, "im": 0.0},
            {"i": 1, "j": 2, "re": weight, "im": 0.0},
        ]}))
        code = main(["encode", "--graph", str(gpath),
                     "--out", str(tmp_path / "e.json")])
        assert code == 3
        assert "edge (1,2)" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        ({"n": 3, "edges": 5}, "'edges' must be a list"),
        ({"n": True, "edges": []}, "invalid vertex count: True"),
        ({"n": 3, "edges": [{"i": 0.9, "j": 1.7, "re": 1.0, "im": 0.0}]},
         "edge indices must be integers in record {'i': 0.9, 'j': 1.7"),
        ({"n": 3, "edges": [{"i": False, "j": True, "re": 1.0, "im": 0.0}]},
         "edge indices must be integers in record {'i': False, 'j': True"),
    ])
    def test_bad_graph_fields_exit_3(self, tmp_path, capsys, doc, named):
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps(doc))
        code = main(["encode", "--graph", str(gpath),
                     "--out", str(tmp_path / "e.json")])
        assert code == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("pattern", [
        [1, 0, -1, 0, 0, 0], [1.7, 0, 0, 0, 0, 0],
    ])
    def test_bad_sample_counts_exit_3(self, tmp_path, capsys, pattern):
        samples = tmp_path / "s.jsonl"
        samples.write_text(
            json.dumps({"backend": "gbs", "seed": 0, "eta": 1.0}) + "\n"
            + json.dumps({"pattern": pattern}) + "\n"
        )
        out = tmp_path / "r.json"
        code = main(["cliques", "--graph", self.graph(tmp_path, 6),
                     "--samples", str(samples), "--k", "3", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert str(pattern) in capsys.readouterr().err

    def test_sample_header_shots_must_count_the_records(self, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        samples.write_text(
            json.dumps({"backend": "gbs", "seed": 0, "eta": 1.0, "shots": 7})
            + "\n" + json.dumps({"pattern": [1, 1, 1, 0, 0, 0]}) + "\n"
        )
        out = tmp_path / "r.json"
        code = main(["cliques", "--graph", self.graph(tmp_path, 6),
                     "--samples", str(samples), "--k", "3", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert "header shots 7 is not the record count 1" in capsys.readouterr().err

    def test_non_integer_sample_seed_exit_3(self, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        samples.write_text(
            json.dumps({"backend": "gbs", "seed": 1.9, "eta": 1.0}) + "\n"
            + json.dumps({"pattern": [1, 1, 1, 0, 0, 0]}) + "\n"
        )
        out = tmp_path / "r.json"
        code = main(["cliques", "--graph", self.graph(tmp_path, 6),
                     "--samples", str(samples), "--k", "3", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert "seed must be an integer in header" in capsys.readouterr().err

    @pytest.mark.parametrize("field, named", [
        ({"backend": 5}, "backend must be a string"),
        ({"eta": "0.5"}, "eta must be a number in [0, 1]"),
        ({"eta": True}, "eta must be a number in [0, 1]"),
        ({"eta": 1.5}, "eta must be a number in [0, 1]"),
        ({"cutoff_total": "x"}, "cutoffs must be non-negative integers or null"),
        ({"cutoff_per_mode": -1}, "cutoffs must be non-negative integers"),
        ({"cutoff_total": True}, "cutoffs must be non-negative integers"),
    ])
    def test_bad_sample_header_field_exit_3(self, tmp_path, capsys, field, named):
        header = {"backend": "gbs", "seed": 0, "eta": 1.0, "cutoff_total": None,
                  **field}
        samples = tmp_path / "s.jsonl"
        samples.write_text(json.dumps(header) + "\n"
                           + json.dumps({"pattern": [1, 1, 1, 0, 0, 0]}) + "\n")
        out = tmp_path / "r.json"
        code = main(["cliques", "--graph", self.graph(tmp_path, 6),
                     "--samples", str(samples), "--k", "3", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["12", 12.9, 12.0, True])
    def test_encoding_mode_count_must_be_an_integer(self, tmp_path, capsys, n):
        enc = tmp_path / "e.json"
        assert main(["encode", "--graph", self.graph(tmp_path, 12),
                     "--out", str(enc)]) == 0
        enc.write_text(json.dumps({**json.loads(enc.read_text()), "n": n}))
        out = tmp_path / "d.json"
        assert main(["dist", "--encoding", str(enc), "--cutoff-total", "2",
                     "--cutoff-per-mode", "2", "--out", str(out)]) == 3
        assert not out.exists()
        assert f"n must be a positive integer, got {n!r}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("argv, field, value, named", [
        (["dist"], "lambdas", [1.5, 0.2], "lambdas must lie in [0, 1)"),
        (["dist"], "lambdas", [0.5, -0.1], "lambdas must lie in [0, 1)"),
        (["dist"], "lambdas", [0.5, "0.2"], "lambdas must be a list of 2"),
        (["dist"], "lambdas", [0.5, float("nan")], "lambdas must be a list of 2"),
        (["sample", "--backend", "squashed", "--shots", "5", "--seed", "1"],
         "squeezings", [0.3], "squeezings must be a list of 2"),
        (["sample", "--backend", "gbs", "--shots", "5", "--seed", "1"],
         "squeezings", [0.3, True], "squeezings must be a list of 2"),
        (["dist"], "c", True, "c, d and each re, im of u must be finite"),
        (["dist"], "d", "0", "c, d and each re, im of u must be finite"),
        (["dist"], "u", [{"re": True, "im": 0.0}] + [{"re": 0.0, "im": 0.0}] * 3,
         "c, d and each re, im of u must be finite"),
        (["dist"], "u", [[0.0, 0.0]] * 4, "u must be a list of 4 {re, im} records"),
        (["dist"], "u", [{"re": 0.5, "im": 0.0}] * 4, "unitarity 5.00e-01"),
        (["dist"], "squeezings", [0.1, 0.1], "squeezings 7.67e-01"),
    ])
    def test_encoding_vectors_checked(
        self, tmp_path, capsys, argv, field, value, named
    ):
        enc = tmp_path / "e.json"
        assert main(["encode", "--graph", self.graph(tmp_path, 2),
                     "--out", str(enc)]) == 0
        enc.write_text(json.dumps({**json.loads(enc.read_text()), field: value}))
        out = tmp_path / "x.json"
        assert main([*argv, "--encoding", str(enc), "--out", str(out)]) == 3
        assert not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff, code, named", [
        # (10**12 + 1)**2 patterns, counted in closed form, exceed the budget.
        ("1000000000000", 4, "exceed the enumeration budget"),
        # 171! is not a finite float64.
        ("200", 3, "cutoff_total 200 and cutoff_per_mode 200"),
    ])
    def test_huge_cutoffs_exit_cleanly(self, tmp_path, capsys, cutoff, code, named):
        out = tmp_path / "d.json"
        assert main(["dist", "--graph", self.graph(tmp_path, 2),
                     "--cutoff-total", cutoff, "--cutoff-per-mode", cutoff,
                     "--out", str(out)]) == code
        assert not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["exact", "gbs"])
    def test_photon_total_above_cutoff_exit_3(self, tmp_path, capsys, backend):
        out = tmp_path / "ent.txt"
        code = main(["entropy", "--graph", self.graph(tmp_path, 6),
                     "--k-ref", "3", "--delta-axis", "0,0.5,0.9",
                     "--photon-total", "8", "--cutoff-total", "6",
                     "--backend", backend, "--shots", "20", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--photon-total 8" in err and "--cutoff-total 6" in err

    def test_squashed_photon_total_is_not_capped(self, tmp_path):
        # Squashed draws are not truncated, so any total can be conditioned.
        out = tmp_path / "ent.txt"
        assert main(["entropy", "--graph", self.graph(tmp_path, 8),
                     "--k-ref", "3", "--delta-axis", "0,0.5,0.9",
                     "--photon-total", "3", "--cutoff-total", "2",
                     "--backend", "squashed", "--shots", "20",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("command", ["gen", "sample", "compare", "entropy"])
    def test_negative_seed_names_flag(self, tmp_path, capsys, command):
        graph = self.graph(tmp_path, 6)
        flags = {
            "gen": ["--n", "5", "--p", "0.5"],
            "sample": ["--graph", graph, "--shots", "5"],
            "compare": ["--graph", graph, "--k", "3", "--shots", "5"],
            "entropy": ["--graph", graph, "--k-ref", "3", "--delta-axis",
                        "0,0.5,0.9", "--photon-total", "2"],
        }[command]
        out = tmp_path / "out"
        assert main([command, *flags, "--seed", "-1", "--out", str(out)]) == 3
        assert not out.exists()
        assert "--seed must be a non-negative integer, got -1" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("seed", [[1], 1.5])
    def test_config_seed_must_be_an_integer(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "p": 0.5, "seed": seed}))
        out = tmp_path / "g.json"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"--seed must be a non-negative integer, got {seed!r}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("cfg, named", [
        ({"n": 5.5}, "--n must be an integer in [1, 4096], got 5.5 (config key 'n')"),
        ({"n": True}, "--n must be an integer in [1, 4096], got True (config key 'n')"),
        ({"n": None}, "--n must be an integer in [1, 4096], got None (config key 'n')"),
        ({"p": "half"},
         "--p must be a number in [0, 1], got 'half' (config key 'p')"),
        ({"alpha_range": [0.2]}, "--alpha-range must be a list of 2 values, "
         "each a finite number, got [0.2] (config key 'alpha_range')"),
        ({"out": ["g.json"]}, "--out must be a string, got ['g.json']"),
        ({"dry_run": 1}, "--dry-run must be true or false, got 1"),
    ])
    def test_config_value_must_parse_as_its_flag(
        self, tmp_path, capsys, cfg, named
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 5, "p": 0.5, "seed": 1, **cfg}))
        out = tmp_path / "g.json"
        flags = [] if "out" in cfg else ["--out", str(out)]
        assert main(["gen", "--config", str(path), *flags]) == 3
        assert not out.exists()
        assert named in capsys.readouterr().err

    def test_config_value_is_converted_by_its_flag_type(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"n": "5", "p": 1, "seed": 1, "beta_range": [0, "0"]}
        ))
        out = tmp_path / "g.json"
        assert main(["gen", "--config", str(path), "--out", str(out)]) == 0
        params = json.loads(out.read_text())["provenance"]["params"]
        assert (params["n"], params["p"], params["beta_range"]) == (
            5, 1.0, [0.0, 0.0]
        )

    def test_bad_config_choice_exit_3_unless_overridden(self, tmp_path, capsys):
        graph = self.graph(tmp_path, 6)
        path = tmp_path / "cfg.json"
        # "exact" is an entropy backend, not a sample backend.
        path.write_text(json.dumps({"backend": "exact"}))
        argv = ["sample", "--graph", graph, "--shots", "5", "--seed", "1",
                "--config", str(path), "--out", str(tmp_path / "s.jsonl")]
        assert main(argv) == 3
        assert "--backend must be one of gbs, uniform, squashed, got 'exact'" in (
            capsys.readouterr().err
        )
        assert main(argv + ["--backend", "gbs"]) == 0

    @pytest.mark.parametrize("command, flags, named", [
        ("sample", ["--eta", "1.5"], "--eta must be a number in [0, 1], got 1.5"),
        ("sample", ["--eta", "-0.1"], "--eta must be a number in [0, 1]"),
        ("sample", ["--eta", "nan"], "--eta must be a number in [0, 1]"),
        ("sample", ["--shots", "-1"],
         "--shots must be a non-negative integer, got -1"),
        ("dist", ["--eta", "1.5"], "--eta must be a number in [0, 1]"),
        ("compare", ["--eta", "1.5"], "--eta must be a number in [0, 1]"),
        ("compare", ["--shots", "0"], "--shots must be a positive integer"),
        ("entropy", ["--shots", "-1"], "--shots must be a positive integer, got -1"),
        ("entropy", ["--shots", "0"], "--shots must be a positive integer, got 0"),
    ])
    def test_eta_and_shots_checked_at_the_flag(
        self, tmp_path, capsys, command, flags, named
    ):
        graph = self.graph(tmp_path, 6)
        base = {
            "sample": ["--shots", "5", "--seed", "1"],
            "dist": ["--cutoff-total", "2"],
            "compare": ["--k", "3", "--shots", "5", "--seed", "1"],
            "entropy": ["--k-ref", "3", "--delta-axis", "0,0.5",
                        "--photon-total", "2", "--backend", "gbs"],
        }[command]
        out = tmp_path / "out"
        argv = [command, "--graph", graph, *base, *flags, "--out", str(out)]
        assert main(argv) == 3
        assert not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--k", "0"], "--k must be a positive integer, got 0"),
        (["--k", "3", "--max-iters", "-1"],
         "--max-iters must be a non-negative integer, got -1"),
        (["--k", "3", "--eta", "1.5"], "--eta must be a number in [0, 1]"),
    ])
    def test_dry_run_checks_every_bounded_flag(
        self, tmp_path, capsys, flags, named
    ):
        argv = ["compare", "--graph", str(tmp_path / "none.json"),
                "--seed", "1", *flags, "--out", str(tmp_path / "r.json"),
                "--dry-run"]
        assert main(argv) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["dry-run", "config"])
    def test_entropy_zero_shots_rejected_before_running(
        self, tmp_path, capsys, how
    ):
        argv = ["entropy", "--graph", str(tmp_path / "none.json"), "--k-ref",
                "3", "--delta-axis", "0,0.5", "--photon-total", "2",
                "--backend", "gbs", "--out", str(tmp_path / "e.tsv")]
        if how == "dry-run":
            argv += ["--shots", "0", "--dry-run"]
            named = "--shots must be a positive integer, got 0"
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"shots": 0}))
            argv += ["--config", str(cfg)]
            named = "--shots must be a positive integer, got 0 (config key 'shots')"
        assert main(argv) == 3
        assert named in capsys.readouterr().err

    def test_config_eta_is_range_checked(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"eta": 1.5}))
        out = tmp_path / "d.json"
        assert main(["dist", "--graph", self.graph(tmp_path, 6),
                     "--config", str(path), "--out", str(out)]) == 3
        assert "--eta must be a number in [0, 1], got 1.5" in (
            capsys.readouterr().err
        )

    def test_surface_k_ref_below_two_exit_3(self, tmp_path, capsys):
        out = tmp_path / "surf.txt"
        code = main(["surface", "--graph", self.graph(tmp_path, 6),
                     "--omega-axis", "0.5", "--delta-axis", "0",
                     "--k-ref", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "--k-ref must be an integer in [2, 4096], got 1" in err

    @pytest.mark.parametrize("how", ["flag", "dry-run", "config"])
    @pytest.mark.parametrize("argv, key, value, want", [
        (["betti", "--delta-axis", "0.5"], "k_ref", 0, "an integer in [2, 4096]"),
        (["surface", "--omega-axis", "0.5"], "delta_axis", "1,0.5",
         "finite numbers v1,v2,... or lin:lo:hi:num, 1 to 10000 of them, "
         "in ascending order"),
        (["percolation", "--k", "3", "--k-ref", "3"], "delta_t", math.nan,
         "a finite number"),
        (["entropy", "--k-ref", "3", "--delta-axis", "0,0.5",
          "--photon-total", "2"], "alpha", math.nan,
         "a positive finite number"),
        (["gen", "--n", "5", "--p", "0.5", "--seed", "0"], "alpha_range",
         [math.nan, 1.0], "a list of 2 values, each a finite number"),
        (["encode"], "d", math.inf, "a finite number"),
        (["betti"], "dmax", -1, "an integer in [0, 4096]"),
        (["dist"], "cutoff_total", -1, "a non-negative integer"),
        (["sample", "--backend", "uniform", "--shots", "5", "--seed", "1",
          "--k", "0"], "n_modes", 0, "an integer in [1, 4096]"),
        (["sample", "--backend", "uniform", "--shots", "5", "--seed", "1",
          "--k", "1"], "n_modes", -3, "an integer in [1, 4096]"),
        (["sample", "--backend", "uniform", "--shots", "5", "--seed", "1"],
         "k", -1, "a non-negative integer"),
        (["gen", "--p", "0.5", "--seed", "0"], "n", 0, "an integer in [1, 4096]"),
        (["gen", "--n", "5", "--seed", "0"], "p", 1.5, "a number in [0, 1]"),
        (["encode"], "target_spectral", 1.0, "a number in (0, 1)"),
        (["dist"], "target_spectral", 0.0, "a number in (0, 1)"),
        (["entropy", "--k-ref", "3", "--delta-axis", "0,0.5"],
         "photon_total", -1, "a non-negative integer"),
        (["persistence"], "k", 1, "an integer in [2, 4096]"),
        (["percolation"], "k", 1, "an integer in [2, 4096]"),
        (["percolation", "--k", "3"], "damage_k", 1, "an integer in [2, 4096]"),
        # Vertex counts, clique sizes and dimensions stop at MAX_VERTICES.
        (["gen", "--p", "0.5", "--seed", "0"], "n", 4097,
         "an integer in [1, 4096]"),
        (["sample", "--backend", "uniform", "--shots", "5", "--seed", "1",
          "--k", "1"], "n_modes", 4097, "an integer in [1, 4096]"),
        (["betti"], "dmax", 4097, "an integer in [0, 4096]"),
        (["percolation"], "k", 4097, "an integer in [2, 4096]"),
        (["percolation", "--k", "3"], "damage_k", 10**30,
         "an integer in [2, 4096]"),
        (["surface", "--omega-axis", "0.5", "--delta-axis", "0"], "k_ref",
         4097, "an integer in [2, 4096]"),
        (["percolation", "--k", "3"], "damage_node", -1,
         "a non-negative integer"),
        (["entropy", "--k-ref", "3", "--delta-axis", "0,0.5",
          "--photon-total", "2"], "damage_k", 1, "an integer in [2, 4096]"),
        (["surface", "--delta-axis", "0"], "omega_axis", "lin:-0.5:1:4",
         "finite numbers v1,v2,... or lin:lo:hi:num, 1 to 10000 of them, "
         "in ascending order, none negative"),
    ])
    def test_numeric_flag_domain_names_the_flag(
        self, tmp_path, capsys, how, argv, key, value, want
    ):
        flag = "--" + key.replace("_", "-")
        if argv[0] != "gen":
            argv = [*argv, "--graph", self.graph(tmp_path, 6)]
        out = tmp_path / "out"
        argv = [*argv, "--out", str(out)]
        if how == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfg)]
        else:
            words = value if isinstance(value, list) else [value]
            argv += [flag, *map(str, words)]
            argv += ["--dry-run"] if how == "dry-run" else []
        assert main(argv) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"error: {flag} must be {want}, got {value!r}" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["encode", "--d", "0.9"], ["encode", "--d", "5"],
        ["encode", "--d", "-3"], ["dist", "--d", "1e308"],
    ])
    def test_shift_beyond_target_exit_3(self, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        argv = [*argv, "--graph", self.graph(tmp_path, 6), "--out", str(out)]
        assert main(argv) == 3
        assert not out.exists()
        assert "cannot reach target spectral value 0.7" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ['"0.5"', "true", "1" + "0" * 400],
                             ids=["string", "bool", "int-beyond-float"])
    def test_graph_weight_must_be_a_json_number(self, tmp_path, capsys, weight):
        gpath = tmp_path / "g.json"
        gpath.write_text('{"n": 2, "edges": [{"i": 0, "j": 1, "re": '
                         + weight + ', "im": 0}]}')
        out = tmp_path / "e.json"
        assert main(["encode", "--graph", str(gpath), "--out", str(out)]) == 3
        assert "edge (0,1) has a non-finite weight" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dist"],
        ["sample", "--backend", "gbs", "--shots", "5", "--seed", "1"],
        ["sample", "--backend", "squashed", "--shots", "5", "--seed", "1"],
    ])
    def test_encoding_source_required(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--graph" in err and "--encoding" in err

    @pytest.mark.parametrize("command", ["cliques", "compare"])
    @pytest.mark.parametrize("flags, named", [
        (["--k", "0"], "--k"),
        (["--k", "-1"], "--k"),
        (["--k", "3", "--max-iters", "-3"], "--max-iters"),
    ])
    def test_search_flags_rejected(
        self, tmp_path, capsys, command, flags, named
    ):
        graph = self.graph(tmp_path, 6)
        samples = tmp_path / "s.jsonl"
        assert main(["sample", "--graph", graph, "--backend", "gbs",
                     "--shots", "20", "--seed", "1",
                     "--out", str(samples)]) == 0
        inputs = {
            "cliques": ["--samples", str(samples)],
            "compare": ["--shots", "20", "--seed", "1"],
        }[command]
        out = tmp_path / "r.json"
        argv = [command, "--graph", graph, *inputs, *flags, "--out", str(out)]
        assert main(argv) == 3
        assert not out.exists()
        assert named in capsys.readouterr().err

    def test_pattern_budget_states_each_number_once(self, tmp_path, capsys):
        from gbstopo.sampler import PATTERN_BUDGET, count_patterns

        cutoff = 10**12
        out = tmp_path / "d.json"
        assert main(["dist", "--graph", self.graph(tmp_path, 2),
                     "--cutoff-total", str(cutoff),
                     "--cutoff-per-mode", str(cutoff), "--out", str(out)]) == 4
        required = count_patterns(2, cutoff, cutoff)
        assert capsys.readouterr().err == (
            f"error: {required} patterns exceed the enumeration budget "
            f"{PATTERN_BUDGET}\n"
        )

    def test_clique_budget_states_each_number_once(
        self, tmp_path, capsys, monkeypatch
    ):
        import gbstopo.cliques

        monkeypatch.setattr(gbstopo.cliques, "CLIQUE_BUDGET", 10)
        out = tmp_path / "b.txt"
        assert main(["betti", "--graph", self.graph(tmp_path, 6),
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: clique count exceeds budget 10\n"
        )

    @pytest.mark.parametrize("flag", ["--graph", "--encoding", "--samples"])
    def test_unreadable_input_names_its_flag(self, tmp_path, capsys, flag):
        graph = self.graph(tmp_path, 6)
        samples = tmp_path / "s.jsonl"
        assert main(["sample", "--graph", graph, "--backend", "gbs",
                     "--shots", "5", "--seed", "1",
                     "--out", str(samples)]) == 0
        argv = {
            "--graph": ["encode", "--graph", graph],
            "--encoding": ["dist", "--encoding", graph],
            "--samples": ["cliques", "--graph", graph, "--samples",
                          str(samples), "--k", "3"],
        }[flag]
        # A directory cannot be read as a file.
        argv[argv.index(flag) + 1] = str(tmp_path)
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 3
        assert not out.exists()
        assert f"cannot read {flag} {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing/x.json", "."])
    def test_unwritable_out_exit_3(self, tmp_path, capsys, where):
        out = tmp_path / where
        assert main(["gen", "--n", "5", "--p", "0.5", "--seed", "1",
                     "--out", str(out)]) == 3
        assert f"cannot write --out {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("betti", "--delta-axis"), ("surface", "--omega-axis"),
        ("surface", "--delta-axis"), ("entropy", "--delta-axis"),
    ])
    @pytest.mark.parametrize("spec", [
        ",", "", "lin:0:1:0", "lin:0:1:-2", "nan", "0,inf", "lin:0:inf:3",
        "lin:0:x:3", "lin:0:1", "lin:0:1:2.5", "0,a", "lin:0:1:10001",
        "lin:0:1:100000000000",
    ])
    def test_bad_axis_names_its_flag(
        self, tmp_path, capsys, command, flag, spec
    ):
        axes = {"--delta-axis": "0,0.5", "--omega-axis": "0.5,1.0"}
        axes[flag] = spec
        argv = {
            "betti": ["--k-ref", "3", "--delta-axis", axes["--delta-axis"]],
            "surface": ["--k-ref", "3", "--omega-axis", axes["--omega-axis"],
                        "--delta-axis", axes["--delta-axis"]],
            "entropy": ["--k-ref", "3", "--photon-total", "2",
                        "--delta-axis", axes["--delta-axis"]],
        }[command]
        out = tmp_path / "t.tsv"
        assert main([command, "--graph", self.graph(tmp_path, 6), *argv,
                     "--out", str(out)]) == 3
        assert not out.exists()
        assert f"{flag} must be finite numbers" in capsys.readouterr().err

    # argparse reads "-1,0.3" after a space as an unknown flag (exit 2);
    # joined with '=' it is the axis value.
    @pytest.mark.parametrize("command", ["betti", "surface", "entropy"])
    def test_axis_starting_with_minus_joins_with_equals(
        self, tmp_path, capsys, command
    ):
        argv = {
            "betti": ["--k-ref", "3"],
            "surface": ["--k-ref", "3", "--omega-axis=0.5,1.0"],
            "entropy": ["--k-ref", "3", "--photon-total", "2"],
        }[command]
        out = tmp_path / "t.tsv"
        assert main([command, "--graph", self.graph(tmp_path, 6), *argv,
                     "--delta-axis=-1,0.3", "--out", str(out)]) == 0
        assert "# delta_axis = -1,0.3\n" in out.read_text()

    def test_every_axis_help_shows_the_equals_form(self):
        _, commands = build_parser()
        axes = [a for p in commands for a in p._actions
                if a.dest in ("omega_axis", "delta_axis")]
        assert len(axes) == 4
        assert all("--delta-axis=-1,0.3" in a.help for a in axes)

    # np.linspace for 800 GB on the last spec.
    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("spec, code", [
        ("lin:0:1:10000", 0), ("lin:0:1:10001", 3),
        ("lin:0:1:100000000000", 3), ("0,nan", 3),
    ])
    def test_axis_checked_with_the_other_flags(
        self, tmp_path, capsys, how, spec, code
    ):
        argv = ["surface", "--graph", self.graph(tmp_path, 6), "--k-ref", "3",
                "--omega-axis", "0.5,1.0", "--out", str(tmp_path / "t.tsv"),
                "--dry-run"]
        if how == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"delta_axis": spec}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--delta-axis", spec]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert "--delta-axis must be finite numbers" in captured.err
        else:
            assert f"delta_axis = {spec}\n" in captured.out


# A finder ahead of every other one, refusing each scipy module.
_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, NoScipy())
from gbstopo.cli import main
print(*[main(argv) for argv in RUNS])
"""


class TestRunsWithoutScipy:
    """No command needs scipy: each runs in a fresh interpreter that cannot
    import any scipy module and writes the bytes of an unblocked run."""

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        chain = str(tmp_path / "chain.json")
        sampled = ["--k-ref", "3", "--delta-axis", "lin:0.4:0.92:4",
                   "--photon-total", "2", "--cutoff-total", "4",
                   "--cutoff-per-mode", "4", "--shots", "200", "--seed", "3"]
        runs = criterion_9_commands(tmp_path) + [
            ["entropy", "--graph", chain, *sampled, "--backend", backend,
             "--out", str(tmp_path / f"ent_{backend}.txt")]
            for backend in ("gbs", "squashed")
        ]
        outs = [Path(argv[argv.index("--out") + 1]) for argv in runs]
        assert len(set(outs)) == len(runs)
        env = {**os.environ,
               "PYTHONPATH": str(Path(gbstopo.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY.replace("RUNS", repr(runs))],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"] * len(runs), proc.stderr
        blocked = [out.read_bytes() for out in outs]
        for argv in runs:
            assert main(argv) == 0
        assert [out.read_bytes() for out in outs] == blocked
