"""The writers of the bulk formats and of the cliques report must write the
same bytes as json.dumps does (tests/helpers.reference_save_* and
reference_cliques_report), wherever the chunks of the column writers fall,
and the bulk formats refuse values that json would spell NaN or Infinity."""

import math
import re
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gbstopo.cliques as cliques_mod
import gbstopo.graph as graph_mod
from gbstopo.cli import main
from gbstopo.cliques import Clique, SearchReport
from gbstopo.encoding import encode
from gbstopo.errors import InvariantError
from gbstopo.graph import ComplexGraph, load_graph, random_dual_layer, save_graph
from gbstopo.instances import planted_clique_graph
from gbstopo.sampler import (
    PatternDistribution,
    SampleBatch,
    _lattice,
    apply_loss,
    enumerate_distribution,
    load_batch,
    sample,
    save_batch,
    save_distribution,
)
from helpers import (
    reference_cliques_report,
    reference_edges,
    reference_save_batch,
    reference_save_distribution,
    reference_save_graph,
)

WRITERS = settings(max_examples=60, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

# Spellings json and repr must agree on: signed zero, the smallest
# subnormal, a float near the top of the range and integral floats.
floats = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0,
                          -3.0, 2.0**60, 0.1]) | st.floats(allow_nan=False,
                                                           allow_infinity=False)
texts = st.sampled_from([
    '"entries": []', '"edges": []', '\n "entries": []', '\n "edges": []',
    'quote " and backslash \\', "line\nbreak", "naïve ☃ \U0001f600",
]) | st.text(max_size=6)
provenances = st.none() | st.dictionaries(
    st.sampled_from(["entries", "edges", "params"]) | texts,
    st.recursive(
        st.none() | st.booleans() | st.integers() | floats | texts,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(texts, inner, max_size=3),
        max_leaves=6,
    ),
    max_size=4,
)


# The planted 6/6 law: 18,564 records over several chunks, counts up to 6,
# and every odd total's probability exactly 0.0 when lossless.
PLANTED_LAW = enumerate_distribution(encode(planted_clique_graph(), 0.95), 6, 6)


@st.composite
def graphs(draw):
    """Symmetric graphs with n <= 8 whose present edges carry drawn floats;
    about one in four has no edges."""
    n = draw(st.integers(1, 8))
    w = np.zeros((n, n), dtype=complex)
    if draw(st.integers(0, 3)):
        iu, ju = np.triu_indices(n, k=1)
        for i, j in zip(iu, ju):
            if draw(st.booleans()):
                w[i, j] = w[j, i] = complex(draw(floats), draw(floats))
    return ComplexGraph(n, w)


@st.composite
def distributions(draw):
    """Laws on lattices of 1-3 modes with drawn probabilities and mass; the
    1-mode 12/12 and 2-mode 11/10 lattices hold two-digit counts."""
    shape = st.tuples(st.integers(1, 3), st.integers(0, 4), st.integers(0, 3))
    lat = _lattice(*draw(shape | st.sampled_from([(1, 12, 12), (2, 11, 10)])))
    probs = draw(st.lists(floats, min_size=len(lat.counts),
                          max_size=len(lat.counts)))
    return PatternDistribution(lat, np.array(probs, dtype=float), draw(floats))


@st.composite
def batches(draw):
    """Batches of 0-6 shots over 0-4 modes, counts up to 2^63 - 1."""
    width = draw(st.integers(0, 4))
    counts = st.integers(0, 3) | st.sampled_from([10**6, 2**62, 2**63 - 1])
    rows = draw(st.lists(st.lists(counts, min_size=width, max_size=width),
                         max_size=6))
    cutoff = st.none() | st.integers(0, 8)
    return SampleBatch(
        patterns=np.array(rows, dtype=np.int64).reshape(len(rows), width),
        seed=draw(st.integers(0, 2**64)), backend=draw(texts),
        loss_eta=draw(st.sampled_from([1.0, 0.8, 0.0, 5e-324, 1.0 / 3])),
        cutoff_total=draw(cutoff), cutoff_per_mode=draw(cutoff),
    )


class TestGraphWriter:
    @WRITERS
    @given(g=graphs(), provenance=provenances)
    @example(g=random_dual_layer(6, 0.0, seed=0), provenance={"p": 0.0})
    @example(g=ComplexGraph(1, np.zeros((1, 1))), provenance=None)
    @example(g=random_dual_layer(12, 0.5, seed=3), provenance={"command": "gen"})
    def test_matches_json_oracle(self, g, provenance):
        want = reference_save_graph(g, provenance=provenance)
        assert save_graph(g, provenance=provenance) == want

    @WRITERS
    @given(g=graphs())
    @example(g=random_dual_layer(12, 0.5, seed=3))
    def test_edges_keep_order_and_values(self, g):
        got = list(g.edges())
        assert got == list(reference_edges(g))
        assert all(type(w) is complex for _, _, w in got)

    # No graph holds a weight that json would spell NaN or Infinity: the
    # constructor refuses it, so save_graph never meets one.
    @pytest.mark.parametrize("bad", [complex(0.25, math.inf),
                                     complex(-math.inf, 0.0),
                                     complex(math.nan, 0.5)])
    def test_non_finite_weight_refused(self, bad):
        w = np.zeros((3, 3), dtype=complex)
        w[0, 1] = w[1, 0] = 0.5
        w[1, 2] = w[2, 1] = bad
        with pytest.raises(ValueError, match=r"weight \(1,2\) .* is not finite"):
            ComplexGraph(3, w)


class TestDistributionWriter:
    @WRITERS
    @given(d=distributions(), provenance=provenances)
    @example(d=PLANTED_LAW, provenance=None)
    @example(d=apply_loss(PLANTED_LAW, 0.8), provenance={"command": "dist"})
    def test_matches_json_oracle(self, d, provenance):
        want = reference_save_distribution(d, provenance=provenance)
        assert save_distribution(d, provenance=provenance) == want

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_probability_refused(self, bad):
        lat = _lattice(2, 2, 2)
        probs = np.full(len(lat.counts), 0.1)
        probs[3] = bad
        d = PatternDistribution(lat, probs, 0.6)
        pattern = re.escape(str(lat.counts[3].tolist()))
        with pytest.raises(InvariantError,
                           match=f"probability .* of pattern {pattern}"):
            save_distribution(d)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_mass_refused(self, bad):
        lat = _lattice(1, 2, 2)
        d = PatternDistribution(lat, np.full(len(lat.counts), 0.2), bad)
        with pytest.raises(InvariantError, match="distribution mass"):
            save_distribution(d)


# Chunks of 1-3 records put chunk edges inside small lattices and graphs.
@pytest.mark.parametrize("chunk", [1, 2, 3])
@WRITERS
@given(d=distributions(), g=graphs(), provenance=provenances)
def test_chunk_edges_keep_bytes(chunk, d, g, provenance):
    with patch.object(graph_mod, "RECORD_CHUNK", chunk):
        assert (save_distribution(d, provenance=provenance)
                == reference_save_distribution(d, provenance=provenance))
        assert (save_graph(g, provenance=provenance)
                == reference_save_graph(g, provenance=provenance))


class TestBatchWriter:
    @WRITERS
    @given(b=batches(), provenance=provenances)
    def test_matches_json_oracle(self, b, provenance):
        want = reference_save_batch(b, provenance=provenance)
        assert save_batch(b, provenance=provenance) == want


# Names for the cliques report: each holds a quote, a backslash, a newline,
# non-ASCII text or the report's own list key, all of which json escapes.
NAMES = ['q"uote \\ back', "line\nbreak", "naïve ☃ \U0001f600",
         '"cliques": []', '\n "cliques": []', "plain"]


@st.composite
def search_reports(draw):
    """Reports whose 0-8 successes repeat a pool of 1-3 cliques; densities
    include 0.0 (one vertex), 5e-324, 1e308 and the inf of an overflowing
    weight sum."""
    densities = st.sampled_from([0.0, 5e-324, 1e308, math.inf, 1.0]) | st.floats(
        min_value=0.0, allow_nan=False)
    cliques = st.builds(
        lambda vs, d: Clique(tuple(sorted(vs)), len(vs), d),
        st.sets(st.integers(0, 11), min_size=1, max_size=6), densities,
    )
    pool = draw(st.lists(cliques, min_size=1, max_size=3))
    found = draw(st.lists(st.sampled_from(pool), max_size=8))
    shots = len(found) + draw(st.integers(0, 3))
    hist = Counter(c.density for c in found)
    return SearchReport(
        shots_in=shots, cliques_found=tuple(found),
        success_rate=len(found) / shots if shots else 0.0,
        density_histogram=dict(sorted(hist.items())),
    )


@pytest.fixture(scope="module")
def clique_inputs(tmp_path_factory):
    """The planted graph and a GBS batch, in a directory whose name json
    escapes."""
    d = tmp_path_factory.mktemp("report") / NAMES[0] / NAMES[1] / NAMES[2]
    d.mkdir(parents=True)
    g = planted_clique_graph()
    graph, samples = d / "planted.json", d / "gbs.jsonl"
    graph.write_bytes(save_graph(g))
    samples.write_bytes(save_batch(sample("gbs", encode(g, 0.95), 300, 42)))
    return graph, samples


def _cliques_run(graph, samples, out, k, max_iters=50):
    """Run the cliques command; return its bytes and the provenance the
    report should carry."""
    argv = ["cliques", "--graph", str(graph), "--samples", str(samples),
            "--k", str(k), "--max-iters", str(max_iters), "--out", str(out)]
    assert main(argv) == 0
    params = {"graph": str(graph), "k": k, "max_iters": max_iters,
              "out": str(out), "samples": str(samples)}
    return out.read_bytes(), {"command": "cliques", "params": params}


class TestCliquesReportWriter:
    @WRITERS
    @given(report=search_reports(), name=st.sampled_from(NAMES))
    @example(report=SearchReport(0, (), 0.0, {}), name="plain")
    @example(report=SearchReport(5, (), 0.0, {}), name='"cliques": []')
    def test_matches_json_oracle(self, clique_inputs, report, name):
        graph, samples = clique_inputs
        with patch.object(cliques_mod, "find_cliques", return_value=report):
            got, provenance = _cliques_run(graph, samples, graph.parent / name, 5)
        assert got == reference_cliques_report(report, provenance)

    # Real searches: one vertex (density 0.0), repeats of one clique,
    # several distinct cliques and none found.
    @pytest.mark.parametrize("k, max_iters", [(1, 50), (2, 50), (3, 0), (5, 50),
                                              (5, 0), (8, 50)])
    def test_search_matches_json_oracle(self, clique_inputs, k, max_iters):
        graph, samples = clique_inputs
        got, provenance = _cliques_run(graph, samples, graph.parent / NAMES[3],
                                       k, max_iters)
        report = cliques_mod.find_cliques(load_graph(graph.read_bytes()),
                                          load_batch(samples.read_bytes()),
                                          k, max_iters)
        assert got == reference_cliques_report(report, provenance)
