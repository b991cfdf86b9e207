"""The template writers of the bulk formats must write the same bytes as
json.dumps does (tests/helpers.reference_save_*), and refuse values that
json would spell NaN or Infinity."""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gbstopo.errors import InvariantError
from gbstopo.graph import ComplexGraph, random_dual_layer, save_graph
from gbstopo.sampler import (
    PatternDistribution,
    SampleBatch,
    _lattice,
    save_batch,
    save_distribution,
)
from helpers import (
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
    """Laws on lattices of 1-3 modes with drawn probabilities and mass."""
    lat = _lattice(draw(st.integers(1, 3)), draw(st.integers(0, 4)),
                   draw(st.integers(0, 3)))
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


class TestBatchWriter:
    @WRITERS
    @given(b=batches(), provenance=provenances)
    def test_matches_json_oracle(self, b, provenance):
        want = reference_save_batch(b, provenance=provenance)
        assert save_batch(b, provenance=provenance) == want
