import json
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbstopo.encoding import encode
from gbstopo.errors import (
    BudgetError,
    EmptyConditionError,
    FormatError,
    InvariantError,
)
from gbstopo.graph import ComplexGraph, graph_from_edges
from gbstopo.sampler import (
    BACKENDS,
    COLLISION_POLICIES,
    SampleBatch,
    _lattice,
    apply_loss,
    conditional_from_distribution,
    conditional_pattern_histogram,
    count_patterns,
    enumerate_distribution,
    hafnian,
    load_batch,
    load_distribution,
    pattern_probability,
    sample,
    sample_gbs,
    sample_squashed,
    sample_uniform,
    save_batch,
    save_distribution,
)
from helpers import (
    lossy_entries,
    matching_sum_hafnian,
    reference_batch_loss,
    reference_conditional,
)


def single_mode_encoding(lam):
    g = ComplexGraph(1, np.zeros((1, 1), dtype=complex))
    return encode(g, 0.7, d=lam)


def tmsv_encoding(t):
    return encode(graph_from_edges(2, [(0, 1, 1.0)]), t)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return (a + a.T) / 2


class TestHafnian:
    def test_two_by_two(self):
        assert hafnian(np.array([[0, 3.0], [3.0, 0]])) == pytest.approx(3.0)

    def test_k4_has_three_matchings(self):
        m = np.ones((4, 4)) - np.eye(4)
        assert hafnian(m) == pytest.approx(3.0)

    def test_empty_matrix(self):
        assert hafnian(np.zeros((0, 0))) == pytest.approx(1.0)

    def test_odd_dimension_is_zero(self):
        assert hafnian(np.zeros((3, 3))) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hafnian(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            hafnian(np.array([[0, 1.0], [0.5, 0]]))

    def test_matches_matching_sum_8x8(self):
        m = random_symmetric(8, seed=0)
        got, want = hafnian(m), matching_sum_hafnian(m)
        assert abs(got - want) / abs(want) < 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_matching_sum_random(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6)) * 2
        m = random_symmetric(dim, seed)
        got, want = hafnian(m), matching_sum_hafnian(m)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestPatternProbability:
    def test_single_mode_vacuum(self):
        e = single_mode_encoding(0.45)
        r = e.squeezings[0]
        assert pattern_probability(e, (0,)) == pytest.approx(
            1 / math.cosh(r), abs=1e-12
        )

    def test_single_mode_pair(self):
        e = single_mode_encoding(0.45)
        r = e.squeezings[0]
        want = 0.5 * math.tanh(r) ** 2 / math.cosh(r)
        assert pattern_probability(e, (2,)) == pytest.approx(want, abs=1e-12)

    def test_tmsv_diagonal(self):
        t = 0.6
        e = tmsv_encoding(t)
        r = math.atanh(t)
        assert pattern_probability(e, (1, 1)) == pytest.approx(
            t**2 / math.cosh(r) ** 2, abs=1e-12
        )

    def test_odd_total_is_exactly_zero(self):
        e = tmsv_encoding(0.5)
        assert pattern_probability(e, (1, 0)) == 0.0
        assert pattern_probability(e, (2, 1)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pattern_probability(tmsv_encoding(0.5), (1, 1, 0))


class TestEnumerateDistribution:
    def test_vacuum_only(self):
        g = ComplexGraph(2, np.zeros((2, 2), dtype=complex))
        e = encode(g, 0.5, d=1e-15)
        d = enumerate_distribution(e, 4, 4)
        assert d.entries[(0, 0)] == pytest.approx(1.0)
        assert d.mass == pytest.approx(1.0)

    def test_single_mode_mass(self):
        d = enumerate_distribution(single_mode_encoding(0.5), 8, 8)
        want = sum(
            0.5 ** (2 * n)
            * math.factorial(2 * n)
            / (4**n * math.factorial(n) ** 2)
            for n in range(5)
        ) * math.sqrt(1 - 0.25)
        assert d.mass == pytest.approx(want, abs=1e-12)
        assert d.mass >= 0.999

    def test_tmsv_closed_form(self):
        t = 0.6
        d = enumerate_distribution(tmsv_encoding(t), 10, 10)
        r = math.atanh(t)
        for n in range(6):
            assert d.entries[(n, n)] == pytest.approx(
                t ** (2 * n) / math.cosh(r) ** 2, abs=1e-10
            )
        off = [v for k, v in d.entries.items() if k[0] != k[1]]
        assert max(off) < 1e-20

    def test_mass_monotone_in_cutoff(self):
        e = tmsv_encoding(0.7)
        masses = [enumerate_distribution(e, c, c).mass for c in (2, 4, 6, 8)]
        assert all(a < b for a, b in zip(masses, masses[1:]))

    def test_budget_error(self, monkeypatch):
        import gbstopo.sampler as smp

        e = tmsv_encoding(0.5)
        monkeypatch.setattr(smp, "PATTERN_BUDGET", 5)
        with pytest.raises(BudgetError) as exc_info:
            enumerate_distribution(e, 10, 10)
        assert exc_info.value.required == count_patterns(2, 10, 10)

    def test_count_patterns_matches_enumeration(self):
        listed = list(map(tuple, _lattice(3, 4, 2).counts.tolist()))
        assert len(listed) == count_patterns(3, 4, 2) == 23
        assert len(set(listed)) == len(listed)

    @given(st.integers(0, 4), st.integers(0, 12), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_count_patterns_matches_brute_force(self, n, total, per_mode):
        brute = sum(
            1 for p in product(range(per_mode + 1), repeat=n) if sum(p) <= total
        )
        assert count_patterns(n, total, per_mode) == brute

    def test_unreachable_cutoff_total_changes_nothing(self):
        # Totals above n_modes * cutoff_per_mode cannot occur.
        assert count_patterns(2, 10**12, 2) == count_patterns(2, 4, 2) == 9
        assert np.array_equal(_lattice(2, 10**12, 2).counts, _lattice(2, 4, 2).counts)


class TestSampleGbs:
    def test_vacuum_encoding_all_zero(self):
        g = ComplexGraph(3, np.zeros((3, 3), dtype=complex))
        e = encode(g, 0.5, d=1e-15)
        b = sample_gbs(e, 20, 4, 4, seed=0)
        assert np.array_equal(b.patterns, np.zeros((20, 3)))

    def test_deterministic(self):
        e = tmsv_encoding(0.6)
        a = sample_gbs(e, 100, 8, 8, seed=9)
        b = sample_gbs(e, 100, 8, 8, seed=9)
        assert np.array_equal(a.patterns, b.patterns)

    def test_tmsv_ratio(self):
        t = 0.6
        e = tmsv_encoding(t)
        b = sample_gbs(e, 10_000, 10, 10, seed=3)
        c = Counter(map(tuple, b.patterns.tolist()))
        ratio = c[(1, 1)] / c[(0, 0)]
        p00 = 1 - t * t
        sigma = math.sqrt(10_000 * p00 * t * t * (1 + t * t))
        assert abs(c[(1, 1)] - t * t * c[(0, 0)]) < 3 * sigma
        assert ratio == pytest.approx(t * t, rel=0.15)


class TestPermutationEquivariance:
    def test_pattern_probabilities_permute_with_vertices(self):
        from gbstopo.graph import random_dual_layer
        from helpers import relabel

        g = random_dual_layer(4, 0.8, seed=19)
        perm = [2, 0, 3, 1]
        h = relabel(g, perm)
        eg, eh = encode(g, 0.6), encode(h, 0.6)
        for p in [(1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 1, 2), (1, 1, 1, 1)]:
            mapped = [0] * 4
            for mode, c in enumerate(p):
                mapped[perm[mode]] = c
            assert pattern_probability(eg, p) == pytest.approx(
                pattern_probability(eh, tuple(mapped)), abs=1e-12
            )


class TestSampleUniform:
    def test_k_equals_modes(self):
        b = sample_uniform(4, 4, 10, seed=0)
        assert np.array_equal(b.patterns, np.ones((10, 4)))

    def test_k_zero(self):
        b = sample_uniform(4, 0, 10, seed=0)
        assert np.array_equal(b.patterns, np.zeros((10, 4)))

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            sample_uniform(3, 4, 1, seed=0)

    def test_subset_frequencies(self):
        shots = 100_000
        b = sample_uniform(6, 3, shots, seed=1)
        counts = Counter(map(tuple, b.patterns.tolist()))
        assert len(counts) == 20
        sigma = math.sqrt(shots * 0.05 * 0.95)
        for pattern, c in counts.items():
            assert sum(pattern) == 3
            assert abs(c - shots * 0.05) < 3 * sigma


class TestSampleSquashed:
    def test_no_squeezing_gives_vacuum(self):
        g = ComplexGraph(3, np.zeros((3, 3), dtype=complex))
        e = encode(g, 0.5, d=1e-15)
        b = sample_squashed(e, 50, seed=2)
        assert np.array_equal(b.patterns, np.zeros((50, 3)))

    def test_single_mode_mean(self):
        e = single_mode_encoding(0.5)
        shots = 100_000
        b = sample_squashed(e, shots, seed=4)
        totals = np.array([sum(p) for p in b.patterns])
        want = (math.exp(2 * e.squeezings[0]) - 1) / 4
        # var(count) = E[lam] + 2 E[lam]^2 heuristic bound via sample std
        assert abs(totals.mean() - want) < 3 * totals.std() / math.sqrt(shots)

    def test_total_mean_invariant_under_unitary(self):
        # same squeezing spectrum behind two different interferometers
        e1 = encode(graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]), 0.55)
        e2 = encode(
            graph_from_edges(4, [(0, 2, 1.0), (1, 3, 0.99)]), 0.55
        )
        assert np.allclose(e1.lambdas, e2.lambdas, atol=0.01)
        shots = 60_000
        m1 = np.mean([sum(p) for p in sample_squashed(e1, shots, 7).patterns])
        m2 = np.mean([sum(p) for p in sample_squashed(e2, shots, 8).patterns])
        assert m1 == pytest.approx(m2, rel=0.05)

    def test_deterministic(self):
        e = tmsv_encoding(0.5)
        assert np.array_equal(
            sample_squashed(e, 64, seed=5).patterns,
            sample_squashed(e, 64, seed=5).patterns,
        )


class TestApplyLoss:
    def test_eta_one_is_identity_on_batches(self):
        b = SampleBatch(patterns=((1, 2), (0, 4)), seed=0, backend="x")
        assert np.array_equal(apply_loss(b, 1.0, seed=1).patterns, b.patterns)

    def test_eta_zero_gives_vacuum(self):
        b = SampleBatch(patterns=((1, 2), (3, 0)), seed=0, backend="x")
        assert np.array_equal(
            apply_loss(b, 0.0, seed=1).patterns, np.zeros((2, 2))
        )

    def test_distribution_mean_halves(self):
        d = enumerate_distribution(tmsv_encoding(0.6), 10, 10)
        lossy = apply_loss(d, 0.5)
        mean = sum(sum(p) * w for p, w in d.entries.items())
        mean_lossy = sum(sum(p) * w for p, w in lossy.entries.items())
        assert mean_lossy == pytest.approx(0.5 * mean, abs=1e-12)
        assert lossy.mass == pytest.approx(d.mass, abs=1e-12)

    def test_distribution_eta_zero_point_mass(self):
        d = enumerate_distribution(tmsv_encoding(0.6), 6, 6)
        lossy = apply_loss(d, 0.0)
        assert lossy.entries[(0, 0)] == pytest.approx(d.mass)

    def test_batch_thinning_statistics(self):
        b = SampleBatch(patterns=tuple([(8,)] * 4000), seed=0, backend="x")
        thinned = apply_loss(b, 0.25, seed=3)
        mean = np.mean([p[0] for p in thinned.patterns])
        assert mean == pytest.approx(2.0, abs=3 * math.sqrt(8 * 0.25 * 0.75 / 4000))

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            apply_loss(SampleBatch(patterns=(), seed=0, backend="x"), 1.5)


class TestConditionalHistogram:
    def batch(self):
        return SampleBatch(
            patterns=((1, 1, 0), (1, 1, 0), (2, 0, 0)), seed=0, backend="x"
        )

    def test_collision_free_only(self):
        hist = conditional_pattern_histogram(self.batch(), 2, "collision_free_only")
        assert hist == {(1, 1, 0): 1.0}

    def test_threshold_collapse(self):
        hist = conditional_pattern_histogram(self.batch(), 2, "threshold_collapse")
        assert hist[(1, 1, 0)] == pytest.approx(2 / 3)
        assert hist[(1, 0, 0)] == pytest.approx(1 / 3)

    def test_empty_batch_raises(self):
        b = SampleBatch(patterns=(), seed=0, backend="x")
        with pytest.raises(EmptyConditionError):
            conditional_pattern_histogram(b, 2, "threshold_collapse")

    def test_no_matching_total_raises(self):
        with pytest.raises(EmptyConditionError):
            conditional_pattern_histogram(self.batch(), 6, "threshold_collapse")

    def test_distribution_variant_matches_closed_form(self):
        t = 0.6
        d = enumerate_distribution(tmsv_encoding(t), 8, 8)
        hist = conditional_from_distribution(d, 2, "collision_free_only")
        assert hist == {(1, 1): 1.0}
        hist2 = conditional_from_distribution(d, 2, "threshold_collapse")
        # (1,1) vs collapsed (2,0) and (0,2); P(2,0)=P(0,2)=0 for TMSV
        assert hist2[(1, 1)] == pytest.approx(1.0)


class TestOneConditioning:
    def test_batch_values_are_whole_counts_over_selected(self):
        b = SampleBatch(
            patterns=((1, 1, 0),) * 3 + ((2, 0, 0),) * 4 + ((0, 1, 0),),
            seed=0, backend="x",
        )
        hist = conditional_pattern_histogram(b, 2, "threshold_collapse")
        assert hist == {(1, 0, 0): 4 / 7, (1, 1, 0): 3 / 7}

    def test_batch_and_distribution_share_one_function(self):
        assert conditional_pattern_histogram is conditional_from_distribution

    def test_policy_checked_before_the_condition(self):
        d = enumerate_distribution(tmsv_encoding(0.5), 4, 4)
        with pytest.raises(ValueError, match="collision policy") as err:
            conditional_from_distribution(d, 3, "bogus")
        assert not isinstance(err.value, EmptyConditionError)
        b = SampleBatch(patterns=(), seed=0, backend="x")
        with pytest.raises(ValueError, match="collision policy"):
            conditional_pattern_histogram(b, 2, "bogus")

    def test_distribution_without_mass_at_total_is_empty(self):
        d = enumerate_distribution(tmsv_encoding(0.5), 4, 4)
        with pytest.raises(EmptyConditionError):
            conditional_from_distribution(d, 3, "threshold_collapse")


def batch_fields(b):
    """Every field of a batch, rows as lists, so == compares whole batches."""
    return {**vars(b), "patterns": b.patterns.tolist()}


class TestBatchArray:
    def test_patterns_are_one_read_only_int64_array(self):
        b = SampleBatch(patterns=((1, 2, 0), (0, 4, 1)), seed=0, backend="x")
        assert b.patterns.dtype == np.int64 and b.patterns.shape == (2, 3)
        with pytest.raises(ValueError, match="read-only"):
            b.patterns[0, 0] = 5

    def test_samplers_keep_the_mode_count_at_zero_shots(self):
        e = tmsv_encoding(0.5)
        for backend in BACKENDS:
            b = sample(backend, e, 0, 1, k=1, cutoff_total=4, cutoff_per_mode=4)
            assert b.patterns.shape == (0, 2)
            assert apply_loss(b, 0.5, 2).patterns.shape == (0, 2)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_first_shots_do_not_depend_on_the_shot_count(self, backend):
        # Shot i draws only from its own stream (seed, tag, i).
        e = random_encoding(4, 2)
        whole = sample(backend, e, 30, 8, k=2, cutoff_total=4, cutoff_per_mode=2)
        lossy = apply_loss(whole, 0.6, 9)
        for m in (0, 1, 17):
            part = sample(backend, e, m, 8, k=2, cutoff_total=4, cutoff_per_mode=2)
            assert np.array_equal(part.patterns, whole.patterns[:m])
            assert np.array_equal(
                apply_loss(part, 0.6, 9).patterns, lossy.patterns[:m]
            )


def small_rows(max_shots=40):
    """Up to max_shots patterns over 1 to 6 modes, counts up to 4."""
    return st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n), max_size=max_shots
    ))


def assert_same_conditioning(got_fn, want):
    """got_fn() equals want key for key, in order and to the bit, or raises
    EmptyConditionError where want is None."""
    if want is None:
        with pytest.raises(EmptyConditionError):
            got_fn()
        return
    got = got_fn()
    assert [(p, v.hex()) for p, v in got.items()] == [
        (p, v.hex()) for p, v in want.items()
    ]


class TestBatchPathsMatchReferences:
    @settings(max_examples=80, deadline=None)
    @given(rows=small_rows(), eta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    def test_loss_matches_per_mode_draws(self, rows, eta, seed):
        b = SampleBatch(patterns=rows, seed=0, backend="x")
        got = apply_loss(b, eta, seed).patterns.tolist()
        assert got == reference_batch_loss(rows, eta, seed)

    @settings(max_examples=80, deadline=None)
    @given(rows=small_rows())
    def test_batch_conditioning_matches_counter_tally(self, rows):
        b = SampleBatch(patterns=rows, seed=0, backend="x")
        weighted = Counter(map(tuple, rows)).items()
        for policy in COLLISION_POLICIES:
            for total in range(max(map(sum, rows), default=0) + 2):
                assert_same_conditioning(
                    lambda: conditional_from_distribution(b, total, policy),
                    reference_conditional(weighted, total, policy),
                )

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 50),
           eta=st.sampled_from([1.0, 0.7, 0.0]))
    def test_law_conditioning_matches_entry_tally(self, n, seed, eta):
        d = apply_loss(enumerate_distribution(random_encoding(n, seed), 4, 3), eta)
        for policy in COLLISION_POLICIES:
            for total in range(6):
                assert_same_conditioning(
                    lambda: conditional_from_distribution(d, total, policy),
                    reference_conditional(d.entries.items(), total, policy),
                )


class TestSampleDispatch:
    def test_each_backend_matches_its_sampler(self):
        e = tmsv_encoding(0.6)
        assert batch_fields(
            sample("gbs", e, 40, 3, cutoff_total=4, cutoff_per_mode=3)
        ) == batch_fields(sample_gbs(e, 40, 4, 3, 3))
        assert batch_fields(sample("squashed", e, 40, 3)) == batch_fields(
            sample_squashed(e, 40, 3)
        )
        assert batch_fields(sample("uniform", e, 40, 3, k=1)) == batch_fields(
            sample_uniform(2, 1, 40, 3)
        )
        assert batch_fields(sample("uniform", 5, 40, 3, k=2)) == batch_fields(
            sample_uniform(5, 2, 40, 3)
        )

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            sample("exact", tmsv_encoding(0.6), 5, 0)

    def test_uniform_needs_k(self):
        with pytest.raises(ValueError, match="subset size"):
            sample("uniform", 4, 5, 0)


class TestBatchIO:
    def test_round_trip(self):
        b = sample_uniform(5, 2, 17, seed=12)
        b2 = load_batch(save_batch(b))
        assert np.array_equal(b2.patterns, b.patterns)
        assert (b2.seed, b2.backend, b2.loss_eta) == (12, "uniform", 1.0)

    def test_bad_file(self):
        with pytest.raises(FormatError):
            load_batch(b"")
        with pytest.raises(FormatError):
            load_batch(b'{"backend": "x"}\nnot json')

    @pytest.mark.parametrize("pattern", [
        [1, 0, -1], [1.7, 0, 0], [True, 0, 0], "101", 5,
    ], ids=["negative", "fraction", "bool", "string", "int"])
    def test_bad_counts_rejected(self, pattern):
        rec = {"pattern": pattern}
        header = {"backend": "gbs", "seed": 0, "eta": 1.0}
        batch = f"{json.dumps(header)}\n{json.dumps(rec)}\n"
        with pytest.raises(FormatError, match="non-negative integers"):
            load_batch(batch.encode())
        dist = {"cutoff_total": 2, "cutoff_per_mode": 2, "mass": 1.0,
                "entries": [{**rec, "probability": 1.0}]}
        with pytest.raises(FormatError, match="non-negative integers"):
            load_distribution(json.dumps(dist).encode())

    def test_ragged_records_rejected(self):
        header = {"backend": "gbs", "seed": 0, "eta": 1.0}
        lines = [header, {"pattern": [1, 0, 1]}, {"pattern": [1, 0]}]
        with pytest.raises(FormatError, match="has 2 modes but the first"):
            load_batch("\n".join(map(json.dumps, lines)).encode())

    @pytest.mark.parametrize("count", [2**63, 10**30])
    def test_count_beyond_int64_rejected(self, count):
        header = {"backend": "gbs", "seed": 0, "eta": 1.0}
        lines = [header, {"pattern": [1, 0]}, {"pattern": [count, 2**63 - 1]}]
        with pytest.raises(FormatError, match=r"at most 2\^63 - 1"):
            load_batch("\n".join(map(json.dumps, lines)).encode())

    def test_largest_int64_count_loads(self):
        header = {"backend": "gbs", "seed": 0, "eta": 1.0}
        lines = [header, {"pattern": [2**63 - 1, 0]}]
        b = load_batch("\n".join(map(json.dumps, lines)).encode())
        assert b.patterns.tolist() == [[2**63 - 1, 0]]

    @pytest.mark.parametrize("shots", [0, 1, 3, -2, True, 2.0, "2", None])
    def test_header_shots_must_count_the_records(self, shots):
        header = {"backend": "gbs", "seed": 0, "eta": 1.0, "shots": shots}
        lines = [header, {"pattern": [1, 0]}, {"pattern": [0, 1]}]
        with pytest.raises(FormatError, match=(
            rf"header shots {shots!r} is not the record count 2"
        )):
            load_batch("\n".join(map(json.dumps, lines)).encode())

    @pytest.mark.parametrize("rec", [
        {"pattern": [1, 0], "total": True},
        {"pattern": [1, 1], "total": 2.0},
        {"pattern": [1, 1], "total": "2"},
        {"pattern": [1, 1], "total": None},
        {"pattern": [1, 1], "total": 3},
    ], ids=["bool", "float", "string", "null", "wrong"])
    def test_record_total_must_be_the_pattern_count(self, rec):
        header = {"backend": "gbs", "seed": 0, "eta": 1.0}
        lines = [header, {"pattern": [0, 1], "total": 1}, rec]
        with pytest.raises(FormatError, match="inconsistent total in record"):
            load_batch("\n".join(map(json.dumps, lines)).encode())

    def test_header_shots_equal_to_the_records_loads(self):
        header = {"backend": "gbs", "seed": 0, "eta": 1.0, "shots": 2}
        lines = [header, {"pattern": [1, 0]}, {"pattern": [0, 1]}]
        b = load_batch("\n".join(map(json.dumps, lines)).encode())
        assert b.patterns.tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("seed", [1.9, 1.0, True, "1"])
    def test_non_integer_seed_rejected(self, seed):
        header = {"backend": "gbs", "seed": seed, "eta": 1.0}
        batch = f"{json.dumps(header)}\n{json.dumps({'pattern': [1, 0]})}\n"
        with pytest.raises(FormatError, match="seed must be an integer"):
            load_batch(batch.encode())

    def test_distribution_round_trip(self):
        d = enumerate_distribution(tmsv_encoding(0.5), 6, 6)
        d2 = load_distribution(save_distribution(d))
        assert d2.entries == d.entries
        assert d2.mass == d.mass


def random_encoding(n, seed):
    a = random_symmetric(n, seed)
    np.fill_diagonal(a, 0)
    return encode(ComplexGraph(n, a), 0.8, d=0.3)


# (modes, cutoff_total, cutoff_per_mode), with and without a binding
# per-mode cutoff.
LATTICE_CASES = [
    (1, 5, 5), (2, 6, 3), (3, 4, 2), (4, 5, 5), (5, 6, 2), (4, 6, 1),
    # A per-mode cutoff of 0, a total cutoff of 0, a total above
    # n * per_mode, and six or more modes.
    (3, 4, 0), (3, 0, 4), (3, 10, 2), (7, 4, 2),
]


class TestPatternLattice:
    @pytest.mark.parametrize("n,total,per_mode", LATTICE_CASES)
    def test_order_and_minus_tables(self, n, total, per_mode):
        lat = _lattice(n, total, per_mode)
        want = [
            p for p in product(range(per_mode + 1), repeat=n) if sum(p) <= total
        ]
        assert list(map(tuple, lat.counts.tolist())) == want
        index = {p: i for i, p in enumerate(want)}
        for j in range(n):
            for i, p in enumerate(want):
                q = p[:j] + (p[j] - 1,) + p[j + 1 :]
                assert lat.minus[j, i] == index.get(q, -1)

    @pytest.mark.parametrize("n,total,per_mode", LATTICE_CASES)
    def test_law_matches_single_pattern_oracle(self, n, total, per_mode):
        e = random_encoding(n, seed=100 + n + total + per_mode)
        d = enumerate_distribution(e, total, per_mode)
        assert len(d.entries) == count_patterns(n, total, per_mode)
        for p, w in d.entries.items():
            assert w == pytest.approx(pattern_probability(e, p), rel=1e-10, abs=0)

    def test_odd_totals_are_exactly_zero(self):
        d = enumerate_distribution(random_encoding(4, seed=3), 5, 3)
        assert all(w == 0.0 for p, w in d.entries.items() if sum(p) % 2)

    def test_corrupted_b_violates_total_law(self, monkeypatch):
        import gbstopo.sampler as smp

        e = random_encoding(4, seed=5)
        enumerate_distribution(e, 4, 4)
        real = smp.reconstruct
        monkeypatch.setattr(smp, "reconstruct", lambda u, lam: 1.1 * real(u, lam))
        with pytest.raises(InvariantError, match="squeezed-vacuum"):
            enumerate_distribution(e, 4, 4)

    def test_nan_law_violates_total_law(self, monkeypatch):
        import gbstopo.sampler as smp

        e = random_encoding(4, seed=5)
        monkeypatch.setattr(
            smp, "reconstruct", lambda u, lam: np.full((4, 4), np.nan)
        )
        with pytest.raises(InvariantError, match="squeezed-vacuum"):
            enumerate_distribution(e, 4, 4)


class TestDistributionLoss:
    @pytest.mark.parametrize("n,total,per_mode", LATTICE_CASES)
    @pytest.mark.parametrize("eta", [0.0, 0.35, 0.8, 1.0])
    def test_matches_per_pattern_thinning(self, n, total, per_mode, eta):
        d = enumerate_distribution(random_encoding(n, seed=7 * n), total, per_mode)
        lossy = apply_loss(d, eta)
        want = lossy_entries(d.entries, eta)
        assert list(lossy.entries) == list(d.entries)
        for p, w in lossy.entries.items():
            assert w == pytest.approx(want[p], rel=1e-10, abs=1e-15)
        assert lossy.mass == d.mass

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_losses_compose(self, a, b):
        d = enumerate_distribution(random_encoding(3, seed=11), 6, 4)
        twice = apply_loss(apply_loss(d, a), b)
        once = apply_loss(d, a * b)
        for p, w in once.entries.items():
            assert twice.entries[p] == pytest.approx(w, rel=1e-9, abs=1e-15)
        assert sum(once.entries.values()) == pytest.approx(d.mass, abs=1e-12)
        assert twice.mass == once.mass == d.mass

    def test_rejects_keys_other_than_the_full_lattice(self):
        d = enumerate_distribution(tmsv_encoding(0.5), 4, 4)
        missing = dict(d.entries)
        del missing[(1, 1)]
        extra = {**d.entries, (5, 0): 0.0}
        swapped = {**missing, (5, 0): 0.0}
        cases = [(missing, 4), (extra, 4), (swapped, 4), (d.entries, 3), ({}, 4)]
        for entries, total in cases:
            doc = {"cutoff_total": total, "cutoff_per_mode": 4, "mass": d.mass,
                   "entries": [{"pattern": list(p), "probability": w}
                               for p, w in entries.items()]}
            with pytest.raises(FormatError, match="pattern lattice"):
                load_distribution(json.dumps(doc).encode())
        reordered = json.loads(save_distribution(d))
        reordered["entries"].reverse()
        with pytest.raises(FormatError, match="pattern lattice"):
            load_distribution(json.dumps(reordered).encode())

    def test_rejects_zero_mode_patterns(self):
        # Found by tests/test_loader_fuzz.py: a ValueError from numpy.
        doc = {"cutoff_total": 0, "cutoff_per_mode": 0, "mass": 1.0,
               "entries": [{"pattern": [], "probability": 1.0}]}
        with pytest.raises(FormatError, match="pattern lattice"):
            load_distribution(json.dumps(doc).encode())


class TestDistributionFile:
    @pytest.mark.parametrize("n,total,per_mode", LATTICE_CASES)
    @pytest.mark.parametrize("eta", [1.0, 0.6])
    def test_distribution_bytes_round_trip(self, n, total, per_mode, eta):
        d = enumerate_distribution(random_encoding(n, seed=n), total, per_mode)
        saved = save_distribution(apply_loss(d, eta), provenance={"eta": eta})
        loaded = load_distribution(saved)
        assert save_distribution(loaded, provenance={"eta": eta}) == saved
        # Loss on the loaded law writes what loss on the enumerated law does.
        reloaded = load_distribution(save_distribution(d))
        want = save_distribution(apply_loss(d, 0.3))
        assert save_distribution(apply_loss(reloaded, 0.3)) == want

    def test_unreachable_cutoff_total_round_trips(self):
        d = enumerate_distribution(tmsv_encoding(0.5), 10**12, 2)
        assert d.entries == enumerate_distribution(tmsv_encoding(0.5), 4, 2).entries
        saved = save_distribution(d)
        assert json.loads(saved)["cutoff_total"] == 10**12
        assert save_distribution(load_distribution(saved)) == saved

    def test_entries_are_read_only(self):
        d = enumerate_distribution(tmsv_encoding(0.5), 4, 4)
        with pytest.raises(TypeError):
            d.entries[(0, 0)] = 0.5
        assert d.entries is d.entries

    @pytest.mark.parametrize("cutoffs", [
        ("2", 2), (2, 6.5), (True, 2), (2, -1), (None, 2),
    ])
    def test_distribution_cutoffs_must_be_counts(self, cutoffs):
        d = enumerate_distribution(tmsv_encoding(0.5), 2, 2)
        doc = json.loads(save_distribution(d))
        doc["cutoff_total"], doc["cutoff_per_mode"] = cutoffs
        with pytest.raises(FormatError, match="non-negative integers"):
            load_distribution(json.dumps(doc).encode())

    @pytest.mark.parametrize("key, value", [
        ("probability", "0.5"), ("probability", True), ("probability", None),
        ("probability", float("nan")), ("mass", True), ("mass", "1.0"),
        ("mass", float("inf")), ("mass", 10**400),
    ], ids=["str", "bool", "null", "nan", "mass-bool", "mass-str", "mass-inf",
            "mass-huge-int"])
    def test_distribution_numbers_must_be_finite(self, key, value):
        d = enumerate_distribution(tmsv_encoding(0.5), 2, 2)
        doc = json.loads(save_distribution(d))
        if key == "mass":
            doc["mass"] = value
        else:
            doc["entries"][1]["probability"] = value
        with pytest.raises(FormatError, match="must be finite numbers"):
            load_distribution(json.dumps(doc).encode())

    @pytest.mark.parametrize("claim", ["30 modes", "huge total"])
    def test_huge_claimed_lattice_rejected_from_the_file_length(
        self, monkeypatch, claim
    ):
        import gbstopo.sampler as smp

        if claim == "30 modes":  # that lattice would hold 2**30 patterns
            doc = {"cutoff_total": 30, "cutoff_per_mode": 1, "mass": 1.0,
                   "entries": [{"pattern": [c] + [0] * 29, "probability": 0.5}
                               for c in range(2)]}
        else:
            d = enumerate_distribution(tmsv_encoding(0.5), 4, 4)
            doc = {**json.loads(save_distribution(d)), "cutoff_total": 10**12}
        count = smp.count_patterns

        def bounded_count(n, total, per_mode):
            assert min(total, n * per_mode) < len(doc["entries"])
            return count(n, total, per_mode)

        def refuse(*args):
            raise AssertionError("built a lattice the entries cannot fill")

        monkeypatch.setattr(smp, "count_patterns", bounded_count)
        monkeypatch.setattr(smp, "_lattice", refuse)
        with pytest.raises(FormatError, match="pattern lattice"):
            load_distribution(json.dumps(doc).encode())
