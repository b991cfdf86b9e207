"""Per-shot streams: row i of an m-wide batch must be draws i*m to
(i+1)*m - 1 of default_rng([tag, seed]), and each shot must be reachable
alone by PCG64.advance; every backend must draw the batch the scalar
references in helpers.py draw, each shot from its own advanced bit
generator; and the array transforms must follow their exact laws: uniform
k-subsets, binomial thinning as the distribution path applies it, and the
squashed per-mode means."""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import gbstopo
from gbstopo import sampler
from gbstopo.cli import main
from gbstopo.encoding import encode
from gbstopo.errors import BudgetError, InvariantError
from gbstopo.graph import save_graph
from gbstopo.instances import planted_clique_graph
from gbstopo.sampler import (
    COUNT_BUDGET,
    MEAN_BUDGET,
    SampleBatch,
    apply_loss,
    sample_gbs,
    sample_squashed,
    sample_uniform,
)
from helpers import (
    reference_batch_loss,
    reference_doubles,
    reference_gbs,
    reference_squashed,
    reference_uniform,
)

SEEDS = [0, 1, 2**32, 2**40 + 3, 2**64 + 5]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**128), tag=st.integers(0, 3),
       shots=st.integers(0, 64), m=st.integers(0, 30))
@example(seed=2**32 - 1, tag=0, shots=64, m=1)
@example(seed=2**32, tag=1, shots=64, m=12)
@example(seed=2**64, tag=2, shots=64, m=25)
@example(seed=2**96 + 1, tag=3, shots=64, m=30)
@example(seed=5, tag=1, shots=9, m=0)
def test_rows_are_consecutive_draws_of_one_generator(seed, tag, shots, m):
    doubles = sampler._doubles(seed, tag, shots, m, 8 * m)
    assert doubles.shape == (shots, m)
    rng = np.random.default_rng([tag, seed])
    for i in range(shots):
        want = rng.random(m).tolist()
        assert doubles[i].tolist() == want
        assert sampler._shot_rng(seed, tag, i, m).random(m).tolist() == want
        assert reference_doubles(seed, tag, i, m) == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**128), tag=st.integers(0, 3),
       shots=st.integers(0, 64), k=st.integers(0, 64), m=st.integers(0, 30))
def test_batch_prefix_is_the_shorter_batch(seed, tag, shots, k, m):
    k = min(k, shots)
    assert np.array_equal(sampler._doubles(seed, tag, shots, m, 8 * m)[:k],
                          sampler._doubles(seed, tag, k, m, 8 * m))


# A shot far out, shot * m past 2^64: advancing in two steps a and b must
# reach the state and doubles _shot_rng reaches in one step of a + b.
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**128), tag=st.integers(0, 3),
       m=st.integers(1, 30), over=st.integers(0, 2**66),
       cut=st.integers(0, 2**32))
@example(seed=0, tag=0, m=1, over=2**64 - 4, cut=2**31)
@example(seed=2**64 + 5, tag=3, m=30, over=2**66, cut=2**32)
def test_far_shot_is_two_advances(seed, tag, m, over, cut):
    shot = (2**64 + over) // m + 1
    a = shot * m * cut >> 32
    bits = np.random.PCG64([tag, seed])
    bits.advance(a)
    bits.advance(shot * m - a)
    rng = sampler._shot_rng(seed, tag, shot, m)
    assert rng.bit_generator.state == bits.state
    assert rng.random(m).tolist() == np.random.Generator(bits).random(m).tolist()


def test_tags_and_seeds_draw_distinct_streams():
    # SeedSequence pads its entropy with zero words, so the entropy
    # [seed, tag, shot] gave gbs shot 0 at seed 2^32 + 1 the stream of
    # uniform shot 0 at seed 1. With the tag first no two pairs collide.
    assert (np.random.default_rng([2**32 + 1, 0, 0]).random()
            == np.random.default_rng([1, 1, 0]).random())
    first = {
        (seed, tag): sampler._doubles(seed, tag, 1, 1, 8)[0, 0]
        for seed in [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 + 5]
        for tag in range(4)
    }
    assert len(set(first.values())) == len(first) == 24


@pytest.fixture(scope="module")
def planted():
    g = planted_clique_graph()
    return g, encode(g, 0.95)


@pytest.mark.parametrize("seed", SEEDS)
class TestBackendsMatchPerShotGenerators:
    def test_gbs(self, planted, seed):
        _, e = planted
        batch = sample_gbs(e, 120, 4, 4, seed)
        assert batch.patterns.tolist() == reference_gbs(e, 120, 4, 4, seed)

    def test_uniform(self, seed):
        batch = sample_uniform(12, 5, 120, seed)
        assert batch.patterns.tolist() == reference_uniform(12, 5, 120, seed)

    def test_squashed(self, planted, seed):
        _, e = planted
        batch = sample_squashed(e, 120, seed)
        assert batch.patterns.tolist() == reference_squashed(e, 120, seed)

    @pytest.mark.parametrize("backend", ["gbs", "uniform", "squashed"])
    def test_with_loss(self, planted, seed, backend):
        _, e = planted
        batch = sampler.sample(backend, e, 120, seed, k=5,
                               cutoff_total=4, cutoff_per_mode=4)
        rows = {
            "gbs": lambda: reference_gbs(e, 120, 4, 4, seed),
            "uniform": lambda: reference_uniform(12, 5, 120, seed),
            "squashed": lambda: reference_squashed(e, 120, seed),
        }[backend]()
        lossy = apply_loss(batch, 0.8, seed)
        assert lossy.patterns.tolist() == reference_batch_loss(rows, 0.8, seed)


def off_by_one_seed(seed, tag, shot, m):
    bits = np.random.PCG64([tag, seed + 1])
    return np.random.Generator(bits.advance(shot * m))


def off_at_last_shot(seed, tag, shot, m):
    bits = np.random.PCG64([tag, seed])
    return np.random.Generator(bits.advance(shot * m + (shot > 0)))


@pytest.mark.parametrize("reference", [off_by_one_seed, off_at_last_shot])
def test_diverging_reference_raises(monkeypatch, planted, reference):
    _, e = planted
    monkeypatch.setattr(sampler, "_shot_rng", reference)
    batch = SampleBatch(np.full((5, 3), 2), 7, "x")
    for draw in (lambda: sample_gbs(e, 5, 2, 2, 7),
                 lambda: sample_uniform(6, 2, 5, 7),
                 lambda: sample_squashed(e, 5, 7),
                 lambda: apply_loss(batch, 0.5, 7)):
        with pytest.raises(InvariantError, match="advanced PCG64 gives"):
            draw()


def test_diverging_reference_exits_5(monkeypatch, tmp_path, planted, capsys):
    g, _ = planted
    graph = tmp_path / "g.json"
    graph.write_bytes(save_graph(g))
    out = tmp_path / "s.jsonl"
    monkeypatch.setattr(sampler, "_shot_rng", off_by_one_seed)
    code = main(["sample", "--graph", str(graph), "--shots", "10", "--seed",
                 "3", "--cutoff-total", "2", "--cutoff-per-mode", "2",
                 "--out", str(out)])
    assert code == 5
    assert not out.exists()
    assert "internal invariant violated" in capsys.readouterr().err


def no_drawing(*args):
    raise AssertionError("a batch was drawn")


def test_no_shots_seed_nothing(monkeypatch):
    monkeypatch.setattr(sampler, "_shot_rng", no_drawing)
    assert sampler._doubles(5, 1, 0, 4, 8 * 4).shape == (0, 4)
    assert sample_uniform(4, 2, 0, 5).patterns.shape == (0, 4)


# A batch of 2^32 + 1 or 10^30 shots of one double or more is over the draw
# budget, and is refused before its generator is seeded.
@pytest.mark.parametrize("shots", [2**32 + 1, 10**30])
def test_huge_batch_refused_before_seeding(monkeypatch, planted, shots):
    _, e = planted
    monkeypatch.setattr(np.random, "default_rng", no_drawing)
    for draw in (lambda: sampler._doubles(0, 0, shots, 1, 8),
                 lambda: sample_gbs(e, shots, 2, 2, 0),
                 lambda: sample_uniform(12, 5, shots, 0),
                 lambda: sample_squashed(e, shots, 0)):
        with pytest.raises(BudgetError, match="over the draw budget"):
            draw()


def test_huge_batch_exits_4(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    code = main(["sample", "--n-modes", "4", "--backend", "uniform", "--k",
                 "2", "--shots", str(10**30), "--seed", "0", "--out", str(out)])
    assert code == 4
    assert not out.exists()
    assert "over the draw budget" in capsys.readouterr().err


# The one charge, shots * held, is at least a batch's 8 m bytes a shot of
# doubles: a batch whose doubles alone pass DRAW_BUDGET is refused before
# its generator is seeded.
def test_batch_over_draw_budget_refused_before_seeding(monkeypatch):
    budget = 10 * 8 * 3 - 1
    monkeypatch.setattr(sampler, "DRAW_BUDGET", budget)
    monkeypatch.setattr(np.random, "default_rng", no_drawing)
    with pytest.raises(BudgetError, match=(
        f"^10 shots hold about {10 * 8 * 3} bytes once drawn, over the draw "
        f"budget {budget}$"
    )) as info:
        sampler._doubles(0, 0, 10, 3, 8 * 3)
    assert (info.value.required, info.value.budget) == (10 * 8 * 3, budget)


def test_batch_at_draw_budget_drawn(monkeypatch):
    want = sampler._doubles(0, 0, 10, 3, 8 * 3)
    monkeypatch.setattr(sampler, "DRAW_BUDGET", 10 * 8 * 3)
    assert np.array_equal(sampler._doubles(0, 0, 10, 3, 8 * 3), want)


def _capped(argv, cwd):
    """Run the CLI in a new interpreter whose address space is capped at
    1.5 GB, as `ulimit -v 1500000` caps a shell."""
    import resource

    cap = 1_500_000 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = {**os.environ, "PYTHONPATH": str(Path(gbstopo.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "gbstopo.cli", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300, preexec_fn=limit,
    )


# Found by hand: 4e8 uniform shots died in numpy's _ArrayMemoryError with
# exit 1 while seeding.
@pytest.mark.skipif(sys.platform != "linux", reason="caps RLIMIT_AS")
@pytest.mark.parametrize("argv", [
    ["sample", "--backend", "uniform", "--k", "2"],
    ["compare", "--k", "2", "--cutoff-total", "2", "--cutoff-per-mode", "2"],
    ["entropy", "--backend", "squashed", "--k-ref", "2", "--delta-axis",
     "0", "--photon-total", "2", "--cutoff-total", "2",
     "--cutoff-per-mode", "2"],
])
def test_huge_shots_exit_4_under_memory_cap(tmp_path, argv):
    assert main(["gen", "--n", "6", "--p", "0.6", "--seed", "1",
                 "--out", str(tmp_path / "g6.json")]) == 0
    proc = _capped([*argv, "--graph", "g6.json", "--shots", "400000000",
                    "--seed", "0", "--out", "out"], tmp_path)
    assert proc.returncode == 4, proc.stderr
    assert "over the draw budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


# At 100 modes these batches' doubles fit DRAW_BUDGET, but what uniform rows,
# gbs patterns, squashed draws or batch loss hold once drawn (peaks measured
# with tracemalloc) is more than DRAW_BUDGET and than the 1.5 GB cap admits.
@pytest.mark.skipif(sys.platform != "linux", reason="caps RLIMIT_AS")
@pytest.mark.parametrize("argv, shots", [
    (["sample", "--backend", "uniform", "--k", "2"], 1_000_000),
    (["sample", "--backend", "gbs", "--cutoff-total", "2",
      "--cutoff-per-mode", "2"], 2_000_000),
    (["sample", "--backend", "squashed"], 200_000),
    (["sample", "--backend", "gbs", "--cutoff-total", "2",
      "--cutoff-per-mode", "2", "--eta", "0.5"], 300_000),
])
def test_batch_held_past_draw_budget_exits_4_under_memory_cap(
    tmp_path, argv, shots
):
    assert main(["gen", "--n", "100", "--p", "0.02", "--seed", "1",
                 "--out", str(tmp_path / "g100.json")]) == 0
    proc = _capped([*argv, "--graph", "g100.json", "--shots", str(shots),
                    "--seed", "0", "--out", "out"], tmp_path)
    assert proc.returncode == 4, proc.stderr
    assert "once drawn, over the draw budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


# (draw, doubles a shot draws, bytes a shot holds once drawn), each holding
# more than its doubles; n shots of them.
HELD = [
    (lambda e, n: sample_gbs(e, n, 1, 1, 0), 1, 16 + 8 * 12),
    (lambda e, n: sample_uniform(12, 5, n, 0), 12, 16 + 24 * 12),
    (lambda e, n: sample_squashed(e, n, 0), 2 * 6 + 12, 104 * 12),
    (lambda e, n: apply_loss(
        SampleBatch(np.ones((n, 12), dtype=np.int64), 0, "gbs"), 0.5, 0),
     12, 56 * 12),
]


@pytest.mark.parametrize("draw, m, held", HELD)
def test_held_bytes_over_draw_budget_refused_before_seeding(
    monkeypatch, planted, draw, m, held
):
    assert held > 8 * m
    budget = 10 * held - 1
    monkeypatch.setattr(sampler, "DRAW_BUDGET", budget)
    monkeypatch.setattr(np.random, "default_rng", no_drawing)
    with pytest.raises(BudgetError, match=(
        f"^10 shots hold about {10 * held} bytes once drawn, over the draw "
        f"budget {budget}$"
    )) as info:
        draw(planted[1], 10)
    assert (info.value.required, info.value.budget) == (10 * held, budget)


@pytest.mark.parametrize("draw, m, held", HELD)
def test_held_bytes_at_draw_budget_drawn(monkeypatch, planted, draw, m, held):
    want = draw(planted[1], 10).patterns
    monkeypatch.setattr(sampler, "DRAW_BUDGET", 10 * held)
    assert np.array_equal(draw(planted[1], 10).patterns, want)


def chi_square_ok(observed, expected, shots):
    """Pearson's test of observed counts against a law over the same cells,
    cells expecting fewer than 5 pooled into one. The seeds are fixed, so
    the 1e-6 level only guards against a law that is wrong. One cell
    leaves no freedom: the counts must then match up to rounding."""
    observed, want = np.asarray(observed, float), shots * np.asarray(expected)
    small = want < 5
    observed = np.append(observed[~small], observed[small].sum())
    want = np.append(want[~small], want[small].sum())
    keep = want > 0
    stat = float(np.sum((observed[keep] - want[keep]) ** 2 / want[keep]))
    dof = keep.sum() - 1
    return stat < (1e-9 if dof == 0 else chi2.ppf(1 - 1e-6, dof))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, k", [(6, 3), (7, 2)])
def test_uniform_subsets_follow_uniform_law(seed, n, k):
    shots = 20_000
    rows = sample_uniform(n, k, shots, seed).patterns
    assert (rows.sum(axis=1) == k).all() and rows.max() == 1
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    seen = np.bincount([index[tuple(np.flatnonzero(r))] for r in rows],
                       minlength=len(subsets))
    assert chi_square_ok(seen, np.full(len(subsets), 1 / len(subsets)), shots)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eta", [0.0, 0.35, 0.8, 1.0])
def test_lossy_batch_follows_thinned_empirical_law(seed, eta):
    """Given the batch, each shot's thinned pattern has the law the exact
    distribution path (_thin_lattice) gives its own pattern, so the lossy
    batch's empirical law has _thin_lattice of the batch's law as mean."""
    shots, n, top = 30_000, 3, 3
    rows = np.random.default_rng(seed).integers(0, top + 1, size=(shots, n))
    lat = sampler._lattice(n, n * top, top)
    keys = sampler._pattern_keys(lat.counts)

    def law(batch):
        at = np.searchsorted(keys, sampler._pattern_keys(batch))
        return np.bincount(at, minlength=len(keys)) / shots

    want = sampler._thin_lattice(lat, law(rows), eta)
    lossy = apply_loss(SampleBatch(rows, 0, "x"), eta, seed).patterns
    assert (lossy <= rows).all() and (lossy >= 0).all()
    got = law(lossy) * shots
    assert (got[want == 0] == 0).all()  # no mass leaves the support
    assert chi_square_ok(got, want, shots)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_squashed_means_follow_squeezing(planted, seed):
    """E count_i = sum_j |U_ij|^2 (e^{2 r_j} - 1)/4; each mode's mean must
    lie within 5 standard errors of it."""
    _, e = planted
    shots = 40_000
    counts = sample_squashed(e, shots, seed).patterns
    want = np.abs(e.u) ** 2 @ ((np.exp(2 * e.squeezings) - 1) / 4)
    error = counts.std(axis=0) / np.sqrt(shots)
    assert (np.abs(counts.mean(axis=0) - want) <= 5 * error).all()


def test_loss_beyond_count_budget_refused():
    batch = SampleBatch([[COUNT_BUDGET + 1, 0]], 0, "x")
    with pytest.raises(BudgetError, match=f"photon count {COUNT_BUDGET + 1}"):
        apply_loss(batch, 0.5, 0)


def test_extreme_squeezing_exits_4(tmp_path, capsys):
    graph, out = tmp_path / "g.json", tmp_path / "s.jsonl"
    assert main(["gen", "--n", "12", "--p", "0.6", "--seed", "1",
                 "--out", str(graph)]) == 0
    code = main(["sample", "--graph", str(graph), "--backend", "squashed",
                 "--target-spectral", "0.9999999999", "--shots", "50",
                 "--seed", "0", "--out", str(out)])
    assert code == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Poisson mean" in err and f"inversion bound {MEAN_BUDGET}" in err


@pytest.mark.parametrize("eta", ["1", "0.8"])
def test_strong_squeezing_within_budget(tmp_path, planted, eta):
    g, _ = planted
    graph, out = tmp_path / "g.json", tmp_path / "s.jsonl"
    graph.write_bytes(save_graph(g))
    code = main(["sample", "--graph", str(graph), "--backend", "squashed",
                 "--target-spectral", "0.99", "--shots", "3000", "--seed", "0",
                 "--eta", eta, "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3001
