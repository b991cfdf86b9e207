"""Per-shot streams: the states seeded for a whole batch at once must be the
states of default_rng([seed, tag, i]), and every backend must draw the
batch the one-generator-per-shot references in helpers.py draw."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbstopo import sampler
from gbstopo.cli import main
from gbstopo.encoding import encode
from gbstopo.errors import BudgetError, InvariantError
from gbstopo.graph import save_graph
from gbstopo.instances import planted_clique_graph
from gbstopo.sampler import (
    apply_loss,
    sample_gbs,
    sample_squashed,
    sample_uniform,
)
from helpers import (
    reference_batch_loss,
    reference_gbs,
    reference_squashed,
    reference_stream,
    reference_uniform,
)

SEEDS = [0, 1, 2**32, 2**40 + 3, 2**64 + 5]


def joined(pair, i):
    hi, lo = pair
    return int(hi[i]) << 64 | int(lo[i])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**130), tag=st.integers(0, 3),
       shots=st.integers(0, 64))
@example(seed=2**32 - 1, tag=0, shots=64)
@example(seed=2**32, tag=1, shots=64)
@example(seed=2**64, tag=2, shots=64)
@example(seed=2**96 + 1, tag=3, shots=64)
def test_states_and_first_doubles_match_default_rng(seed, tag, shots):
    state, inc = sampler._shot_states(seed, tag, shots)
    doubles = sampler._first_doubles(seed, tag, shots)
    assert len(state[0]) == len(inc[0]) == len(doubles) == shots
    for i in range(shots):
        want_state, want_inc, want_double = reference_stream(seed, tag, i)
        assert joined(state, i) == want_state
        assert joined(inc, i) == want_inc
        assert doubles[i].hex() == want_double.hex()


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


def off_by_one_seed(seed, tag, shot):
    return np.random.default_rng([seed + 1, tag, shot])


def off_at_last_shot(seed, tag, shot):
    return np.random.default_rng([seed, tag, shot + (shot > 0)])


@pytest.mark.parametrize("reference", [off_by_one_seed, off_at_last_shot])
def test_diverging_reference_raises(monkeypatch, planted, reference):
    _, e = planted
    monkeypatch.setattr(sampler, "_shot_rng", reference)
    for draw in (lambda: sample_gbs(e, 5, 2, 2, 7),
                 lambda: sample_uniform(6, 2, 5, 7),
                 lambda: sample_squashed(e, 5, 7)):
        with pytest.raises(InvariantError, match="default_rng gives"):
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


def test_no_shots_seed_nothing(monkeypatch):
    monkeypatch.setattr(sampler, "_shot_rng", off_by_one_seed)
    state, inc = sampler._shot_states(5, 1, 0)
    assert state[0].shape == inc[1].shape == (0,)
    assert sample_uniform(4, 2, 0, 5).patterns.shape == (0, 4)


# Shot indices from 2^32 on would enter the seed as two words; such a batch
# is refused before anything is allocated.
@pytest.mark.parametrize("shots", [2**32 + 1, 10**30])
def test_batch_beyond_one_word_indices_refused(planted, shots):
    _, e = planted
    for draw in (lambda: sampler._shot_states(0, 0, shots),
                 lambda: sample_gbs(e, shots, 2, 2, 0),
                 lambda: sample_uniform(12, 5, shots, 0),
                 lambda: sample_squashed(e, shots, 0)):
        with pytest.raises(BudgetError, match="per-shot streams"):
            draw()


def test_batch_beyond_one_word_indices_exits_4(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    code = main(["sample", "--n-modes", "4", "--backend", "uniform", "--k",
                 "2", "--shots", str(10**30), "--seed", "0", "--out", str(out)])
    assert code == 4
    assert not out.exists()
    assert "per-shot streams" in capsys.readouterr().err
