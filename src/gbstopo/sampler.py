"""Exact desk-scale simulation of the GBS output law, classical baselines
and a uniform loss model.

The pure-state law for a machine program (U, r_i) with B = U diag(tanh r) U^T:

    P(p) = (prod_i sech r_i) * |haf(B_p)|^2 / prod_i p_i!

where B_p repeats row/column i exactly p_i times. Probabilities of patterns
with odd photon total vanish (no perfect matching of an odd set).

The whole law comes from one pattern lattice: the admissible patterns in
lexicographic order plus, per mode j, the index of p - e_j. The set is
downward closed, so with i the lowest occupied mode of p the repeated-row
hafnian recursion (Kan 2008; Bjorklund-Gupt-Quesada 2019)

    haf(p) = sum_j (p - e_i)_j * B_ij * haf(p - e_i - e_j)

fills it one even photon total at a time, vectorised over each total.
A distribution is the lattice plus one probability vector. Uniform loss on
it is n passes of per-mode binomial thinning along the same p -> p - e_j
chains. `hafnian` and `pattern_probability` evaluate single patterns
directly and serve as the oracle for the lattice.

All samplers draw per-shot randomness from (seed, backend tag, shot index),
so batches are bit-reproducible regardless of execution order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .encoding import GBSEncoding, reconstruct
from .errors import BudgetError, EmptyConditionError, FormatError, InvariantError
from .graph import is_finite_number, source_text

Pattern = tuple[int, ...]

PATTERN_BUDGET = 5_000_000

BACKENDS = ("gbs", "uniform", "squashed")
COLLISION_POLICIES = ("threshold_collapse", "collision_free_only")

# Stream tags keep the per-shot RNG streams of different consumers disjoint.
_TAG_GBS = 0
_TAG_UNIFORM = 1
_TAG_SQUASHED = 2
_TAG_LOSS = 3


@dataclass(frozen=True, eq=False)  # eq=False: == on an ndarray field is ambiguous
class SampleBatch:
    """Shots as one read-only (shots, n_modes) int64 array of counts."""

    patterns: np.ndarray
    seed: int
    backend: str
    loss_eta: float = 1.0
    cutoff_total: int | None = None
    cutoff_per_mode: int | None = None

    def __post_init__(self):
        rows = np.array(self.patterns, dtype=np.int64)
        if rows.ndim != 2:  # no shots: () has no mode count
            rows = rows.reshape(len(rows), 0)
        rows.flags.writeable = False
        object.__setattr__(self, "patterns", rows)


def hafnian(m: np.ndarray) -> complex:
    """Hafnian by recursive expansion with memoization on index subsets.

    Sums the product of entries over all perfect matchings. The empty
    matrix gives 1 and odd dimensions give 0. Adequate to dim ~ 20.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("hafnian requires a square matrix")
    dim = m.shape[0]
    if dim and float(np.max(np.abs(m - m.T))) > 1e-12:
        raise ValueError("hafnian requires a symmetric matrix")
    if dim == 0:
        return 1.0 + 0.0j
    if dim % 2 == 1:
        return 0.0 + 0.0j

    memo: dict[int, complex] = {}

    def rec(mask: int) -> complex:
        if mask == 0:
            return 1.0 + 0.0j
        cached = memo.get(mask)
        if cached is not None:
            return cached
        i = (mask & -mask).bit_length() - 1  # lowest set index
        rest = mask & ~(1 << i)
        total = 0.0 + 0.0j
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            mij = m[i, j]
            if mij != 0:
                total += mij * rec(rest & ~(1 << j))
        memo[mask] = total
        return total

    return complex(rec((1 << dim) - 1))


def _sech_prefactor(lambdas: np.ndarray) -> float:
    # sech(atanh(lam)) = sqrt(1 - lam^2)
    return float(np.prod(np.sqrt(1.0 - lambdas**2)))


def pattern_probability(e: GBSEncoding, p: Iterable[int]) -> float:
    """Exact probability of one photon-number pattern under the GBS law."""
    p = tuple(int(x) for x in p)
    if len(p) != e.n:
        raise ValueError(f"pattern length {len(p)} != mode count {e.n}")
    if any(c < 0 for c in p):
        raise ValueError("photon counts must be nonnegative")
    # Odd totals give an odd-dimensional matrix, whose hafnian is exactly 0.
    rows = np.repeat(np.arange(len(p)), p)
    h = hafnian(reconstruct(e.u, e.lambdas)[np.ix_(rows, rows)])
    denom = 1.0
    for c in p:
        denom *= math.factorial(c)
    return _sech_prefactor(e.lambdas) * float(abs(h)) ** 2 / denom


def count_patterns(n_modes: int, cutoff_total: int, cutoff_per_mode: int) -> int:
    """Number of admissible patterns, in O(n_modes) exact integer terms.

    With a slack mode taking the photons below cutoff_total, inclusion-
    exclusion over the j modes forced above cutoff_per_mode gives
    sum_j (-1)^j C(n, j) C(T - j (cutoff_per_mode + 1) + n, n), T the
    reachable total. Nothing is allocated per total, so huge cutoffs
    count as cheaply as small ones.
    """
    total = min(cutoff_total, n_modes * cutoff_per_mode)
    width = cutoff_per_mode + 1
    return sum(
        (-1) ** j * math.comb(n_modes, j)
        * math.comb(total - j * width + n_modes, n_modes)
        for j in range(min(n_modes, total // width) + 1)
    )


@dataclass(frozen=True)
class _Lattice:
    """Index table of all patterns with sum <= cutoff_total and entries <=
    cutoff_per_mode, in lexicographic order. Arrays are read-only."""

    cutoff_total: int
    cutoff_per_mode: int
    counts: np.ndarray  # (N, n) photon counts; row 0 is the vacuum
    minus: np.ndarray  # (n, N) int32: index of p - e_j, -1 where p_j = 0
    lowest: np.ndarray  # (N,) lowest occupied mode (0 for the vacuum)
    totals: np.ndarray  # (N,) photon total
    factorials: np.ndarray  # (N,) prod_i p_i!


def _pattern_keys(counts: np.ndarray) -> np.ndarray:
    digits = np.ascontiguousarray(counts, dtype=">u4")
    return digits.view(f"S{4 * digits.shape[1]}").ravel()


@functools.lru_cache(maxsize=4)
def _lattice(n_modes: int, cutoff_total: int, cutoff_per_mode: int) -> _Lattice:
    top = min(cutoff_total, cutoff_per_mode)
    reachable = min(cutoff_total, n_modes * top)
    # prod p_i! <= (sum p_i)!, and 171! is not a finite float64.
    if reachable > 170:
        raise FormatError(
            f"cutoff_total {cutoff_total} and cutoff_per_mode {cutoff_per_mode} "
            f"reach a photon total of {reachable}; the factorials of totals "
            f"above 170 overflow float64"
        )
    # Expand one mode at a time; children of each prefix come in ascending
    # count, which is lexicographic order. Then read each row's counts back
    # through its chain of prefixes. Totals above n_modes * top are
    # unreachable, so a larger cutoff_total need not fit int32.
    levels = []
    remaining = np.array([reachable], dtype=np.int32)
    for _ in range(n_modes):
        width = np.minimum(remaining, top) + 1
        parent = np.repeat(np.arange(len(remaining), dtype=np.int32), width)
        start = np.cumsum(width, dtype=np.int32) - width
        c = np.arange(len(parent), dtype=np.int32) - np.repeat(start, width)
        levels.append((parent, c))
        remaining = remaining[parent] - c
    counts = np.empty((len(remaining), n_modes), dtype=np.int32)
    row = np.arange(len(remaining))
    for j in range(n_modes - 1, -1, -1):
        parent, c = levels[j]
        counts[:, j] = c[row]
        row = parent[row]

    # Mixed-radix keys: big-endian 32-bit digits compare bytewise in the
    # same lexicographic order, so p - e_j is found by binary search.
    keys = _pattern_keys(counts)
    minus = np.full((n_modes, len(keys)), -1, dtype=np.int32)
    for j in range(n_modes):
        rows = np.flatnonzero(counts[:, j] > 0)
        lower = counts[rows]
        lower[:, j] -= 1
        minus[j, rows] = np.searchsorted(keys, _pattern_keys(lower))

    fact = np.array([math.factorial(k) for k in range(top + 1)], dtype=float)
    factorials = np.ones(len(counts))
    for j in range(n_modes):
        factorials *= fact[counts[:, j]]
    lattice = _Lattice(
        cutoff_total=cutoff_total,
        cutoff_per_mode=cutoff_per_mode,
        counts=counts,
        minus=minus,
        lowest=np.argmax(counts > 0, axis=1),
        totals=counts.sum(axis=1),
        factorials=factorials,
    )
    for a in (lattice.counts, lattice.minus, lattice.lowest, lattice.totals,
              lattice.factorials):
        a.flags.writeable = False
    return lattice


@dataclass(frozen=True, eq=False)  # eq=False: == on an ndarray field is ambiguous
class PatternDistribution:
    """Finite truncation of the sampler law: the probability of each pattern
    of `lattice`, in lattice order, and their sum `mass`."""

    lattice: _Lattice
    probs: np.ndarray
    mass: float

    @functools.cached_property
    def entries(self) -> Mapping[Pattern, float]:
        """Read-only pattern -> probability view, built on first read."""
        rows = map(tuple, self.lattice.counts.tolist())
        return MappingProxyType(dict(zip(rows, self.probs.tolist())))


def _lattice_law(lat: _Lattice, b: np.ndarray, prefactor: float) -> np.ndarray:
    """Probabilities of every lattice pattern, one even total at a time."""
    haf = np.zeros(len(lat.counts), dtype=complex)
    haf[0] = 1.0
    for t in range(2, int(lat.totals.max(initial=0)) + 1, 2):
        idx = np.flatnonzero(lat.totals == t)
        low = lat.lowest[idx]
        q = lat.minus[low, idx]  # p - e_i
        acc = np.zeros(len(idx), dtype=complex)
        for j in range(lat.counts.shape[1]):
            # Where q_j = 0 the child index is -1; the weight q_j kills it.
            acc += lat.counts[q, j] * b[low, j] * haf[lat.minus[j, q]]
        haf[idx] = acc
    return prefactor * np.abs(haf) ** 2 / lat.factorials


def _check_total_law(
    lambdas: np.ndarray, prefactor: float, by_total: np.ndarray, upto: int
) -> None:
    """Passive U preserves photon number, so up to `upto` photons the mass
    per total is the convolution of single-mode squeezed-vacuum laws
    P(2m) = sech r * tanh^{2m} r * (2m)! / (2^m m!)^2."""
    m = np.arange(upto // 2 + 1)
    pair_weight = np.array([math.comb(2 * k, k) / 4.0**k for k in m])
    law = np.zeros(upto + 1)
    law[0] = prefactor
    for lam in lambdas:
        single = np.zeros(upto + 1)
        single[::2] = pair_weight * lam ** (2 * m)
        law = np.convolve(law, single)[: upto + 1]
    worst = float(np.max(np.abs(by_total[: upto + 1] - law)))
    if not worst <= 1e-9:  # a NaN law fails too
        raise InvariantError(
            f"mass per photon total departs from the squeezed-vacuum law "
            f"by {worst:.3e}"
        )


def enumerate_distribution(
    e: GBSEncoding,
    cutoff_total: int,
    cutoff_per_mode: int,
    budget: int = PATTERN_BUDGET,
) -> PatternDistribution:
    """Exact probabilities of every pattern within the cutoffs."""
    if cutoff_total < 0 or cutoff_per_mode < 0:
        raise ValueError("cutoffs must be nonnegative")
    required = count_patterns(e.n, cutoff_total, cutoff_per_mode)
    if required > budget:
        raise BudgetError(
            f"{required} patterns exceed the enumeration budget {budget}",
            required=required,
            budget=budget,
        )
    lat = _lattice(e.n, cutoff_total, cutoff_per_mode)
    prefactor = _sech_prefactor(e.lambdas)
    probs = _lattice_law(lat, reconstruct(e.u, e.lambdas), prefactor)
    upto = min(cutoff_total, cutoff_per_mode)
    by_total = np.bincount(lat.totals, weights=probs, minlength=upto + 1)
    _check_total_law(e.lambdas, prefactor, by_total, upto)
    mass = float(np.cumsum(probs)[-1])  # sequential, in lexicographic order
    if not mass <= 1.0 + 1e-9:
        raise InvariantError(f"enumerated mass {mass} exceeds 1")
    return PatternDistribution(lattice=lat, probs=probs, mass=mass)


def _shot_rng(seed: int, tag: int, shot: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, shot])


def _per_shot(seed: int, tag: int, items: Iterable, draw) -> list:
    """draw(rng, item) for each item i, on its own stream (seed, tag, i)."""
    return [draw(_shot_rng(seed, tag, i), item) for i, item in enumerate(items)]


def sample_gbs(
    e: GBSEncoding,
    shots: int,
    cutoff_total: int,
    cutoff_per_mode: int,
    seed: int,
) -> SampleBatch:
    """I.i.d. draws from the enumerated law renormalized by its mass."""
    dist = enumerate_distribution(e, cutoff_total, cutoff_per_mode)
    if dist.mass <= 0:
        raise InvariantError("enumerated distribution has zero mass")
    cum = np.cumsum(dist.probs / dist.mass)
    cum[-1] = 1.0
    u = _per_shot(seed, _TAG_GBS, range(shots), lambda rng, _: rng.random())
    return SampleBatch(
        patterns=dist.lattice.counts[np.searchsorted(cum, u, side="right")],
        seed=seed,
        backend="gbs",
        cutoff_total=cutoff_total,
        cutoff_per_mode=cutoff_per_mode,
    )


def sample_uniform(n_modes: int, k: int, shots: int, seed: int) -> SampleBatch:
    """Uniformly random k-subsets of modes, encoded as 0/1 patterns."""
    if k > n_modes:
        raise ValueError(f"k={k} exceeds mode count {n_modes}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    rows = _per_shot(seed, _TAG_UNIFORM, range(shots), lambda rng, _: np.bincount(
        rng.choice(n_modes, size=k, replace=False), minlength=n_modes))
    return SampleBatch(np.reshape(rows, (shots, n_modes)), seed, "uniform")


def sample_squashed(e: GBSEncoding, shots: int, seed: int) -> SampleBatch:
    """Classical baseline: squeezed inputs replaced by their squashed
    counterparts (squeezed quadrature raised to vacuum variance).

    Each shot draws a real amplitude a_i ~ Normal(0, (e^{2 r_i} - 1)/4)
    per input mode, propagates beta = U a, and detects
    count_i ~ Poisson(|beta_i|^2).
    """
    std = np.sqrt((np.exp(2.0 * e.squeezings) - 1.0) / 4.0)

    def draw(rng, _):
        beta = e.u @ (rng.normal(0.0, 1.0, size=e.n) * std)
        return rng.poisson(np.abs(beta) ** 2)

    rows = _per_shot(seed, _TAG_SQUASHED, range(shots), draw)
    return SampleBatch(np.reshape(rows, (shots, e.n)), seed, "squashed")


def sample(
    backend: str, source: GBSEncoding | int, shots: int, seed: int, *,
    k: int | None = None, cutoff_total: int = 6, cutoff_per_mode: int = 6,
) -> SampleBatch:
    """Draw `shots` patterns from one of BACKENDS.

    `source` is the encoding, or for uniform just the mode count; `k` is
    the uniform subset size and the cutoffs truncate the gbs law.
    """
    if backend == "gbs":
        return sample_gbs(source, shots, cutoff_total, cutoff_per_mode, seed)
    if backend == "squashed":
        return sample_squashed(source, shots, seed)
    if backend != "uniform":
        raise ValueError(f"unknown backend {backend!r}")
    if k is None:
        raise ValueError("the uniform backend needs a subset size k")
    n_modes = source if isinstance(source, int) else source.n
    return sample_uniform(n_modes, k, shots, seed)


def _thin_lattice(lat: _Lattice, w: np.ndarray, eta: float) -> np.ndarray:
    """Per-photon survival applied to lattice weights, one mode per pass:
    the weight at p moves to p - k e_j with probability
    C(p_j, k) (1 - eta)^k eta^(p_j - k)."""
    top = int(lat.counts.max(initial=0))
    lost = np.zeros((top + 1, top + 1))  # lost[c, k]: k of c photons lost
    for c in range(top + 1):
        for k in range(c + 1):
            lost[c, k] = math.comb(c, k) * eta ** (c - k) * (1 - eta) ** k
    for j in range(lat.counts.shape[1]):
        count = lat.counts[:, j]
        out = np.zeros_like(w)
        src = dst = np.arange(len(w))
        for k in range(top + 1):
            # dst is p - k e_j for every source p with p_j >= k; distinct
            # sources give distinct targets, so the fancy add is safe.
            out[dst] += w[src] * lost[count[src], k]
            nxt = lat.minus[j, dst]
            keep = nxt >= 0
            src, dst = src[keep], nxt[keep]
        w = out
    return w


def apply_loss(x, eta: float, seed: int = 0):
    """Uniform loss: each photon survives independently with probability eta.

    Batches are thinned stochastically (per-shot streams); distributions
    are convolved exactly, so the seed is unused for them.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if isinstance(x, SampleBatch):
        rows = _per_shot(seed, _TAG_LOSS, x.patterns,
                         lambda rng, row: rng.binomial(row, eta))
        return replace(x, patterns=np.reshape(rows, x.patterns.shape),
                       loss_eta=x.loss_eta * eta)
    if isinstance(x, PatternDistribution):
        # Thinned patterns lie below their source, so stay on the lattice.
        return replace(x, probs=_thin_lattice(x.lattice, x.probs, eta))
    raise TypeError(f"cannot apply loss to {type(x).__name__}")


def conditional_from_distribution(
    d: PatternDistribution | SampleBatch, total: int, collision_policy: str
) -> dict[Pattern, float]:
    """Law of the patterns carrying `total` photons, renormalised.

    A distribution weighs each lattice pattern by its probability; a batch
    weighs each shot by 1, so each value is count / selected shots.
    collision_free_only keeps only 0/1 patterns; threshold_collapse keeps
    every pattern at the total and collapses counts to clicks afterwards.
    """
    if collision_policy not in COLLISION_POLICIES:
        raise ValueError(f"unknown collision policy {collision_policy!r}")
    if total < 0:
        raise ValueError("total must be nonnegative")
    if isinstance(d, SampleBatch):
        rows, weights = d.patterns, np.ones(len(d.patterns))
    else:
        rows, weights = d.lattice.counts, d.probs
    keep = (rows.sum(axis=1) == total) & (weights != 0)
    if collision_policy == "collision_free_only":
        keep &= rows.max(axis=1, initial=0) <= 1
    else:
        rows = np.minimum(rows, 1)  # counts become detector clicks
    acc: dict[Pattern, float] = {}
    for p, w in zip(map(tuple, rows[keep].tolist()), weights[keep].tolist()):
        acc[p] = acc.get(p, 0.0) + w
    norm = sum(acc.values())
    if norm <= 0.0:
        raise EmptyConditionError(
            f"no weight at photon total {total} under {collision_policy}"
        )
    return {p: acc[p] / norm for p in sorted(acc)}


# The batch spelling of the same conditioning.
conditional_pattern_histogram = conditional_from_distribution


def save_batch(b: SampleBatch, *, provenance: dict | None = None) -> bytes:
    header = {
        "backend": b.backend,
        "seed": b.seed,
        "eta": b.loss_eta,
        "cutoff_total": b.cutoff_total,
        "cutoff_per_mode": b.cutoff_per_mode,
        "shots": len(b.patterns),
    }
    if provenance is not None:
        header["provenance"] = provenance
    lines = [json.dumps(header)]
    for p in b.patterns.tolist():
        lines.append(json.dumps({"pattern": p, "total": sum(p)}))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _record_pattern(rec) -> list[int]:
    """The record's "pattern", which must list non-negative integer counts."""
    p = rec["pattern"]
    if not isinstance(p, list) or any(type(c) is not int or c < 0 for c in p):
        raise FormatError(
            f"pattern counts must be non-negative integers in record {rec!r}"
        )
    return p


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def load_batch(source: bytes | str) -> SampleBatch:
    source = source_text(source)
    lines = [ln for ln in source.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty sample file")
    try:
        header = json.loads(lines[0])
        backend, seed, eta = header["backend"], header["seed"], header["eta"]
        cutoffs = header.get("cutoff_total"), header.get("cutoff_per_mode")
        for ok, want in (
            (type(backend) is str, "backend must be a string"),
            (type(seed) is int, "seed must be an integer"),
            (type(eta) in (int, float) and 0 <= eta <= 1,
             "eta must be a number in [0, 1]"),
            (all(c is None or _is_count(c) for c in cutoffs),
             "cutoffs must be non-negative integers or null"),
        ):
            if not ok:
                raise FormatError(f"{want} in header {header!r}")
        patterns = []
        for ln in lines[1:]:
            rec = json.loads(ln)
            p = _record_pattern(rec)
            if "total" in rec and rec["total"] != sum(p):
                raise FormatError(f"inconsistent total in record {rec!r}")
            if patterns and len(p) != len(patterns[0]):
                raise FormatError(f"record {rec!r} has {len(p)} modes but "
                                  f"the first record has {len(patterns[0])}")
            patterns.append(p)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad sample file: {exc}") from exc
    try:
        return SampleBatch(
            patterns=patterns, seed=seed, backend=backend, loss_eta=float(eta),
            cutoff_total=cutoffs[0], cutoff_per_mode=cutoffs[1],
        )
    except OverflowError:  # the counts must fit the int64 pattern array
        raise FormatError(f"pattern counts must be at most 2^63 - 1, got "
                          f"{max(map(max, patterns))}") from None


def save_distribution(
    d: PatternDistribution, *, provenance: dict | None = None
) -> bytes:
    doc = {
        "cutoff_total": d.lattice.cutoff_total,
        "cutoff_per_mode": d.lattice.cutoff_per_mode,
        "mass": d.mass,
        "entries": [
            {"pattern": p, "probability": w}
            for p, w in zip(d.lattice.counts.tolist(), d.probs.tolist())
        ],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return json.dumps(doc, indent=1).encode("utf-8")


def load_distribution(source: bytes | str) -> PatternDistribution:
    """Parse a distribution file. Its entries must be the full pattern
    lattice of its cutoffs, in lattice order."""
    source = source_text(source)
    try:
        doc = json.loads(source)
        patterns = [_record_pattern(rec) for rec in doc["entries"]]
        probs = [rec["probability"] for rec in doc["entries"]]
        total, per_mode = doc["cutoff_total"], doc["cutoff_per_mode"]
        mass = doc["mass"]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad distribution file: {exc}") from exc
    if not (is_finite_number(mass) and all(map(is_finite_number, probs))):
        raise FormatError("probabilities and mass must be finite numbers")
    if not (_is_count(total) and _is_count(per_mode)):
        raise FormatError(
            f"cutoffs must be non-negative integers, got {total!r}/{per_mode!r}"
        )
    n = len(patterns[0]) if patterns else 0
    # A lattice has one mode or more, and a pattern at every reachable total.
    # That rules out a shorter file before counting or building a lattice.
    if (n < 1 or min(total, n * per_mode) >= len(patterns)
            or count_patterns(n, total, per_mode) != len(patterns)
            or _lattice(n, total, per_mode).counts.tolist() != patterns):
        raise FormatError(
            f"entries are not the full pattern lattice of cutoffs {total}/{per_mode}"
        )
    return PatternDistribution(
        _lattice(n, total, per_mode), np.array(probs, dtype=float), float(mass)
    )
