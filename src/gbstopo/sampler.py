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
from .graph import document_text, is_finite_number, source_text

Pattern = tuple[int, ...]

PATTERN_BUDGET = 5_000_000

BACKENDS = ("gbs", "uniform", "squashed")
COLLISION_POLICIES = ("threshold_collapse", "collision_free_only")

# Stream tags keep the per-shot RNG streams of different consumers disjoint.
_TAG_GBS, _TAG_UNIFORM, _TAG_SQUASHED, _TAG_LOSS = range(4)

# What _invert may walk; more is refused with BudgetError before a walk.
MEAN_BUDGET = 500.0  # largest squashed Poisson mean; exp(-500) is normal
COUNT_BUDGET = 1000  # largest count a draw reaches or batch loss thins


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
    # Add one mode per step, from the last: block c is c followed by every
    # suffix with sum <= reachable - c, and ascending c over lexicographic
    # suffixes is lexicographic order. Totals above n_modes * top are
    # unreachable, so a larger cutoff_total need not fit int32.
    counts = np.zeros((1, 0), dtype=np.int32)
    for _ in range(n_modes):
        used = counts.sum(axis=1)
        counts = np.vstack([
            np.column_stack((np.full(len(rest), c, dtype=np.int32), rest))
            for c in range(top + 1) for rest in [counts[used <= reachable - c]]
        ])

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
    e: GBSEncoding, cutoff_total: int, cutoff_per_mode: int
) -> PatternDistribution:
    """Exact probabilities of every pattern within the cutoffs."""
    if cutoff_total < 0 or cutoff_per_mode < 0:
        raise ValueError("cutoffs must be nonnegative")
    required = count_patterns(e.n, cutoff_total, cutoff_per_mode)
    if required > PATTERN_BUDGET:
        raise BudgetError(
            f"{required} patterns exceed the enumeration budget {PATTERN_BUDGET}",
            required=required,
            budget=PATTERN_BUDGET,
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
    """The stream of shot `shot`; the reference _doubles is checked on."""
    return np.random.default_rng([seed, tag, shot])


# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64 seeding, replayed
# on arrays so the streams of a whole batch are seeded at once.
_M32 = 0xFFFF_FFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)  # mix_entropy's hashmix: (init, mult)
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # generate_state's hash: (init, mult)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_MAX_STREAMS = 2**32  # shot indices from 2^32 on enter the seed as two words


def _hasher(init: int, mult: int):
    """SeedSequence's hash: XOR the running constant in, step the constant,
    multiply by it and fold the high half down. The constant depends only
    on how many words were hashed before, so it stays a Python int."""
    const = init

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _M32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _mul128(a: tuple, b: tuple) -> tuple:
    """(hi, lo) uint64 pairs multiplied mod 2^128."""
    (ah, al), (bh, bl) = a, b
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = al & m32, al >> s32, bl & m32, bl >> s32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> s32) + (p01 & m32) + (p10 & m32)
    high = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return high + ah * bl + al * bh, al * bl


def _add128(a: tuple, b: tuple) -> tuple:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]).astype(np.uint64), lo


def _pcg_step(state: tuple, inc: tuple) -> tuple:
    return _add128(_mul128(state, _PCG_MULT), inc)


def _shot_states(seed: int, tag: int, shots: int) -> tuple[tuple, tuple]:
    """The PCG64 (state, inc) of default_rng([seed, tag, i]) for every i in
    range(shots), each a (hi, lo) pair of uint64 arrays."""
    if shots > _MAX_STREAMS:
        raise BudgetError(
            f"{shots} shots exceed the {_MAX_STREAMS} per-shot streams a "
            f"batch may seed", required=shots, budget=_MAX_STREAMS,
        )
    # The seed enters as uint32 words, least significant first; 0 is one word.
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(shots, w, dtype=np.uint32) for w in words + [tag]]
    entropy.append(np.arange(shots, dtype=np.uint32))
    hashmix = _hasher(*_HASH_A)
    zero = np.zeros(shots, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 words from the pool, paired little-endian
    # into (state hi, state lo, seq hi, seq lo).
    hash_b = _hasher(*_HASH_B)
    out = [hash_b(pool[k % 4]).astype(np.uint64) for k in range(8)]
    s_hi, s_lo, q_hi, q_lo = (
        out[k] | out[k + 1] << np.uint64(32) for k in range(0, 8, 2)
    )
    # PCG64 srandom: inc = 2 seq + 1; step from 0; add the seed; step.
    one = np.uint64(1)
    inc = (q_hi << one | q_lo >> np.uint64(63), q_lo << one | one)
    return _pcg_step(_add128(inc, (s_hi, s_lo)), inc), inc


def _doubles(seed: int, tag: int, shots: int, m: int) -> np.ndarray:
    """default_rng([seed, tag, i]).random(m) for every i in range(shots), as
    a (shots, m) array: per double one PCG64 step, its XSL-RR output, the
    top 53 bits times 2^-53. Shots 0 and shots - 1 are checked against
    _shot_rng: a numpy that draws otherwise raises InvariantError."""
    state, inc = _shot_states(seed, tag, shots)
    out = np.empty((shots, m))
    for j in range(m):
        hi, lo = state = _pcg_step(state, inc)
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        x = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
        out[:, j] = (x >> np.uint64(11)).astype(np.float64) * 2.0**-53
    for i in sorted({0, shots - 1}) if shots else []:
        want = _shot_rng(seed, tag, i).random(m)
        if not np.array_equal(out[i], want):
            raise InvariantError(f"seeded stream ({seed}, {tag}, {i}) draws "
                                 f"{out[i]}, but default_rng gives {want}")
    return out


def _invert(u: np.ndarray, last, term) -> np.ndarray:
    """Inversion by sequential search (Devroye 1986, sec. III.2) over
    arrays: per element of u, the least k <= last with u < term(0) + ... +
    term(k). term(k, idx, prev) gives the k-th probability of the flat
    elements idx still searching, from prev, their (k-1)-th."""
    flat, last = u.ravel(), np.broadcast_to(last, u.shape).ravel()
    out, idx = np.empty(flat.shape, dtype=np.int64), np.arange(flat.size)
    prob = cdf = np.zeros(flat.size)
    k = 0
    while idx.size:
        prob = term(k, idx, prob)
        cdf = cdf + prob
        done = (flat[idx] < cdf) | (last[idx] == k)
        out[idx[done]] = k
        idx, prob, cdf, k = idx[~done], prob[~done], cdf[~done], k + 1
    return out.reshape(u.shape)


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
    u = _doubles(seed, _TAG_GBS, shots, 1)[:, 0]
    return SampleBatch(
        patterns=dist.lattice.counts[np.searchsorted(cum, u, side="right")],
        seed=seed,
        backend="gbs",
        cutoff_total=cutoff_total,
        cutoff_per_mode=cutoff_per_mode,
    )


def sample_uniform(n_modes: int, k: int, shots: int, seed: int) -> SampleBatch:
    """Uniformly random k-subsets of modes, encoded as 0/1 patterns: the
    modes of a shot's k smallest doubles, ties to the lower mode."""
    if k > n_modes:
        raise ValueError(f"k={k} exceeds mode count {n_modes}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    u = _doubles(seed, _TAG_UNIFORM, shots, n_modes)
    rows = np.zeros((shots, n_modes), dtype=np.int64)
    np.put_along_axis(rows, np.argsort(u, axis=1, kind="stable")[:, :k], 1, 1)
    return SampleBatch(rows, seed, "uniform")


def sample_squashed(e: GBSEncoding, shots: int, seed: int) -> SampleBatch:
    """Classical baseline: squeezed inputs replaced by their squashed
    counterparts (squeezed quadrature raised to vacuum variance).

    Each shot draws a real amplitude a_i ~ Normal(0, (e^{2 r_i} - 1)/4)
    per input mode, propagates beta = U a, and detects
    count_i ~ Poisson(|beta_i|^2). A shot's first h = ceil(n/2) doubles are
    Box-Muller radii, the next h angles; one more per mode inverts Poisson.
    """
    h = (e.n + 1) // 2
    u = _doubles(seed, _TAG_SQUASHED, shots, 2 * h + e.n)
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[:, :h])), 2.0 * np.pi * u[:, h:2 * h]
    normal = np.hstack([radius * np.cos(angle), radius * np.sin(angle)])[:, :e.n]
    std = np.sqrt((np.exp(2.0 * e.squeezings) - 1.0) / 4.0)
    # einsum, not @: a BLAS product would start worker threads.
    mean = np.abs(np.einsum("ij,sj->si", e.u, normal * std)) ** 2
    if not (worst := float(mean.max(initial=0.0))) <= MEAN_BUDGET:
        raise BudgetError(f"Poisson mean {worst!r} exceeds the inversion bound "
                          f"{MEAN_BUDGET}", required=worst, budget=MEAN_BUDGET)
    counts = _invert(u[:, 2 * h:], COUNT_BUDGET, lambda k, idx, p: np.exp(
        -mean.flat[idx]) if k == 0 else p * mean.flat[idx] / k)
    return SampleBatch(counts, seed, "squashed")


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


def _loss_table(top: int, eta: float) -> np.ndarray:
    """lost[c, k] = C(c, k) (1 - eta)^k eta^(c - k): k of c <= top lost."""
    if top > COUNT_BUDGET:
        raise BudgetError(f"photon count {top} exceeds the loss table bound "
                          f"{COUNT_BUDGET}", required=top, budget=COUNT_BUDGET)
    lost = np.zeros((top + 1, top + 1))
    for c in range(top + 1):
        comb = 1  # C(c, k), exact
        for k in range(c + 1):
            lost[c, k] = comb * eta ** (c - k) * (1 - eta) ** k
            comb = comb * (c - k) // (k + 1)
    return lost


def _thin_lattice(lat: _Lattice, w: np.ndarray, eta: float) -> np.ndarray:
    """Per-photon survival applied to lattice weights, one mode per pass:
    the weight at p moves to p - k e_j with probability lost[p_j, k]."""
    lost = _loss_table(int(lat.counts.max(initial=0)), eta)
    for j in range(lat.counts.shape[1]):
        count = lat.counts[:, j]
        out = np.zeros_like(w)
        src = dst = np.arange(len(w))
        for k in range(len(lost)):
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

    A batch count c loses k photons by inverting lost[c] with one double of
    its shot's stream; distributions are convolved exactly with the same
    table, so the seed is unused for them.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if isinstance(x, SampleBatch):
        lost = _loss_table(int(x.patterns.max(initial=0)), eta)
        u = _doubles(seed, _TAG_LOSS, *x.patterns.shape)
        gone = _invert(u, x.patterns, lambda k, idx, _: lost[x.patterns.flat[idx], k])
        return replace(x, patterns=x.patterns - gone, loss_eta=x.loss_eta * eta)
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
    width = b.patterns.shape[1]
    item = '{"pattern": [%s], "total": %%d}' % ", ".join(["%d"] * width)
    lines = [document_text(header, provenance, indent=None)]
    lines += [item % (*p, sum(p)) for p in b.patterns.tolist()]
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
            total = rec.get("total", sum(p))
            if not _is_count(total) or total != sum(p):
                raise FormatError(f"inconsistent total in record {rec!r}")
            if patterns and len(p) != len(patterns[0]):
                raise FormatError(f"record {rec!r} has {len(p)} modes but "
                                  f"the first record has {len(patterns[0])}")
            patterns.append(p)
        shots = header.get("shots", len(patterns))
        if not _is_count(shots) or shots != len(patterns):
            raise FormatError(f"header shots {shots!r} is not the record "
                              f"count {len(patterns)}")
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
    bad = np.flatnonzero(~np.isfinite(d.probs))
    if len(bad):
        raise InvariantError(f"probability {d.probs[bad[0]]} of pattern "
                             f"{d.lattice.counts[bad[0]].tolist()} is not finite")
    if not math.isfinite(d.mass):
        raise InvariantError(f"distribution mass {d.mass} is not finite")
    # A lattice has one mode or more, so json spells no pattern "[]".
    counts = ",".join(["\n    %d"] * d.lattice.counts.shape[1])
    item = '  {\n   "pattern": [%s\n   ],\n   "probability": %%r\n  }' % counts
    records = ",\n".join([
        item % (*p, w) for p, w in zip(d.lattice.counts.tolist(), d.probs.tolist())
    ])
    doc = {
        "cutoff_total": d.lattice.cutoff_total,
        "cutoff_per_mode": d.lattice.cutoff_per_mode,
        "mass": d.mass,
        "entries": [],
    }
    return document_text(doc, provenance, "entries", records).encode("utf-8")


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
