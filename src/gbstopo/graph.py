"""Complex-weighted undirected graphs: construction, generators, densities,
threshold filters and file IO.

Edge weights are complex numbers w_ij = alpha + i*beta. A missing edge is
stored as exactly 0, so "edge present" and "weight nonzero" coincide.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError

# An ascending tuple of distinct vertex indices.
VertexSet = tuple[int, ...]

# The largest vertex count a graph may have: its n x n complex weight matrix
# takes 268 MB. The paper's networks and the bundled instances have n <= 100.
MAX_VERTICES = 4096

RECORD_CHUNK = 2**12  # records per join of column_records: bounds the strings held


def _mask_vertices(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _row_masks(rows: np.ndarray) -> list[int]:
    """The bitmask of each row of a 2-D boolean array, bit v for column v."""
    bits = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


@dataclass(frozen=True, eq=False)
class ComplexGraph:
    """Immutable n-vertex network with a complex symmetric adjacency matrix.

    Invariants enforced at construction: weights is n x n, finite,
    symmetric, zero on the diagonal. neighbor_masks[v] has bit u set iff
    uv is an edge. A vertex set is also written as an int bitmask, bit v
    for vertex v.
    """

    n: int
    weights: np.ndarray
    neighbor_masks: tuple[int, ...] = field(init=False, repr=False)
    # Densities already computed by _mask_density, keyed on the bitmask.
    _densities: dict[int, float] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        w = np.asarray(self.weights, dtype=complex)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights shape {w.shape} != ({self.n}, {self.n})")
        if not np.isfinite(w).all():
            i, j = np.argwhere(~np.isfinite(w))[0]
            raise ValueError(f"weight ({i},{j}) {w[i, j]} is not finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric")
        if np.any(w.diagonal() != 0):
            raise ValueError("diagonal must be zero")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "neighbor_masks", tuple(_row_masks(w != 0)))

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.weights)

    def num_edges(self) -> int:
        return int(np.count_nonzero(self.weights)) // 2

    # The mask methods below take a bitmask within range(n); the caller
    # checks it, as _vertex_mask does.

    def _common_mask(self, mask: int) -> int:
        """Bitmask of the vertices adjacent to every member of mask."""
        common = (1 << self.n) - 1
        while mask:
            low = mask & -mask
            mask ^= low
            common &= self.neighbor_masks[low.bit_length() - 1]
        return common

    def _is_clique_mask(self, mask: int) -> bool:
        """True iff every pair of the mask's vertices is an edge."""
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if mask & ~self.neighbor_masks[low.bit_length() - 1] != low:
                return False
        return True

    def _mask_density(self, mask: int) -> float:
        """clique_density of the mask's vertices, memoised on the graph;
        0.0 for fewer than 2 vertices.
        """
        d = self._densities.get(mask)
        if d is None:
            s = _mask_vertices(mask)
            d = _density(self, s) if len(s) >= 2 else 0.0
            self._densities[mask] = d
        return d


def graph_from_edges(
    n: int, edges: Iterable[tuple[int, int, complex]]
) -> ComplexGraph:
    """Build a graph from (i, j, weight) triples, mirroring each edge."""
    w = np.zeros((n, n), dtype=complex)
    for i, j, wij in edges:
        w[i, j] = wij
        w[j, i] = wij
    return ComplexGraph(n, w)


def source_text(source: bytes | str) -> str:
    """The text of a loader's `source`: UTF-8 bytes or str."""
    return source.decode("utf-8") if isinstance(source, bytes) else source


def document_text(doc: dict, provenance: dict | None, bulk: str = "",
                  records: str = "", indent: int | None = 1) -> str:
    """json.dumps(doc, indent=indent) with `provenance`, if given, as the
    last key. Non-empty `records` fill doc's empty top-level list `bulk`:
    its items spelled as json.dumps(indent=1) spells them, joined by ",\\n"."""
    if provenance is not None:
        doc = {**doc, "provenance": provenance}
    text = json.dumps(doc, indent=indent)
    if records:  # strings hold no raw newline: only a top-level key matches
        key = f'\n "{bulk}": ['
        text = text.replace(key + "]", f"{key}\n{records}\n ]", 1)
    return text


def column_records(item: str, columns, rows: int) -> str:
    """document_text's `records`: `rows` copies of `item` joined by ",\\n".
    columns(lo, hi) gives one iterable of strings per "%s", for records lo..hi-1."""
    frame = [x for part in item.split("%s") for x in (part, None)][:-1] + [",\n"]
    chunks = []
    for lo in range(0, rows, RECORD_CHUNK):
        seq = frame * (min(rows, lo + RECORD_CHUNK) - lo)
        for i, column in enumerate(columns(lo, lo + RECORD_CHUNK)):
            seq[2 * i + 1::len(frame)] = column
        seq.pop()
        chunks.append("".join(seq))
    return ",\n".join(chunks)


def is_finite_number(v) -> bool:
    """A loader's test for a JSON number: a finite int or float, not a bool
    or a string that float() would coerce."""
    try:
        return type(v) in (int, float) and cmath.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


def _summable(w: np.ndarray) -> np.ndarray:
    """w, or FormatError if |re| + |im| over its entries sums past the
    largest float, where a clique density (a sum of entries) could."""
    with np.errstate(over="ignore"):
        if np.isfinite(np.abs(w.view(float)).sum()):
            return w
    raise FormatError("the weight sum overflows: |re| + |im| over every edge "
                      "exceeds the largest float")


def load_graph(source: bytes | str) -> ComplexGraph:
    """Parse the canonical edge-list format.

    `source` is UTF-8 bytes or str. The document is
    a JSON object {"n": int, "edges": [{"i","j","re","im"}, ...]} with
    i < j and no duplicates; unlisted pairs have weight 0.
    """
    source = source_text(source)
    try:
        doc = json.loads(source)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"graph document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise FormatError("graph document must have fields 'n' and 'edges'")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise FormatError(f"invalid vertex count: {n!r}")
    if not isinstance(doc["edges"], list):
        raise FormatError(f"'edges' must be a list, got {doc['edges']!r}")
    if n > MAX_VERTICES:  # before the n x n matrix is allocated
        raise FormatError(
            f"vertex count {n} is too large: at most {MAX_VERTICES} are supported"
        )
    w = np.zeros((n, n), dtype=complex)
    seen: set[tuple[int, int]] = set()
    for rec in doc["edges"]:
        try:
            i, j, re, im = rec["i"], rec["j"], rec["re"], rec["im"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad edge record {rec!r}") from exc
        if type(i) is not int or type(j) is not int:
            raise FormatError(f"edge indices must be integers in record {rec!r}")
        if i == j:
            raise FormatError(f"self-loop at vertex {i} is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"edge ({i},{j}) out of range for n={n}")
        if i > j:
            raise FormatError(f"edge ({i},{j}) violates i < j ordering")
        if (i, j) in seen:
            raise FormatError(f"duplicate edge ({i},{j})")
        if not (is_finite_number(re) and is_finite_number(im)):
            raise FormatError(
                f"edge ({i},{j}) has a non-finite weight (re {re!r}, im {im!r}); "
                f"each must be a finite JSON number"
            )
        wij = complex(re, im)
        if wij == 0:
            raise FormatError(
                f"edge ({i},{j}) has zero weight; omit absent edges instead"
            )
        seen.add((i, j))
        w[i, j] = wij
        w[j, i] = wij
    return ComplexGraph(n, _summable(w))


def save_graph(g: ComplexGraph, *, provenance: dict | None = None) -> bytes:
    """Serialize to the canonical edge-list format; inverse of load_graph.

    Floats are emitted with repr precision so the round trip is bit exact.
    A `provenance` mapping, if given, is written as the last key.
    """
    iu, ju = np.nonzero(np.triu(g.weights, 1))
    w = g.weights[iu, ju]
    item = '  {\n   "i": %s,\n   "j": %s,\n   "re": %s,\n   "im": %s\n  }'
    records = column_records(item, lambda lo, hi: [
        map(repr, a[lo:hi].tolist()) for a in (iu, ju, w.real, w.imag)], len(iu))
    doc = {"n": g.n, "edges": []}
    return document_text(doc, provenance, "edges", records).encode("utf-8")


WeightLaw = tuple[tuple[float, float], tuple[float, float]]


def random_dual_layer(
    n: int,
    edge_prob: float,
    weight_law: WeightLaw = ((-1.0, 1.0), (-1.0, 1.0)),
    seed: int = 0,
) -> ComplexGraph:
    """Random network with independent real and imaginary weight layers.

    Each unordered pair is an edge with probability edge_prob; a present
    edge gets w = alpha + i*beta with alpha, beta uniform on the given
    ranges. Deterministic for a fixed seed.
    """
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge probability {edge_prob} outside [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_VERTICES:
        raise ValueError(f"n must be at most {MAX_VERTICES}, got {n}")
    for lo, hi in weight_law:
        if not cmath.isfinite(hi - lo):  # numpy's uniform needs a finite width
            raise ValueError(f"weight range ({lo}, {hi}) is wider than a float")
    rng = np.random.default_rng(seed)
    m = n * (n - 1) // 2
    present = rng.random(m) < edge_prob
    (alo, ahi), (blo, bhi) = weight_law
    alpha = rng.uniform(alo, ahi, m)
    beta = rng.uniform(blo, bhi, m)
    w = np.zeros((n, n), dtype=complex)
    iu, ju = np.triu_indices(n, k=1)
    vals = np.where(present, alpha + 1j * beta, 0.0)
    w[iu, ju] = vals
    w[ju, iu] = vals
    return ComplexGraph(n, _summable(w))


def _vertices_of(g: ComplexGraph, s: Sequence[int]) -> VertexSet:
    """s as an ascending tuple; ValueError on a duplicate vertex or one
    outside 0..n-1."""
    s = tuple(sorted(map(int, s)))
    if len(set(s)) != len(s):
        raise ValueError(f"duplicate vertex in {s}")
    if s and (s[0] < 0 or s[-1] >= g.n):
        bad = s[0] if s[0] < 0 else s[-1]
        raise ValueError(f"vertex {bad} out of range for n={g.n}")
    return s


def _vertex_mask(g: ComplexGraph, s: Sequence[int]) -> int:
    """Bitmask of s; ValueError on a duplicate or out-of-range vertex."""
    return sum(1 << v for v in _vertices_of(g, s))


def _density(g: ComplexGraph, s: Sequence[int]) -> float:
    """clique_density of an ascending vertex list, unchecked."""
    k = len(s)
    sub = g.weights.take(s, 0).take(s, 1)
    return float(abs(sub.sum())) / (k * (k - 1))


def clique_density(g: ComplexGraph, s: Sequence[int]) -> float:
    """Weighted density |sum over ordered pairs of w_ij| / (k(k-1)).

    Defined for any vertex set of size k >= 2; s need not be a clique.
    """
    s = _vertices_of(g, s)
    if len(s) < 2:
        raise ValueError("density requires at least 2 vertices")
    return _density(g, s)


def edge_filter(g: ComplexGraph, omega_t: float) -> ComplexGraph:
    """Keep the edges with 0 < |w| <= omega_t, on all n vertices."""
    if omega_t < 0:
        raise ValueError("threshold must be nonnegative")
    mag = g.magnitudes()
    return ComplexGraph(g.n, np.where((mag > 0) & (mag <= omega_t), g.weights, 0.0))


def _pair_ids(n: int, cliques: np.ndarray) -> np.ndarray:
    """The flat n x n index u * n + v of each pair u < v inside each row of
    a clique array, a column per pair."""
    a, b = np.triu_indices(cliques.shape[1], 1)
    return cliques[:, a] * n + cliques[:, b]


def _pairs_inside(n: int, cliques: Sequence[VertexSet], k: int) -> np.ndarray:
    """n x n boolean mask of the vertex pairs inside any of these k-cliques."""
    mask = np.zeros((n, n), dtype=bool)
    mask.flat[_pair_ids(n, np.array(cliques, dtype=np.intp).reshape(-1, k))] = True
    return mask | mask.T


def is_clique(g: ComplexGraph, s: Sequence[int]) -> bool:
    """True iff every pair in s is an edge; empty and singleton sets pass."""
    return g._is_clique_mask(_vertex_mask(g, s))
