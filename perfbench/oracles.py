"""Output oracles, run after each operation outside the timed section.

They read the files the CLI wrote and check them against facts computed
here without gbstopo: the squeezed-vacuum photon-number law, clique and
Euler-characteristic identities, and networkx's k-clique communities.
Each check_* returns a failure message, or None when the output is
correct. run.py starts this file as a child process and sends it one
check at a time (see `serve`), so the oracles' imports and memory stay
out of the measured process.
"""

from __future__ import annotations

import functools
import json
import math
import pickle
import re
import sys
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np

TOL = 1e-9


class FormatDefect(UserWarning):
    """A known program defect in how a correct value is printed. Oracles
    warn with it and check the value; run.py reports it on every run."""


_NUMPY_SCALAR = re.compile(r"np\.float64\((.*)\)")


def run_check(name: str, args: tuple) -> tuple[str | None, list[str]]:
    """Call one check; return its failure message and the FormatDefects
    it reported."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", FormatDefect)
        try:
            error = globals()[name](*args)
        except Exception as exc:  # unreadable output fails the check
            error = f"{name} raised {exc!r}"
    defects = {str(w.message) for w in caught
               if issubclass(w.category, FormatDefect)}
    return error, sorted(defects)


def serve(requests, replies) -> None:
    """Answer pickled (check name, args) requests until end of input. The
    requests come from run.py, which started this process."""
    while True:
        try:
            name, args = pickle.load(requests)
        except EOFError:
            return
        pickle.dump(run_check(name, args), replies)
        replies.flush()


def _number(text: str, where: str) -> float:
    """Parse a printed float; a numpy scalar repr is a FormatDefect."""
    scalar = _NUMPY_SCALAR.fullmatch(text)
    if scalar:
        warnings.warn(
            f"{where} holds numpy scalar reprs like 'np.float64(x)' in place "
            "of plain numbers",
            FormatDefect,
        )
        text = scalar.group(1)
    return float(text)


def _load_graph(path: Path) -> tuple[int, dict[tuple[int, int], complex]]:
    doc = json.loads(path.read_bytes())
    edges = {
        (e["i"], e["j"]): complex(e["re"], e["im"]) for e in doc["edges"]
    }
    return doc["n"], edges


def _squeezings(graph: Path, target_spectral: float) -> np.ndarray:
    """r_i = atanh of the singular values of A rescaled to target_spectral.

    The Takagi values of a complex symmetric matrix are its singular
    values, so this needs no Takagi factorisation.
    """
    n, edges = _load_graph(graph)
    a = np.zeros((n, n), dtype=complex)
    for (i, j), w in edges.items():
        a[i, j] = a[j, i] = w
    sv = np.linalg.svd(a, compute_uv=False)
    return np.arctanh(sv * (target_spectral / sv[0]))


def total_photon_law(r: np.ndarray, cutoff: int) -> np.ndarray:
    """Mass at each photon total 0..cutoff: the convolution of single-mode
    squeezed-vacuum laws P(2m) = sech r tanh^2m r (2m)!/(2^m m!)^2 (a
    passive interferometer preserves the total)."""
    law = np.zeros(cutoff + 1)
    law[0] = 1.0
    for ri in r:
        mode = np.zeros(cutoff + 1)
        for m in range(cutoff // 2 + 1):
            mode[2 * m] = (
                math.tanh(ri) ** (2 * m) / math.cosh(ri)
                * math.factorial(2 * m) / (2**m * math.factorial(m)) ** 2
            )
        law = np.convolve(law, mode)[: cutoff + 1]
    return law


def _per_total(doc: dict) -> np.ndarray:
    out = np.zeros(doc["cutoff_total"] + 1)
    for e in doc["entries"]:
        out[sum(e["pattern"])] += e["probability"]
    return out


def _check_law_doc(doc: dict, want: np.ndarray) -> str | None:
    probs = [e["probability"] for e in doc["entries"]]
    if min(probs) < 0.0:
        return "negative probability"
    mass = math.fsum(probs)
    if mass > 1.0 or abs(mass - doc["mass"]) > TOL:
        return f"mass {mass} (recorded {doc['mass']})"
    if doc["cutoff_per_mode"] < doc["cutoff_total"]:
        return "per-mode cutoff below the total cutoff; per-total check invalid"
    worst = float(np.max(np.abs(_per_total(doc) - want)))
    if worst > TOL:
        return f"per-total mass off the squeezed-vacuum law by {worst:.3e}"
    return None


def check_distribution(graph: Path, target: float, dist: Path) -> str | None:
    doc = json.loads(dist.read_bytes())
    odd = [e for e in doc["entries"]
           if sum(e["pattern"]) % 2 and e["probability"] != 0.0]
    if odd:
        return f"{len(odd)} odd-total patterns carry mass at eta = 1"
    want = total_photon_law(_squeezings(graph, target), doc["cutoff_total"])
    return _check_law_doc(doc, want)


def check_loss(
    graph: Path, target: float, dist: Path, lossy: Path, eta: float
) -> str | None:
    """Loss keeps the mass, and thins each photon total binomially."""
    src, doc = json.loads(dist.read_bytes()), json.loads(lossy.read_bytes())
    src_mass = math.fsum(e["probability"] for e in src["entries"])
    mass = math.fsum(e["probability"] for e in doc["entries"])
    if abs(mass - src_mass) > TOL:
        return f"loss changed the mass from {src_mass} to {mass}"
    if {tuple(e["pattern"]) for e in src["entries"]} != {
        tuple(e["pattern"]) for e in doc["entries"]
    }:
        return "loss changed the pattern set"
    cutoff = doc["cutoff_total"]
    source = total_photon_law(_squeezings(graph, target), cutoff)
    want = np.zeros(cutoff + 1)
    for s, w in enumerate(source):
        for t in range(s + 1):
            want[t] += w * math.comb(s, t) * eta**t * (1 - eta) ** (s - t)
    return _check_law_doc(doc, want)


def check_batch(path: Path, n_modes: int, shots: int) -> str | None:
    lines = path.read_bytes().decode().splitlines()
    header = json.loads(lines[0])
    if header["shots"] != shots or len(lines) - 1 != shots:
        return f"{len(lines) - 1} records, header says {header['shots']}"
    for ln in lines[1:]:
        rec = json.loads(ln)
        p = rec["pattern"]
        if len(p) != n_modes or min(p) < 0 or rec["total"] != sum(p):
            return f"bad record {ln}"
    return None


def check_cliques(graph: Path, out: Path, k: int) -> str | None:
    """Every reported clique is a k-clique of the input graph, with the
    weighted density |sum_{i != j} w_ij| / (k(k-1))."""
    _, edges = _load_graph(graph)
    doc = json.loads(out.read_bytes())
    if doc["successes"] != len(doc["cliques"]):
        return "successes differ from the clique list"
    if doc["success_rate"] != doc["successes"] / doc["shots"]:
        return "success rate is not successes / shots"
    for c in doc["cliques"]:
        vs = c["vertices"]
        if len(vs) != k or len(set(vs)) != k:
            return f"{vs} is not a {k}-set"
        pairs = list(combinations(sorted(vs), 2))
        if any(pair not in edges for pair in pairs):
            return f"{vs} is not a clique"
        density = abs(2 * sum(edges[pair] for pair in pairs)) / (k * (k - 1))
        if abs(density - c["density"]) > TOL:
            return f"{vs} density {c['density']}, want {density}"
    return None


def check_compare(out: Path, shots: int) -> str | None:
    doc = json.loads(out.read_bytes())
    if set(doc["backends"]) != {"gbs", "uniform", "squashed"}:
        return f"backends {sorted(doc['backends'])}"
    for name, s in doc["backends"].items():
        lo, hi = s["interval_95"]
        if (
            s["shots"] != shots
            or not 0 <= s["successes"] <= shots
            or s["success_rate"] != s["successes"] / shots
            or not lo <= s["success_rate"] <= hi
        ):
            return f"inconsistent {name} statistics {s}"
    return None


def _read_table(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


def _clique_counts(row: dict[str, str]) -> dict[int, int]:
    return {int(key[1:]): int(v) for key, v in row.items()
            if key[0] == "m" and key[1:].isdigit()}


def _alternating(counts: dict[int, int], top: int | None = None) -> int:
    return sum((-1) ** (k - 1) * m for k, m in counts.items()
               if top is None or k <= top)


def _check_chi(row: dict[str, str]) -> str | None:
    chi = int(row["chi"])
    if chi != _alternating(_clique_counts(row)):
        return f"chi {chi} is not the alternating sum of m_k in {row}"
    s_chi = float(row["s_chi"])
    want = -math.inf if chi == 0 else math.log(abs(chi))
    if s_chi != want:
        return f"s_chi {s_chi} for chi {chi}"
    return None


def check_surface(path: Path) -> str | None:
    rows = _read_table(path)
    if len(rows) != 400:
        return f"{len(rows)} surface cells, want 400"
    for row in rows:
        bad = _check_chi(row)
        if bad is None and int(row["tpt"]) != (int(row["chi"]) == 0):
            bad = f"tpt flag wrong in {row}"
        if bad:
            return bad
    return None


def check_betti(path: Path, dmax: int) -> str | None:
    """Euler-Poincare, truncated at dmax: sum_{d<=D} (-1)^d beta_d
    + (-1)^D r_{D+2} equals sum_{k<=D+1} (-1)^(k-1) m_k; every rank fits
    its boundary matrix."""
    for row in _read_table(path):
        bad = _check_chi(row)
        if bad:
            return bad
        m = _clique_counts(row)
        r = {int(key[1:]): int(v) for key, v in row.items()
             if key[0] == "r" and key[1:].isdigit()}
        betti = [int(row[f"beta{d}"]) for d in range(dmax + 1)]
        if min(betti) < 0:
            return f"negative Betti number in {row}"
        for k, rank in r.items():
            if not 0 <= rank <= min(m.get(k - 1, 0), m.get(k, 0)):
                return f"rank r{k} = {rank} exceeds its matrix in {row}"
        lhs = sum((-1) ** d * b for d, b in enumerate(betti))
        lhs += (-1) ** dmax * r.get(dmax + 2, 0)
        if lhs != _alternating(m, dmax + 1):
            return f"Euler-Poincare identity fails in {row}"
    return None


def check_persistence(path: Path, k: int) -> str | None:
    for row in _read_table(path):
        if len(row["vertices"].split(",")) != k:
            return f"{row['vertices']} is not a {k}-clique"
        birth = _number(row["birth"], "persistence birth column")
        if not 0.0 < birth <= _number(row["death"], "persistence death column"):
            return f"birth after death in {row}"
    return None


def check_entropy(path: Path, n_rows: int) -> str | None:
    rows = _read_table(path)
    if len(rows) != n_rows:
        return f"{len(rows)} sweep rows, want {n_rows}"
    for row in rows:
        phi, h, h_norm = (float(row[c]) for c in ("phi", "h_alpha", "h_norm"))
        if not 0.0 <= phi <= 1.0 or not (
            math.isfinite(h) and h >= 0.0 and math.isfinite(h_norm)
        ):
            return f"bad sweep row {row}"
    return None


@functools.cache
def _networkx_phi(raw: bytes, k: int) -> float:
    """Phi = N*/N from networkx.k_clique_communities. Cached on the graph
    file's bytes, since every repetition regenerates the same graphs."""
    import networkx as nx

    doc = json.loads(raw)
    gx = nx.Graph()
    gx.add_nodes_from(range(doc["n"]))
    gx.add_edges_from((e["i"], e["j"]) for e in doc["edges"])
    comms = nx.algorithms.community.k_clique_communities(gx, k)
    return max((len(c) for c in comms), default=0) / doc["n"]


def check_percolation(graph: Path, out: Path, k: int) -> str | None:
    phi = json.loads(out.read_bytes())["phi"]
    want = _networkx_phi(graph.read_bytes(), k)
    if phi != want:
        return f"phi {phi}, networkx oracle {want}"
    return None


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
