"""Per-layer tracing from outside the program.

While a Tracer is installed, each traced public function of gbstopo is
replaced, in every gbstopo module that binds it, by a wrapper that records
one span (name, start, end, parent) per call in flat in-memory arrays and
adds deterministic work counts. Self time is a span's duration minus the
durations of its child spans. Uninstalling puts the original functions back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


def _count_search(counts, args, result, parent) -> None:
    subsets = [tuple(i for i, c in enumerate(p) if c) for p in args[1].patterns]
    subsets = [s for s in subsets if s]
    counts["cliques.find_cliques.shots"] += len(args[1].patterns)
    counts["cliques.find_cliques.successes"] += len(result.cliques_found)
    counts["cliques.find_cliques.nonvacuum_shots"] += len(subsets)
    counts["cliques.find_cliques.distinct_subsets"] += len(set(subsets))


def _count_cliques(counts, args, result, parent) -> None:
    counts["cliques.enumerate_cliques.cliques"] += sum(
        len(v) for v in result.by_size.values()
    )
    if parent == "percolation.percolation_clusters":
        counts["percolation.percolation_clusters.cliques"] += len(
            result.by_size.get(args[1], [])
        )


def _count_patterns(counts, args, result, parent) -> None:
    counts["sampler.enumerate_distribution.patterns"] += len(result.entries)


def _count_bits(counts, args, result, parent) -> None:
    rows, cols = args[0].shape
    counts["tda.gf2_rank.bits"] += rows * cols


def _count_cells(counts, args, result, parent) -> None:
    counts["tda.filtration_surface.cells"] += len(result.omega_axis) * len(
        result.delta_axis
    )


def _count_io_out(counts, args, result, parent) -> None:
    counts["sampler.io.bytes"] += len(result)


def _count_io_in(counts, args, result, parent) -> None:
    counts["sampler.io.bytes"] += len(args[0])


# (home module, function name, span name, counter hook). Span names follow
# the layer metric names; several functions may share one span name.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("graph", "clique_density", "graph.clique_density", None),
    ("graph", "is_clique", "graph.is_clique", None),
    ("graph", "edge_filter", "graph.edge_filter", None),
    ("encoding", "encode", "encoding.encode", None),
    ("sampler", "enumerate_distribution", "sampler.enumerate_distribution",
     _count_patterns),
    ("sampler", "hafnian", "sampler.hafnian", None),
    ("sampler", "apply_loss", "sampler.apply_loss", None),
    ("sampler", "sample_gbs", "sampler.sample_gbs", None),
    ("sampler", "sample_uniform", "sampler.sample_uniform", None),
    ("sampler", "sample_squashed", "sampler.sample_squashed", None),
    # The per-shot RNG: one call per shot stream.
    ("sampler", "_shot_rng", "sampler.shots", None),
    ("sampler", "conditional_pattern_histogram", "sampler.conditional", None),
    ("sampler", "conditional_from_distribution", "sampler.conditional", None),
    ("sampler", "save_batch", "sampler.io", _count_io_out),
    ("sampler", "save_distribution", "sampler.io", _count_io_out),
    ("sampler", "load_batch", "sampler.io", _count_io_in),
    ("sampler", "load_distribution", "sampler.io", _count_io_in),
    ("cliques", "find_cliques", "cliques.find_cliques", _count_search),
    ("cliques", "greedy_shrink", "cliques.greedy_shrink", None),
    ("cliques", "local_search", "cliques.local_search", None),
    ("cliques", "enumerate_cliques", "cliques.enumerate_cliques",
     _count_cliques),
    ("tda", "filtration_surface", "tda.filtration_surface", _count_cells),
    ("tda", "density_filtered_graph", "tda.density_filtered_graph", None),
    ("tda", "boundary_matrix", "tda.boundary_matrix", None),
    ("tda", "gf2_rank", "tda.gf2_rank", _count_bits),
    ("tda", "betti_numbers", "tda.betti_numbers", None),
    ("tda", "clique_persistence", "tda.clique_persistence", None),
    ("percolation", "percolation_clusters", "percolation.percolation_clusters",
     None),
    ("percolation", "percolation_entropy_sweep",
     "percolation.percolation_entropy_sweep", None),
    ("percolation", "damage", "percolation.damage", None),
)


class Tracer:
    """Span recorder; `with Tracer() as t:` patches gbstopo for the block."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, hook):
        name_ids, parents = self.name_id, self.parent
        starts, ends, stack, counts = self.start, self.end, self._stack, self.counts
        # apply_loss gets one span name per input type: distributions and
        # sample batches take entirely different code paths.
        if name == "sampler.apply_loss":
            split = (self._id(name + ".dist"), self._id(name + ".batch"))
        else:
            nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_ids)
            if name == "sampler.apply_loss":
                name_ids.append(split[type(args[0]).__name__ == "SampleBatch"])
            else:
                name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                parent = self.names[name_ids[stack[-1]]] if stack else None
                hook(counts, args, result, parent)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in sys.modules.items()
            if key == "gbstopo" or key.startswith("gbstopo.")
        ]
        for home, attr, name, hook in TRACED:
            fn = getattr(sys.modules[f"gbstopo.{home}"], attr)
            wrapped = self._wrap(fn, name, hook)
            for m in modules:
                if getattr(m, attr, None) is fn:
                    self._patches.append((m, attr, fn))
                    setattr(m, attr, wrapped)
        write = sys.modules["gbstopo.cli"]._write
        counts = self.counts

        def counted_write(path, data):
            counts["cli.bytes_out"] += len(data)
            return write(path, data)

        self._patches.append((sys.modules["gbstopo.cli"], "_write", write))
        sys.modules["gbstopo.cli"]._write = counted_write
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def summary(self) -> tuple[dict[str, float], dict[str, int], int]:
        """Self seconds and calls per span name, and the number of spans
        whose children cover more time than the span itself."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        own = dur - np.bincount(parent[child], weights=dur[child],
                                minlength=len(dur))
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        # Clock reads are monotonic, so nesting can only fail by rounding.
        bad = int(np.count_nonzero(own < -1e-9))
        return (
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            bad,
        )

    def save(self, path: Path) -> None:
        """Write the spans out (numpy .npz; names index `name_id`)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
