"""perfbench/tracer.py traces gbstopo by module and function name, so a
library deletion can break the traced benchmark run without breaking any
import. These checks fail first, naming what went missing."""

import importlib
import importlib.util
from pathlib import Path

import gbstopo.cli  # noqa: F401  (Tracer patches cli.main and cli._write)
from gbstopo.cliques import enumerate_cliques
from gbstopo.graph import graph_from_edges
from gbstopo.sampler import PatternDistribution
from gbstopo.tda import betti_numbers

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # The tracer also wraps cli._write to count output bytes.
    bound = [(home, attr) for home, attr, *_ in load_tracer().TRACED]
    missing = [
        f"gbstopo.{home}.{attr}"
        for home, attr in [*bound, ("cli", "_write")]
        if not hasattr(importlib.import_module(f"gbstopo.{home}"), attr)
    ]
    assert not missing, f"perfbench/tracer.py binds missing names: {missing}"


def test_pattern_distribution_keeps_entries():
    # tracer._count_patterns reads the law's entries.
    assert hasattr(PatternDistribution, "entries")


def test_gf2_rank_argument_has_the_traced_shape():
    # tracer._count_bits reads args[0].shape of every gf2_rank call. A
    # filled triangle with a pendant edge has 4 vertices, 4 edges and 1
    # triangle, so B_2 is 4 x 4 and B_3 is 4 x 1.
    g = graph_from_edges(
        4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)]
    )
    complex_ = enumerate_cliques(g, 4)
    with load_tracer().Tracer() as tracer:
        assert betti_numbers(complex_, 1).betti == (1, 0)
    assert tracer.summary()[1]["tda.gf2_rank"] == 2
    assert tracer.counts["tda.gf2_rank.bits"] == 4 * 4 + 4 * 1
