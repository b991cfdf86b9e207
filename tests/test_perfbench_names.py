"""perfbench/tracer.py traces gbstopo by module and function name, so a
library deletion can break the traced benchmark run without breaking any
import. These checks fail first, naming what went missing."""

import importlib
import importlib.util
from pathlib import Path

from gbstopo.sampler import PatternDistribution

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
