"""Fuzz the four file loaders with small JSON documents: each document must
load or raise FormatError, with no other exception and no warning."""

import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gbstopo.encoding import load_encoding
from gbstopo.errors import FormatError
from gbstopo.graph import load_graph
from gbstopo.sampler import load_batch, load_distribution

KEYS = (
    "n", "edges", "i", "j", "re", "im", "c", "d", "lambdas", "squeezings",
    "u", "backend", "seed", "eta", "cutoff_total", "cutoff_per_mode",
    "shots", "pattern", "total", "mass", "entries", "probability",
)

# Ints beyond int64 and float range, negatives, bools, null and the
# non-finite floats json writes as NaN and Infinity.
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6),
    st.sampled_from([-1, 2**63 - 1, 2**63, 10**30, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 0.0, -0.0, 1e308, math.nan, math.inf]),
    st.text(max_size=3),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner,
                      max_size=5),
    max_leaves=12,
)


def rarely(strategy, otherwise):
    """`strategy` one draw in eight, else `otherwise`."""
    return st.integers(0, 7).flatmap(lambda r: strategy if r == 0 else otherwise)


def junk_or(strategy):
    """Mostly the plausible value, sometimes any JSON value."""
    return rarely(values, strategy)


counts = st.integers(0, 3)
numbers = st.floats(-1.5, 1.5) | st.integers(-2, 2)


def records(**fields):
    """Dicts holding every field, or sometimes any subset of them, each
    plausible or junk."""
    fields = {k: junk_or(v) for k, v in fields.items()}
    return rarely(st.fixed_dictionaries({}, optional=fields),
                  st.fixed_dictionaries(fields))


def row(n):
    return st.lists(junk_or(counts), min_size=n, max_size=n)


graphs = st.integers(1, 6).flatmap(lambda n: records(
    n=st.just(n),
    edges=st.lists(records(i=st.integers(-1, n), j=st.integers(-1, n),
                           re=numbers, im=numbers), max_size=5),
))

# Entries of u, with some whose products overflow.
entries = numbers | st.sampled_from([1e200, -1e200])
encodings = st.integers(1, 4).flatmap(lambda n: records(
    n=st.just(n), c=numbers, d=numbers,
    lambdas=st.lists(junk_or(st.floats(0, 0.99)), min_size=n, max_size=n),
    squeezings=st.lists(junk_or(st.floats(0, 3)), min_size=n, max_size=n),
    u=st.lists(records(re=entries, im=entries), min_size=n * n, max_size=n * n),
))

batch_headers = records(
    backend=st.sampled_from(["gbs", "uniform", "squashed"]),
    seed=st.integers(0, 5), eta=st.floats(0, 1),
    cutoff_total=counts | st.none(), cutoff_per_mode=counts | st.none(),
    shots=counts,
)
batches = st.integers(0, 6).flatmap(lambda n: st.tuples(
    batch_headers,
    st.lists(records(pattern=row(n) | row(n + 1), total=counts), max_size=5),
))

distributions = st.integers(0, 4).flatmap(lambda n: records(
    cutoff_total=counts, cutoff_per_mode=counts, mass=st.floats(0, 1),
    entries=st.lists(records(pattern=row(n), probability=st.floats(0, 1)),
                     max_size=5),
))


def loads_or_rejects(loader, text: str) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            loader(text)
        except FormatError:
            pass


def dumps(doc) -> str:
    # allow_nan: json writes NaN and Infinity, which json.loads reads back.
    return json.dumps(doc, allow_nan=True)


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("loader", [
    load_graph, load_encoding, load_batch, load_distribution,
])
@FUZZ
@given(doc=values)
def test_any_document_loads_or_is_rejected(loader, doc):
    loads_or_rejects(loader, dumps(doc))


@FUZZ
@given(doc=graphs)
def test_graph_documents(doc):
    loads_or_rejects(load_graph, dumps(doc))


@FUZZ
@given(doc=encodings)
def test_encoding_documents(doc):
    loads_or_rejects(load_encoding, dumps(doc))


@FUZZ
@given(doc=batches)
def test_batch_documents(doc):
    header, recs = doc
    loads_or_rejects(load_batch, "\n".join(map(dumps, [header, *recs])))


@FUZZ
@given(doc=distributions)
def test_distribution_documents(doc):
    loads_or_rejects(load_distribution, dumps(doc))
