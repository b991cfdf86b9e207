"""Fuzz the argv of every command with small values: each run must exit 0,
2, 3, 4 or 5, with no exception, no traceback and no warning on stderr.

Valid values stay small (n <= 8, shots <= 50, cutoffs <= 4, axes of <= 5
values), so no run asks for a large lattice, axis, graph or batch. Each
numeric flag is also given NaN, infinities, negatives, huge ints and junk;
every huge value is refused before anything of its size is allocated.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gbstopo.cli import build_parser, main
from gbstopo.encoding import encode, save_encoding
from gbstopo.graph import random_dual_layer, save_graph
from gbstopo.sampler import sample_uniform, save_batch

_, COMMANDS = build_parser()
NAMES = [sp.prog.split()[-1] for sp in COMMANDS]

# Words no numeric flag accepts, or accepts only to refuse later: huge
# values name at least 2^64 of something.
BAD_NUMBERS = st.sampled_from([
    "nan", "inf", "-inf", "-1", "-7", "0.5", "1e308", "-1e308",
    str(2**64), str(10**30), "x", "", "0x10",
    # -1e308 spelled as argparse's negative numbers, so a flag of two
    # values takes it as a value.
    "-1" + "0" * 308 + ".0",
])
BAD_AXES = st.sampled_from([
    "nan", "0,inf", "", "lin:0:1:0", "lin:0:1:100000000000", "lin:0:1", "1,,x",
])

SMALL_INTS = {
    "n": st.integers(1, 8),
    "n_modes": st.integers(1, 8),
    "shots": st.integers(1, 50),
    "cutoff_total": st.integers(0, 4),
    "cutoff_per_mode": st.integers(0, 4),
    "photon_total": st.integers(0, 4),
    "dmax": st.integers(0, 4),
    "k": st.integers(2, 6),
    "k_ref": st.integers(2, 6),
    "damage_k": st.integers(2, 6),
    # Seeds of one to three 32-bit words reach every stream seeding path.
    "seed": st.integers(0, 2**70),
}
SMALL_FLOATS = {
    "p": st.floats(0, 1),
    "eta": st.floats(0, 1),
    "target_spectral": st.floats(0.05, 0.95),
    "d": st.floats(-0.5, 0.5),
    "alpha": st.floats(0.25, 4),
}
AXES = st.one_of(
    st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=5).map(
        lambda vs: ",".join(map(repr, vs))),
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.integers(1, 5)).map(
        lambda t: "lin:{}:{}:{}".format(*t)),
)
# Given whenever the command has them: their defaults ask for 3000 shots
# and cutoffs of 6.
ALWAYS = {"shots", "cutoff_total", "cutoff_per_mode"}


def good_value(action, files):
    if action.dest in files:
        return st.just(files[action.dest])
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if action.dest.endswith("_axis"):
        return AXES
    if action.type is int:
        return SMALL_INTS.get(action.dest, st.integers(0, 8)).map(str)
    return SMALL_FLOATS.get(action.dest, st.floats(-2, 2)).map(repr)


def bad_value(action, files):
    if action.dest in files:
        # A missing file, or a file of another kind.
        return st.sampled_from(["/nonexistent/input.json", *files.values()])
    if action.choices is not None:
        return st.just("junk")
    if action.dest.endswith("_axis"):
        return BAD_AXES
    return BAD_NUMBERS


def values(action, files, bad: bool):
    """The words after the flag; a bad flag with several values may also
    get one too few or one too many."""
    if action.nargs == 0:
        return st.just([])
    count = action.nargs if isinstance(action.nargs, int) else 1
    if bad and count > 1:
        count = st.sampled_from([count - 1, count, count + 1])
    else:
        count = st.just(count)
    pick = bad_value if bad else good_value
    return count.flatmap(lambda c: st.lists(pick(action, files),
                                            min_size=c, max_size=c))


@st.composite
def argv(draw, command, files, out):
    """The command's required flags (rarely some missing) and some optional
    ones, in any order; at most one of them gets a bad value."""
    actions = {a.dest: a for a in command._actions if a.option_strings
               and a.dest not in ("help", "out", "config")}
    must = {d for d, a in actions.items() if a.required or d in ALWAYS}
    rest = sorted(set(actions) - must)
    if draw(st.integers(0, 7)):
        chosen = must | draw(st.sets(st.sampled_from(rest))) if rest else must
    else:
        chosen = draw(st.sets(st.sampled_from(sorted(actions))))
    bad = draw(st.none() | st.sampled_from(sorted(chosen))) if chosen else None
    groups = []
    for d in sorted(chosen):
        flag = actions[d].option_strings[0]
        words = draw(values(actions[d], files, d == bad))
        # --flag=value, so argparse takes a value such as -inf for a value.
        groups.append([f"{flag}={words[0]}"] if actions[d].nargs is None
                      else [flag, *words])
    words = [w for g in draw(st.permutations(groups)) for w in g]
    return [command.prog.split()[-1], *words, "--out", out]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("argv")
    g = random_dual_layer(6, 0.8, ((0.2, 1.0), (-0.5, 0.5)), seed=2)
    paths = {k: work / f"{k}.json" for k in ("graph", "encoding", "samples")}
    paths["graph"].write_bytes(save_graph(g))
    paths["encoding"].write_bytes(save_encoding(encode(g, 0.7)))
    paths["samples"].write_bytes(save_batch(sample_uniform(g.n, 3, 20, 1)))
    return {k: str(p) for k, p in paths.items()}, str(work / "out")


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_argv_exits_cleanly(files, name, data):
    paths, out = files
    words = data.draw(argv(COMMANDS[NAMES.index(name)], paths, out))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(words)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3, 4, 5), (words, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()


# Found by this fuzzer: numpy's OverflowError escaped as a traceback.
def test_weight_range_wider_than_a_float_exit_3(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["gen", "--n", "5", "--p", "0.5", "--seed", "0",
                 "--alpha-range", "-1" + "0" * 308 + ".0", "1e308",
                 "--out", str(out)])
    assert code == 3
    assert not out.exists()
    assert "wider than a float" in capsys.readouterr().err
