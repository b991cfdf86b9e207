"""Command-line front door.

Every command is deterministic given its full flag set: all randomness is
seeded, no timestamps are written, and re-running a command overwrites its
output byte-identically. Each report embeds the resolved configuration
that produced it.

Exit codes: 0 success, 2 usage, 3 input format, 4 enumeration budget,
5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cliques as cl
from . import encoding as enc_mod
from . import graph as gr
from . import percolation as perc
from . import sampler as smp
from . import tda
from .errors import BudgetError, FormatError, InvariantError

EXIT_FORMAT = 3
EXIT_BUDGET = 4
EXIT_INVARIANT = 5


# Values per axis flag; the paper's grids are 20 x 20.
AXIS_MAX = 10_000


def _axis(spec: str) -> list[float] | None:
    """The values of an axis flag, comma-separated values or lin:lo:hi:num:
    1 to AXIS_MAX finite numbers, else None."""
    try:
        if spec.startswith("lin:"):
            _, lo, hi, num = spec.split(":")
            if int(num) > AXIS_MAX:  # before linspace allocates
                return None
            with np.errstate(all="ignore"):  # non-finite values fail below
                values = np.linspace(float(lo), float(hi), int(num)).tolist()
        else:
            values = [float(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        return None
    if 1 <= len(values) <= AXIS_MAX and all(map(math.isfinite, values)):
        return values
    return None


def _provenance(args: argparse.Namespace) -> dict:
    skip = {"func", "dry_run", "config", "command"}
    params = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip
    }
    return {"command": args.command, "params": params}


def _write(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise FormatError(f"cannot write --out {path}: {exc.strerror}") from exc


def _read(path: str, flag: str) -> bytes:
    """The bytes of the file a flag names; FormatError if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {flag} {path}: {exc.strerror}") from exc


def _read_graph(path: str) -> gr.ComplexGraph:
    return gr.load_graph(_read(path, "--graph"))


def _get_encoding(args) -> enc_mod.GBSEncoding:
    if getattr(args, "encoding", None):
        return enc_mod.load_encoding(_read(args.encoding, "--encoding"))
    if not args.graph:
        raise FormatError("one of --graph or --encoding is required")
    g = _read_graph(args.graph)
    return enc_mod.encode(g, args.target_spectral, args.d)


def _json_report(payload: dict, args: argparse.Namespace) -> bytes:
    doc = {"provenance": _provenance(args), **payload}
    return (json.dumps(doc, indent=1) + "\n").encode()


def _table(
    header: list[str], rows: list[list], args: argparse.Namespace,
    footer: list[str] | None = None,
) -> bytes:
    lines = [f"# {args.command}"]
    for k, v in _provenance(args)["params"].items():
        lines.append(f"# {k} = {v}")
    lines.append("\t".join(header))
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    lines.extend(footer or [])
    return ("\n".join(lines) + "\n").encode()


def _fmt(v) -> str:
    # float() strips numpy scalar types, whose repr is not a bare number;
    # repr spells infinities inf and -inf.
    return repr(float(v)) if isinstance(v, float) else str(v)


# Each command handler returns the bytes of its --out file; main() handles
# --dry-run, the write and the exit code. JSON documents end in a newline.


def cmd_gen(args) -> bytes:
    law = (tuple(args.alpha_range), tuple(args.beta_range))
    g = gr.random_dual_layer(args.n, args.p, law, args.seed)
    return gr.save_graph(g, provenance=_provenance(args)) + b"\n"


def cmd_encode(args) -> bytes:
    g = _read_graph(args.graph)
    e = enc_mod.encode(g, args.target_spectral, args.d)
    return enc_mod.save_encoding(e, provenance=_provenance(args)) + b"\n"


def cmd_sample(args) -> bytes:
    if args.backend != "uniform":
        source = _get_encoding(args)
    elif args.k is None:
        raise FormatError("--k is required for the uniform backend")
    elif args.graph:
        source = _read_graph(args.graph).n
    elif args.encoding:  # loaded, so validated; uniform reads its mode count
        source = _get_encoding(args)
    elif args.n_modes:
        source = args.n_modes
    else:
        raise FormatError("uniform backend needs --graph, --encoding or --n-modes")
    batch = smp.sample(
        args.backend, source, args.shots, args.seed, k=args.k,
        cutoff_total=args.cutoff_total, cutoff_per_mode=args.cutoff_per_mode,
    )
    if args.eta < 1.0:
        batch = smp.apply_loss(batch, args.eta, args.seed)
    return smp.save_batch(batch, provenance=_provenance(args))


def cmd_dist(args) -> bytes:
    e = _get_encoding(args)
    dist = smp.enumerate_distribution(e, args.cutoff_total, args.cutoff_per_mode)
    if args.eta < 1.0:
        dist = smp.apply_loss(dist, args.eta)
    return smp.save_distribution(dist, provenance=_provenance(args)) + b"\n"


def cmd_cliques(args) -> bytes:
    g = _read_graph(args.graph)
    batch = smp.load_batch(_read(args.samples, "--samples"))
    shots, width = batch.patterns.shape
    if shots and width != g.n:
        raise FormatError(f"shot 0 has {width} modes but the graph has {g.n} vertices")
    report = cl.find_cliques(g, batch, args.k, args.max_iters)
    found = sorted(report.cliques_found, key=lambda c: (-c.density, c.vertices))
    doc = {
        "provenance": _provenance(args),
        "shots": report.shots_in,
        "successes": len(found),
        "success_rate": report.success_rate,
        "density_histogram": [
            {"density": d, "count": c} for d, c in report.density_histogram.items()
        ],
        "cliques": [],
    }
    # One record per success as json.dumps(indent=1) spells it, which also
    # spells each density; each distinct clique is spelled once.
    item = '  {\n   "vertices": [%s\n   ],\n   "density": %s\n  }'
    text = {c: item % (",".join(["\n    %d" % v for v in c.vertices]),
                       json.dumps(c.density)) for c in dict.fromkeys(found)}
    records = ",\n".join([text[c] for c in found])
    return (gr.document_text(doc, None, "cliques", records) + "\n").encode()


def cmd_betti(args) -> bytes:
    g = _read_graph(args.graph)
    thresholds = _axis(args.delta_axis)
    rows = tda.betti_rows(g, args.dmax, args.k_ref, thresholds).tolist()
    top = args.dmax + 2
    header = (
        ["delta_t"]
        + [f"m{k}" for k in range(1, top + 1)]
        + [f"r{k}" for k in range(2, top + 1)]
        + [f"beta{d}" for d in range(args.dmax + 1)]
        + ["chi", "s_chi"]
    )
    return _table(header, [[dt, *row, tda.euler_entropy(row[-1])]
                           for dt, row in zip(thresholds, rows)], args)


def cmd_surface(args) -> bytes:
    g = _read_graph(args.graph)
    surf = tda.filtration_surface(
        g, _axis(args.omega_axis), _axis(args.delta_axis), args.k_ref,
    )
    # The union cell (last omega, first delta) holds every cell's cliques,
    # and a complex holds cliques of every size up to its largest.
    kmax = int(np.count_nonzero(surf.m[-1, 0]))
    header = ["omega_t", "delta_t", *(f"m{k}" for k in range(1, kmax + 1)),
              "chi", "s_chi", "tpt"]
    rows = [
        [omega_t, delta_t, *m, chi, tda.euler_entropy(chi), int(chi == 0)]
        for omega_t, row_m, row_chi in zip(
            surf.omega_axis, surf.m[..., :kmax].tolist(), surf.chi.tolist()
        )
        for delta_t, m, chi in zip(surf.delta_axis, row_m, row_chi)
    ]
    fronts = tda.tpt_points(surf).sign_fronts
    footer = [f"# front: ({i},{j})-({i2},{j2})" for (i, j), (i2, j2) in fronts]
    return _table(header, rows, args, footer)


def cmd_persistence(args) -> bytes:
    g = _read_graph(args.graph)
    pairs = tda.clique_persistence(g, args.k)
    pairs.sort(key=lambda p: (p.birth, p.clique))
    rows = [
        [",".join(str(v) for v in p.clique), p.birth, p.death] for p in pairs
    ]
    footer = [
        "# death convention: threshold at which the clique is absorbed "
        "into a larger clique (loses maximality); inf = never absorbed"
    ]
    return _table(["vertices", "birth", "death"], rows, args, footer)


def cmd_percolation(args) -> bytes:
    if args.k_ref is None and args.delta_t != 0:
        raise FormatError(f"--delta-t {args.delta_t} needs --k-ref: only a "
                          "density filtration reads the threshold")
    g = _read_graph(args.graph)
    if args.damage_node is not None:
        g = perc.damage(g, args.damage_node, args.damage_k)
    if args.k_ref is not None:
        g = tda.density_filtered_graph(g, args.k_ref, args.delta_t)
    report = perc.percolation_clusters(g, args.k)
    payload = {
        "k": args.k,
        "phi": report.phi,
        "largest_nodes": report.largest_nodes,
        "clusters": [list(c) for c in report.clusters],
    }
    return _json_report(payload, args)


def cmd_entropy(args) -> bytes:
    # exact and gbs drop every pattern above the cutoff; squashed draws do not.
    if args.backend != "squashed" and args.photon_total > args.cutoff_total:
        raise FormatError(
            f"--photon-total {args.photon_total} exceeds --cutoff-total "
            f"{args.cutoff_total} of the {args.backend} backend"
        )
    g = _read_graph(args.graph)
    if args.damage_node is not None:
        g = perc.damage(g, args.damage_node, args.damage_k)
    # Every SweepConfig field is an entropy flag of the same name.
    cfg = perc.SweepConfig(**{
        f.name: getattr(args, f.name) for f in dataclasses.fields(perc.SweepConfig)
    })
    sweep = perc.percolation_entropy_sweep(g, _axis(args.delta_axis), cfg)
    shots = 0 if args.backend == "exact" else args.shots
    rows = [
        [*cols, shots, args.backend]
        for cols in zip(sweep.axis, sweep.phi, sweep.largest_nodes,
                        sweep.h_alpha, sweep.h_norm)
    ]
    try:
        rho = perc.curve_correlation(sweep.phi, sweep.h_norm)
        rho_repr = _fmt(float(rho))
    except ValueError:
        rho_repr = "nan"
    footer = [f"# spearman_phi_entropy = {rho_repr}"]
    return _table(
        ["delta_t", "phi", "n_star", "h_alpha", "h_norm", "shots", "backend"],
        rows,
        args,
        footer,
    )


def cmd_compare(args) -> bytes:
    g = _read_graph(args.graph)
    e = enc_mod.encode(g, args.target_spectral, args.d)
    stats = {}
    # Backend i of smp.BACKENDS draws with seed + i; loss thins with seed + 3.
    for offset, name in enumerate(smp.BACKENDS):
        batch = smp.sample(
            name, e, args.shots, args.seed + offset, k=args.k,
            cutoff_total=args.cutoff_total, cutoff_per_mode=args.cutoff_per_mode,
        )
        if args.eta < 1.0:
            batch = smp.apply_loss(batch, args.eta, args.seed + 3)
        rep = cl.find_cliques(g, batch, args.k, args.max_iters)
        lo, hi = cl.binomial_interval(len(rep.cliques_found), rep.shots_in)
        stats[name] = {
            "shots": rep.shots_in,
            "successes": len(rep.cliques_found),
            "success_rate": rep.success_rate,
            "interval_95": [lo, hi],
        }
    ratios = {}
    for base in ("uniform", "squashed"):
        num = stats["gbs"]["success_rate"]
        den = stats[base]["success_rate"]
        ratios[f"gbs_over_{base}"] = num / den if den > 0 else None
    payload = {"k": args.k, "backends": stats, "enhancement": ratios}
    return _json_report(payload, args)


class _Bounded(argparse.Action):
    """Stores a flag value that must pass `ok`. An out-of-range value is
    stored as the FormatError main raises before the command runs, so a
    bad value is named by its flag, on the command line or in --config.
    """

    def __init__(self, *args, want: str, ok, **kwargs):
        super().__init__(*args, **kwargs)
        self.want = want
        self.ok = ok

    def __call__(self, parser, namespace, value, option_string=None):
        # A flag with nargs passes a list; each of its values must pass.
        if not all(map(self.ok, value if isinstance(value, list) else [value])):
            value = FormatError(
                f"{self.option_strings[0]} must be {_wanted(self)}, got {value!r}"
            )
        setattr(namespace, self.dest, value)


_NONNEGATIVE = dict(
    action=_Bounded, want="a non-negative integer", ok=lambda v: v >= 0
)
_POSITIVE = dict(
    action=_Bounded, want="a positive integer", ok=lambda v: v >= 1
)
_FRACTION = dict(
    action=_Bounded, want="a number in [0, 1]", ok=lambda v: 0.0 <= v <= 1.0
)
_FINITE = dict(action=_Bounded, want="a finite number", ok=math.isfinite)


def _up_to_max_vertices(low: int) -> dict:
    """An integer from `low` to graph.MAX_VERTICES: a vertex count, a clique
    size (a k-clique has k vertices) or a simplex dimension."""
    return dict(action=_Bounded, want=f"an integer in [{low}, {gr.MAX_VERTICES}]",
                ok=lambda v: low <= v <= gr.MAX_VERTICES)


_VERTEX_COUNT = _up_to_max_vertices(1)
_CLIQUE_SIZE = _up_to_max_vertices(2)
_OPEN_UNIT = dict(action=_Bounded, want="a number in (0, 1)", ok=lambda v: 0 < v < 1)
# The stored value stays the spec string, which the report headers print.
# argparse reads a word like -1,0.3 as a flag unless '=' joins it to one.
_AXIS = dict(action=_Bounded, ok=lambda spec: _axis(spec) is not None, want=(
    f"finite numbers v1,v2,... or lin:lo:hi:num, 1 to {AXIS_MAX} of them"),
    help="v1,v2,... or lin:lo:hi:num; join a list that starts with '-' "
    "to its flag with '=', as in --delta-axis=-1,0.3")
_ASCENDING_AXIS = dict(
    _AXIS, want=_AXIS["want"] + ", in ascending order",
    ok=lambda spec: (v := _axis(spec)) is not None and v == sorted(v),
)
_OMEGA_AXIS = dict(_ASCENDING_AXIS, want=_ASCENDING_AXIS["want"] + ", none negative",
                   ok=lambda spec: _ASCENDING_AXIS["ok"](spec) and _axis(spec)[0] >= 0)


def _add_encoding_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target-spectral", type=float, default=0.7, **_OPEN_UNIT)
    p.add_argument("--d", type=float, default=0.0, **_FINITE)


def _add_cutoffs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cutoff-total", type=int, default=6, **_NONNEGATIVE)
    p.add_argument("--cutoff-per-mode", type=int, default=6, **_NONNEGATIVE)


def build_parser() -> tuple[
    argparse.ArgumentParser, list[argparse.ArgumentParser]
]:
    """The parser, and the subparser of every command in registration order."""
    parser = argparse.ArgumentParser(
        prog="gbstopo",
        description="Topological analysis of complex-weighted networks "
        "through a simulated Gaussian boson sampler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: list[argparse.ArgumentParser] = []

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=handler)
        commands.append(p)
        return p

    p = command("gen", cmd_gen, "generate a random dual-layer network")
    p.add_argument("--n", type=int, required=True, **_VERTEX_COUNT)
    p.add_argument("--p", type=float, required=True, **_FRACTION)
    p.add_argument("--seed", type=int, required=True, **_NONNEGATIVE)
    for flag in ("--alpha-range", "--beta-range"):
        p.add_argument(flag, type=float, nargs=2, default=[-1.0, 1.0], **_FINITE)

    p = command("encode", cmd_encode, "turn a graph into a machine program")
    p.add_argument("--graph", required=True)
    _add_encoding_opts(p)

    p = command("sample", cmd_sample, "draw photon patterns from a backend")
    p.add_argument("--graph")
    p.add_argument("--encoding")
    p.add_argument("--n-modes", type=int, **_VERTEX_COUNT)
    p.add_argument("--backend", choices=smp.BACKENDS, default="gbs")
    p.add_argument("--shots", type=int, required=True, **_NONNEGATIVE)
    p.add_argument("--seed", type=int, required=True, **_NONNEGATIVE)
    p.add_argument("--k", type=int, help="subset size for the uniform backend",
                   **_NONNEGATIVE)
    p.add_argument("--eta", type=float, default=1.0, **_FRACTION)
    _add_encoding_opts(p)
    _add_cutoffs(p)

    p = command("dist", cmd_dist, "enumerate the exact pattern distribution")
    p.add_argument("--graph")
    p.add_argument("--encoding")
    p.add_argument("--eta", type=float, default=1.0, **_FRACTION)
    _add_encoding_opts(p)
    _add_cutoffs(p)

    p = command("cliques", cmd_cliques, "search samples for weighted k-cliques")
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--k", type=int, required=True, **_POSITIVE)
    p.add_argument("--max-iters", type=int, default=50, **_NONNEGATIVE)

    p = command("betti", cmd_betti, "Betti numbers, optionally under a "
                "clique-density filtration")
    p.add_argument("--graph", required=True)
    p.add_argument("--dmax", type=int, default=3, **_up_to_max_vertices(0))
    p.add_argument("--k-ref", type=int, **_CLIQUE_SIZE)
    p.add_argument("--delta-axis", default="0", **_AXIS)

    p = command("surface", cmd_surface, "two-dimensional filtration surface")
    p.add_argument("--graph", required=True)
    p.add_argument("--omega-axis", required=True, **_OMEGA_AXIS)
    p.add_argument("--delta-axis", required=True, **_ASCENDING_AXIS)
    p.add_argument("--k-ref", type=int, default=2, **_CLIQUE_SIZE)

    p = command("persistence", cmd_persistence, "clique birth/death thresholds")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True, **_CLIQUE_SIZE)

    p = command("percolation", cmd_percolation, "k-clique percolation clusters")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True, **_CLIQUE_SIZE)
    p.add_argument("--k-ref", type=int, **_CLIQUE_SIZE)
    p.add_argument("--delta-t", type=float, default=0.0, **_FINITE)
    p.add_argument("--damage-node", type=int, **_NONNEGATIVE)
    p.add_argument("--damage-k", type=int, default=4, **_CLIQUE_SIZE)

    p = command(
        "entropy", cmd_entropy,
        "percolation order parameter vs sampling entropy sweep",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--k-ref", type=int, required=True, **_CLIQUE_SIZE)
    p.add_argument("--delta-axis", required=True, **_AXIS)
    p.add_argument("--alpha", type=float, default=2.0, action=_Bounded,
                   want="a positive finite number",
                   ok=lambda v: 0.0 < v < math.inf)
    p.add_argument("--photon-total", type=int, required=True, **_NONNEGATIVE)
    p.add_argument(
        "--backend", choices=("exact", "gbs", "squashed"), default="exact"
    )
    p.add_argument("--shots", type=int, default=3000, **_POSITIVE)
    p.add_argument("--seed", type=int, default=0, **_NONNEGATIVE)
    p.add_argument(
        "--collision-policy",
        choices=smp.COLLISION_POLICIES,
        default="threshold_collapse",
    )
    p.add_argument("--damage-node", type=int, **_NONNEGATIVE)
    p.add_argument("--damage-k", type=int, default=4, **_CLIQUE_SIZE)
    _add_encoding_opts(p)
    _add_cutoffs(p)

    p = command("compare", cmd_compare, "GBS vs uniform vs squashed clique search")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True, **_POSITIVE)
    p.add_argument("--shots", type=int, default=3000, **_POSITIVE)
    p.add_argument("--seed", type=int, required=True, **_NONNEGATIVE)
    p.add_argument("--max-iters", type=int, default=50, **_NONNEGATIVE)
    p.add_argument("--eta", type=float, default=1.0, **_FRACTION)
    _add_encoding_opts(p)
    _add_cutoffs(p)

    # Flags every command shares go last, after the command's own, which is
    # where --help and usage errors have always listed them.
    for p in commands:
        p.add_argument("--out", required=True)
        p.add_argument("--config", help="JSON file with default parameter values")
        p.add_argument(
            "--dry-run",
            action="store_true",
            help="print the resolved configuration and exit without computing",
        )
    return parser, commands


# One parser per process. A --config call mutates its subparsers' defaults,
# so it builds a fresh parser instead.
_shared_parser = functools.cache(build_parser)

_TYPE_NAMES = {int: "an integer", float: "a number", None: "a string"}


def _config_value(action: argparse.Action, value):
    """A --config value parsed as its flag parses command-line words.

    A value the flag rejects becomes a FormatError, which main raises only
    if the command runs with it, so a flag can still override it.
    """

    def word(v):
        if type(v) not in (str, int, float):
            raise ValueError(v)
        v = (action.type or str)(str(v))
        if action.choices is not None and v not in action.choices:
            raise ValueError(v)
        if isinstance(action, _Bounded) and not action.ok(v):
            raise ValueError(v)
        return v

    try:
        if action.nargs == 0:
            if type(value) is not bool:
                raise ValueError(value)
            return value
        if isinstance(action.nargs, int):
            if type(value) is not list or len(value) != action.nargs:
                raise ValueError(value)
            return [word(v) for v in value]
        return word(value)
    except (TypeError, ValueError):
        return FormatError(
            f"{action.option_strings[0]} must be {_wanted(action)}, "
            f"got {value!r} (config key {action.dest!r})"
        )


def _wanted(action: argparse.Action) -> str:
    """What the flag accepts, in words."""
    if action.nargs == 0:
        return "true or false"
    if action.choices is not None:
        want = "one of " + ", ".join(map(str, action.choices))
    elif isinstance(action, _Bounded):
        want = action.want
    else:
        want = _TYPE_NAMES.get(action.type, "a valid value")
    if isinstance(action.nargs, int):
        return f"a list of {action.nargs} values, each {want}"
    return want


def _check_flags(args: argparse.Namespace) -> None:
    """Raise the FormatError stored for a rejected flag or config value."""
    for value in vars(args).values():
        if isinstance(value, FormatError):
            raise value


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    # Resolve --config before the real parse so flags override file values.
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    parser, commands = build_parser() if known.config else _shared_parser()
    try:
        if known.config:
            try:
                cfg = json.loads(Path(known.config).read_text())
            except (OSError, ValueError, RecursionError) as exc:
                raise FormatError(
                    f"cannot read config {known.config}: {exc}"
                ) from exc
            if not isinstance(cfg, dict):
                raise FormatError("config must be a flat JSON object")
            for sp in commands:
                for action in sp._actions:
                    # --help is no parameter: it would only leak into provenance.
                    if action.dest in cfg and action.dest != "help":
                        value = _config_value(action, cfg[action.dest])
                        sp.set_defaults(**{action.dest: value})
                        action.required = False
        args = parser.parse_args(argv)
        _check_flags(args)
        if args.dry_run:
            for key, val in _provenance(args)["params"].items():
                print(f"{key} = {val}")
            return 0
        _write(args.out, args.func(args))
        return 0
    except InvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (BudgetError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetError) else EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
