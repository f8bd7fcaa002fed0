"""Command-line pipeline: generate, flagify, verify, color, certify, sample.

All commands are deterministic given their inputs, flags, and seeds, and
print machine-readable JSON reports to stdout. Exit codes: 0 success,
1 domain error, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .complexes import empty_triangles_of, replay
# not called here; imported so perfbench/run.py can trace these call sites
from .complexes import f_vector, is_flag, minimal_nonfaces, verify_closed_3_manifold  # noqa: F401
from .coloring import (
    PeelParams,
    certify_lower_bound,
    check_and_peel,
    measure_alpha,
    peel_color_3,
)
from .cyclic import cyclic_4_sphere
from .errors import FlagsphereError, ParseError
from .flagify import flagify
from .graphs import NODE_BUDGET
from .io import (
    read_complex,
    read_graph,
    read_trace,
    write_coloring,
    write_complex,
    write_trace,
)
from .randomclique import RandomCliqueParams, run_experiment


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_cyclic(args) -> int:
    sphere = cyclic_4_sphere(args.n)
    write_complex(sphere, args.out)
    _emit(
        {
            "n": args.n,
            "facets": sphere.facet_count,
            "out": str(args.out),
        }
    )
    return 0


def cmd_flagify(args) -> int:
    g = read_graph(args.graph)
    complex_, report, trace = flagify(g, args.n, audit=args.audit)
    write_complex(complex_, args.out)
    if args.trace:
        write_trace(trace, args.trace)
    _emit(report)
    return 0


def _peel_params(args) -> PeelParams:
    """The peel options shared by verify and color; a rejected value is a ParseError."""
    try:
        return PeelParams(x=args.x, exact4_cap=args.cap)
    except ValueError as exc:
        raise ParseError(f"bad peel option: {exc}") from exc


def _check_budget(args) -> None:
    """The --budget of verify and certify: 0 runs no exact search, below 0 is a ParseError."""
    if args.budget < 0:
        raise ParseError(f"--budget must be >= 0, got {args.budget}")


def cmd_verify(args) -> int:
    params = _peel_params(args)
    _check_budget(args)
    X = read_complex(args.infile)
    checks, flag, coloring = check_and_peel(X, params)
    empty_tris = 0 if flag else len(empty_triangles_of(X))  # flag: no empty triangle
    _emit(
        {
            "f_vector": checks.f_vector.counts,
            "euler": checks.f_vector.euler,
            "is_flag": flag,
            "manifold_checks": checks.as_dict(),
            "empty_triangle_count": empty_tris,
            "subdivision_count": sum(e is not None for e in X.parents.values()),
            "chromatic_upper": coloring.color_count if coloring else None,
            "chromatic_lower": None,
            **measure_alpha(X, seed=args.seed, node_budget=args.budget),
        }
    )
    return 0


def cmd_color(args) -> int:
    params = _peel_params(args)
    X = read_complex(args.infile)
    coloring = peel_color_3(X, params)
    if args.out:
        write_coloring(coloring, args.out)
    _emit({"vertices": X.vertex_count, "colors": coloring.color_count})
    return 0


def cmd_certify(args) -> int:
    _check_budget(args)
    X = read_complex(args.infile)
    g = read_graph(args.graph)
    try:
        report = certify_lower_bound(X, g, args.k, node_budget=args.budget)
    except ValueError as exc:
        raise ParseError(f"bad certify option: {exc}") from exc
    _emit(report)
    return 0


def _config_value(raw: dict, key: str, kind: type, default=None):
    """One random-clique value, from the flags or the config, converted to `kind`.
    A missing value, anything but an int or a float (a string, a boolean), or a
    fraction where an integer is wanted is a ParseError."""
    value = raw.get(key, default)
    if value is None:
        raise ParseError(f"random-clique needs a value for {key!r}")
    # type(), not isinstance(): a bool is an int, and int() and float() parse strings
    if type(value) not in (int, float) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ParseError(f"config value {key!r} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ParseError(f"config value {key!r} is out of range: {exc}") from exc


def _config_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of the config as a dict; a key given twice is a ParseError."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"config key {key!r} is given twice")
        obj[key] = value
    return obj


def cmd_random_clique(args) -> int:
    flags = {key: getattr(args, key) for key in ("n", "alpha", "d", "seed")}
    raw = {key: value for key, value in flags.items() if value is not None}
    if args.config:
        if raw:
            given = " ".join(f"--{key}" for key in raw)
            raise ParseError(f"random-clique takes --config or flags, not both; got {given}")
        try:
            text = args.config.read_text(encoding="utf-8")
            raw = json.loads(text, object_pairs_hook=_config_object)
        except ValueError as exc:  # bad JSON, bytes not UTF-8, an integer over 4300 digits
            raise ParseError(f"bad config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParseError("config must be a JSON object")
        unknown = sorted(raw.keys() - flags.keys())
        if unknown:
            raise ParseError(f"unknown config keys {unknown}; random-clique takes {list(flags)}")
    params = RandomCliqueParams(
        n=_config_value(raw, "n", int),
        alpha=_config_value(raw, "alpha", float),
        d=_config_value(raw, "d", int, default=RandomCliqueParams.d),
        seed=_config_value(raw, "seed", int),
    )
    _emit(run_experiment(params))
    return 0


def cmd_replay(args) -> int:
    base = read_complex(args.infile)
    trace = read_trace(args.trace)
    result = replay(base, trace)
    write_complex(result, args.out)
    _emit(
        {
            "events": len(trace),
            "vertices": result.vertex_count,
            "facets": result.facet_count,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagsphere",
        description="flag triangulations of the 3-sphere: construction and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    peel = argparse.ArgumentParser(add_help=False)
    peel.add_argument("--x", type=float, default=PeelParams.x)
    peel.add_argument("--cap", type=int, default=PeelParams.exact4_cap)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=NODE_BUDGET)

    p = sub.add_parser("cyclic", help="generate a cyclic 4-sphere boundary complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser("flagify", help="flagify a triangle-free graph into a 3-sphere")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--audit", action="store_true")
    p.set_defaults(func=cmd_flagify)

    p = sub.add_parser(
        "verify", parents=[peel, budget], help="statistics and manifold checks for a complex"
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("color", parents=[peel], help="peel-color the skeleton of a flag 3-sphere")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser(
        "certify", parents=[budget], help="certify a chromatic lower bound via a subgraph"
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("random-clique", help="random clique-complex experiment")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_random_clique)

    p = sub.add_parser("replay", help="re-apply a subdivision trace to a base complex")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


# main's parser: built on its first call and reused, as parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 2
    except FlagsphereError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


if __name__ == "__main__":
    sys.exit(main())
