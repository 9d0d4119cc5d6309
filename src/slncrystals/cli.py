"""Command-line front end.

Subcommands: convert (between partition / abacus / cpp / path JSON),
graph (crystal graph as DOT or JSON), series (partition-function
coefficients), verify (run a named identity suite), enumerate (list
descending or tight configurations by weight).

Exit codes: 2 for unparsable input, 3 for input that parses but fails the
validation required by the requested operation, needs more memory than
the process can get or holds an integer too large for an index (an
OverflowError), 1 for a failed verify.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import abacus, checks, crystal, cylindric, kyoto, qseries
from .abacus import AbacusConfig, DominantWeight
from .partitions import Partition, combine_quotient, ell_quotient


# the largest --nmax and --max-degree: a borodin series through q^1000 takes
# about 0.1 s at n = 2, its time grows as the square of the degree, and the
# crystal's walks grow faster still
MAX_DEGREE = 1000


class InputError(Exception):
    exit_code = 2


class ValidationError(Exception):
    exit_code = 3


def parse_weight(text, n):
    """Parse weights written like "2*L0+3*L1+L2"."""
    coeffs = [0] * n
    for term in text.replace(" ", "").split("+"):
        m = re.fullmatch(r"(?:([0-9]+)\*)?L([0-9]+)", term)
        if not m:
            raise InputError("cannot parse weight term %r" % term)
        try:
            mult, idx = int(m.group(1) or 1), int(m.group(2))
        except ValueError as err:  # past the interpreter's digit limit
            raise InputError("cannot read weight term: %s" % err)
        if idx >= n:
            raise InputError("weight index %d out of range for n=%d" % (idx, n))
        coeffs[idx] += mult
    return DominantWeight(coeffs)


def _read_json(args):
    try:
        if args.input in (None, "-"):
            raw = sys.stdin.read()
        else:
            with open(args.input) as f:
                raw = f.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError("cannot read input: %s" % err)
    try:
        return json.loads(raw)
    except ValueError as err:  # a JSONDecodeError, or past the digit limit
        raise InputError("bad JSON input: %s" % err)
    except RecursionError:
        raise InputError("bad JSON input: nested too deeply")


# each model's JSON reader, its map to the abacus (which may read the
# parsed arguments) and its map from the abacus; the maps look the
# library's functions up when they run, so they call what the modules bind
MODELS = {
    "partition": (
        Partition.from_json,
        lambda lam, args: AbacusConfig(args.n, args.ell, ell_quotient(lam, args.ell)),
        lambda psi: combine_quotient(psi.rows, psi.ell),
    ),
    "abacus": (AbacusConfig.from_json, lambda psi, args: psi, lambda psi: psi),
    "cpp": (
        cylindric.CylindricPlanePartition.from_json,
        lambda cpp, args: cylindric.to_abacus(cpp),
        lambda psi: cylindric.from_abacus(psi),
    ),
    "path": (
        kyoto.Path.from_json,
        lambda path, args: kyoto.from_path(path),
        lambda psi: kyoto.to_path(psi),
    ),
}


def _load_model(model, data):
    try:
        return MODELS[model][0](data)
    except KeyError as err:
        raise InputError(
            "input does not parse as %s: missing field %r" % (model, err.args[0])
        )
    except (TypeError, ValueError) as err:
        raise InputError("input does not parse as %s: %s" % (model, err))


def cmd_convert(args):
    obj = _load_model(args.src, _read_json(args))
    # the library checks each conversion's precondition and raises ValueError
    try:
        psi = MODELS[args.src][1](obj, args)
        if args.rotate_colors:
            # relabel which gap carries color 0 by shifting every row
            psi = AbacusConfig(
                psi.n, psi.ell, tuple(r.shifted(args.rotate_colors) for r in psi.rows)
            )
        out = MODELS[args.dst][2](psi)
        if args.format == "text":
            out = cylindric.render_text(out)
        else:
            out = json.dumps(out.to_json()) + "\n"
    except ValueError as err:
        raise ValidationError(err)
    sys.stdout.write(out)
    return 0


def _weight(args):
    """The --weight argument, read through the rank-and-level rule
    `abacus._level_coeffs` at the level the command walks: --ell, or 1 for
    `verify level-one`."""
    if args.weight is None:
        raise InputError("--weight is required")
    w = parse_weight(args.weight, args.n)
    ell = 1 if getattr(args, "which", None) == "level-one" else args.ell
    try:
        return abacus._level_coeffs(w, args.n, ell)
    except ValueError as err:
        raise ValidationError(err)


def cmd_graph(args):
    psi0 = abacus.highest_weight_config(_weight(args), args.n, args.ell)
    graph = crystal.crystal_graph(psi0, args.max_degree)
    if args.format == "dot":
        sys.stdout.write(crystal.graph_to_dot(graph))
    else:
        out = {
            "layers": [[c.label() for c in layer] for layer in graph.layers],
            "edges": [[s.label(), i, t.label()] for s, i, t in graph.edges],
        }
        json.dump(out, sys.stdout)
        sys.stdout.write("\n")
    return 0


def cmd_series(args):
    w = _weight(args)
    if args.kind == "Z":
        s = qseries.Z_rep(w, args.n, args.ell, args.nmax)
    elif args.kind == "dimq":
        s = qseries.dimq_crystal(w, args.n, args.ell, args.nmax)
    elif args.kind == "borodin":
        s = qseries.Z_borodin(qseries.boundary_of(w, args.n, args.ell), args.nmax)
    else:
        s = qseries.Z_bruteforce(
            abacus.highest_weight_config(w, args.n, args.ell), args.nmax
        )
    for k, c in enumerate(s.coeffs):
        sys.stdout.write("%d\t%d\n" % (k, c))
    return 0


def cmd_enumerate(args):
    psi0 = abacus.highest_weight_config(_weight(args), args.n, args.ell)
    gen = abacus.enumerate_tight if args.tight else abacus.enumerate_descending
    items = sorted(gen(psi0, args.nmax), key=lambda c: (abacus.weight(c), c.rows))
    for cfg in items:
        sys.stdout.write(
            json.dumps({"weight": abacus.weight(cfg), "config": cfg.to_json()}) + "\n"
        )
    return 0


def cmd_verify(args):
    weights = None if args.weight is None else [_weight(args)]
    cases, failure = checks.run(args.which, args.n, args.ell, args.nmax, weights)
    sys.stderr.write("checked %d cases\n" % cases)
    if args.nmax == 0:
        sys.stderr.write("vacuous: only degree 0 was checked\n")
    if failure is None:
        sys.stdout.write("ok: %s\n" % args.which)
        return 0
    sys.stdout.write("FAIL: %s: %s\n" % (args.which, failure))
    return 1


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing keeps no state
    in it, and every parse returns a fresh namespace."""
    top = argparse.ArgumentParser(prog="slncrystals")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, weight=True):
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--ell", type=int, default=2)
        if weight:
            p.add_argument("--weight", help='e.g. "2*L0+3*L1+L2"')

    p = sub.add_parser("convert", help="convert between model JSON encodings")
    p.add_argument("src", choices=list(MODELS))
    p.add_argument("dst", choices=list(MODELS))
    p.add_argument("input", nargs="?", help="input file (default: stdin)")
    p.add_argument("--format", choices=["json", "text"], default="json")
    common(p, weight=False)
    p.add_argument("--rotate-colors", type=int, default=0)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("graph", help="graded crystal graph")
    common(p)
    p.add_argument("--max-degree", type=int, default=20)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("series", help="partition function coefficients")
    common(p)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--kind", choices=["Z", "dimq", "borodin", "brute"], default="Z")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("enumerate", help="descending configurations by weight")
    common(p)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--tight", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("which", choices=checks.SUITES)
    common(p)
    p.add_argument("--nmax", type=int, default=6)
    p.set_defaults(func=cmd_verify)

    return top


def _check_domain(args):
    """Reject numeric arguments outside every command's domain."""
    if args.n < 2 or args.ell < 1:
        raise ValidationError("need --n >= 2 and --ell >= 1")
    for name in ("nmax", "max_degree"):
        value, flag = getattr(args, name, 0), "--" + name.replace("_", "-")
        if value < 0:
            raise ValidationError("%s must be >= 0" % flag)
        if value > MAX_DEGREE:
            raise ValidationError("%s %d exceeds %d" % (flag, value, MAX_DEGREE))
    if getattr(args, "which", None) == "rank-level" and args.ell < 2:
        raise ValidationError("rank-level duality needs --ell >= 2")
    if getattr(args, "format", None) == "text" and args.dst != "cpp":
        raise ValidationError("--format text needs the destination cpp")


def _parse_args(argv=None):
    """Parse argv, taking `convert`'s input file after its options too.

    argparse binds the optional positional `input` right after `src` and
    `dst`, so a file named after an option is left over.  Exactly one such
    leftover that is not an option becomes the input; any other leftover
    is refused, as argparse refuses it, with exit code 2.
    (parse_intermixed_args does not take a parser with subcommands.)
    """
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if (
        args.command == "convert"
        and args.input is None
        and len(extras) == 1
        and (extras[0] == "-" or not extras[0].startswith("-"))
    ):
        args.input, extras = extras[0], []
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    return args


def main(argv=None):
    args = _parse_args(argv)
    try:
        _check_domain(args)
        return args.func(args)
    except (InputError, ValidationError) as err:
        sys.stderr.write("error: %s\n" % err)
        return err.exit_code
    except (MemoryError, OverflowError) as err:
        # a MemoryError carries no message; an OverflowError names the
        # integer that does not fit an index, such as a part of 10^30
        reason = str(err) or "out of memory"
        sys.stderr.write("error: %s: the request is too large\n" % reason)
        return ValidationError.exit_code


if __name__ == "__main__":
    sys.exit(main())
