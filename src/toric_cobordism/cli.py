"""Command line front end emitting and checking JSON artifacts.

Exit codes follow a scriptable contract: 0 means verified, 1 means a
check failed, 2 means invalid input.  Output files are byte stable for
a fixed seed: keys are sorted and rationals are serialized as exact
"p/q" strings.  The environment variable TORIC_COBORDISM_SEED, when
set, overrides the seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__, cellular
from .charpair import (
    RING_GF2,
    RING_Z,
    CharacteristicPair,
    find_delta_translation,
    validate_pairs,
)
from .family import FamilyDescriptor, build_family, glue_certificate
from .family import reflection_count, total_space_orientable

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2

_RING_FLAG = {"z": RING_Z, "z2": RING_GF2}


class InputError(ValueError):
    """An input file cannot be read as a family or a pair."""


def _dump(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read(path: str) -> FamilyDescriptor | CharacteristicPair:
    """The family (a file with ``boundary``) or the pair stored at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if "boundary" in data:
            return FamilyDescriptor.from_json_dict(data)
        return CharacteristicPair.from_json_dict(data)
    except (OSError, KeyError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _seed(args: argparse.Namespace) -> int:
    env = os.environ.get("TORIC_COBORDISM_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def cmd_construct(args) -> int:
    fam = build_family(args.k, _RING_FLAG[args.ring], args.r1, args.r2)
    data = fam.to_json_dict()
    data["seed"] = _seed(args)
    _dump(data, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    source = _read(args.infile)
    if isinstance(source, FamilyDescriptor):
        pairs = {"full": source.pair, **source.boundary}
    else:
        pairs = {"pair": source}
    bad = False
    for name, report in zip(pairs, validate_pairs(list(pairs.values()))):
        if report.ok:
            print(f"{name}: valid at all {report.checked_vertices} vertices")
        else:
            bad = True
            for vertex, message in report.failures:
                print(f"{name}: vertex {vertex}: {message}")
    return EXIT_CHECK_FAILED if bad else EXIT_OK


def cmd_homology(args) -> int:
    fam = _read(args.infile)
    if not isinstance(fam, FamilyDescriptor):
        raise InputError(f"{args.infile} holds a pair, not a family")
    if args.oracle and fam.ring != RING_GF2:
        raise InputError("--oracle needs a GF(2) family (construct --ring z2)")
    seed = _seed(args)
    if args.distinguished:
        functional = cellular.distinguished_functional(fam.polytope, fam.n, seed)
    else:
        functional = cellular.draw_functional(fam.polytope, seed)
    profile = cellular.vertex_indices(fam.polytope, functional)
    out: dict = {
        "k": fam.k,
        "n": fam.n,
        "ring": fam.ring,
        "seed": seed,
        "index_profile": profile.to_json_dict(),
    }
    exit_code = EXIT_OK
    if fam.ring == RING_Z:
        table = cellular.index_table(profile, fam.n)
        out["relative_table"] = cellular.table_to_json(table)
    else:
        count, d_n = reflection_count(fam.n)
        out["reflection_count"] = count
        out["d_n"] = d_n
        if args.oracle:
            table, cc = cellular.cover_homology(fam.pair, RING_Z, relative=True)
            lhs, rhs = cellular.euler_sides(cc, profile)
            out["relative_table"] = cellular.table_to_json(table)
            out["euler_identity"] = {"cells": lhs, "index_pairs": rhs}
            out["orientable"] = total_space_orientable(fam.n, d_n, table[fam.n])
            out["oracle_agrees"] = lhs == rhs and out["orientable"] is not None
        else:
            out["orientable"] = total_space_orientable(fam.n, d_n)
        if out["orientable"] is None or out.get("oracle_agrees") is False:
            exit_code = EXIT_CHECK_FAILED
    _dump(out, args.out)
    return exit_code


def cmd_oracle(args) -> int:
    pair = _read(args.infile)
    if isinstance(pair, FamilyDescriptor):
        if not args.relative:
            raise InputError("family oracle is relative; pass --relative")
        pair = pair.pair
    table, cc = cellular.cover_homology(
        pair, _RING_FLAG[args.ring], relative=args.relative
    )
    out = {
        "ring": args.ring,
        "relative": bool(args.relative),
        "cells": list(cc.cell_counts),
        "table": cellular.table_to_json(table),
    }
    _dump(out, args.out)
    return EXIT_OK


def cmd_equiv(args) -> int:
    pair1, pair2 = (
        source.pair if isinstance(source, FamilyDescriptor) else source
        for source in (_read(args.pair1), _read(args.pair2))
    )
    witness = find_delta_translation(pair1, pair2)
    if witness is None:
        print("no delta translation found")
        return EXIT_CHECK_FAILED
    _dump({"translation": witness.to_json_dict(), "verified": True}, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    cert = glue_certificate(args.k, args.kind, args.r1, args.r2, seed=_seed(args))
    _dump(cert.to_json_dict(), args.out)
    if not cert.ok:
        for name in cert.failed_checks():
            print(f"check failed: {name}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


@functools.cache  # built on the first main call, then shared
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-cobordism",
        description=(
            "Build, validate and certify truncated-simplex characteristic"
            " pairs and their homology."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="functional seed")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("construct", help="emit a family descriptor")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ring", choices=("z", "z2"), default="z")
    p.add_argument("--r1", type=_parse_fraction, default=Fraction(1, 6))
    p.add_argument("--r2", type=_parse_fraction, default=Fraction(1, 4))
    add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("validate", help="check a family or pair file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="homology tables of a family file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--oracle", action="store_true", help="add the brute-force table")
    p.add_argument(
        "--distinguished",
        action="store_true",
        help="use the deterministic functional maximized on the distinguished edge",
    )
    add_common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("oracle", help="brute-force homology of a pair or family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ring", choices=("z", "z2"), default="z")
    p.add_argument("--relative", action="store_true")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("equiv", help="search for a delta translation")
    p.add_argument("--pair1", required=True)
    p.add_argument("--pair2", required=True)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("certify", help="end-to-end certificate for one k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=("complex", "real"), required=True)
    p.add_argument("--r1", type=_parse_fraction, default=Fraction(1, 6))
    p.add_argument("--r2", type=_parse_fraction, default=Fraction(1, 4))
    add_common(p)
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place an error becomes an exit code.

    Two routes that disagree (``ConsistencyError``) fail the check; any
    other ``ValueError``, which every library error subclasses, and an
    ``OSError`` such as an unwritable ``--out`` are invalid input.
    Either way one line goes to stderr.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cellular.ConsistencyError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
