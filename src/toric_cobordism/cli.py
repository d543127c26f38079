"""Command line front end emitting and checking JSON artifacts.

Exit codes follow a scriptable contract: 0 means verified, 1 means a
check failed, 2 means invalid input.  Output files are byte stable for
a fixed seed: keys are sorted and rationals are serialized as exact
"p/q" strings.  The environment variable TORIC_COBORDISM_SEED, when
set, overrides the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__, cellular
from .charpair import (
    RING_GF2,
    RING_Z,
    CharacteristicPair,
    PairError,
    find_delta_translation,
    validate,
    verify_delta_translation,
)
from .exactalg import DimensionMismatch
from .family import (
    CUT_FACETS,
    FamilyDescriptor,
    FamilyError,
    InvalidKind,
    build_family,
    glue_certificate,
)
from .polytope import PolytopeError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2

_RING_FLAG = {"z": RING_Z, "z2": RING_GF2}


def _dump(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
    try:
        fam = build_family(args.k, _RING_FLAG[args.ring], args.r1, args.r2)
    except (FamilyError, PolytopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    data = fam.to_json_dict()
    data["seed"] = _seed(args)
    _dump(data, args.out)
    return EXIT_OK


def _family_from_file(path: str) -> FamilyDescriptor:
    return FamilyDescriptor.from_json_dict(_load(path))


def cmd_validate(args) -> int:
    try:
        data = _load(args.infile)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        if "boundary" in data:
            fam = FamilyDescriptor.from_json_dict(data)
            pairs = {"full": fam.pair, **fam.boundary}
        else:
            pairs = {"pair": CharacteristicPair.from_json_dict(data)}
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    bad = False
    for name, pair in pairs.items():
        report = validate(pair)
        if report.ok:
            print(f"{name}: valid at all {report.checked_vertices} vertices")
        else:
            bad = True
            for vertex, message in report.failures:
                print(f"{name}: vertex {vertex}: {message}")
    return EXIT_CHECK_FAILED if bad else EXIT_OK


def cmd_homology(args) -> int:
    try:
        fam = _family_from_file(args.infile)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: cannot read family: {exc}", file=sys.stderr)
        return EXIT_INVALID
    seed = _seed(args)
    try:
        if args.distinguished:
            functional = cellular.distinguished_functional(fam.polytope, fam.n, seed)
        else:
            functional = cellular.draw_functional(fam.polytope, seed)
        profile = cellular.vertex_indices(fam.polytope, functional, strict=args.strict)
    except cellular.CellularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    out: dict = {
        "k": fam.k,
        "n": fam.n,
        "ring": fam.ring,
        "seed": seed,
        "index_profile": profile.to_json_dict(),
    }
    exit_code = EXIT_OK
    if fam.ring == RING_Z:
        table = cellular.homology_w_rel_boundary(fam, functional)
        out["relative_table"] = cellular.table_to_json(table)
    else:
        from .family import reflection_count

        count, d_n = reflection_count(fam.n)
        out["reflection_count"] = count
        out["d_n"] = d_n
        out["orientable"] = fam.n % 4 == 2
        if args.oracle:
            table = cellular.relative_homology_table(fam)
            out["relative_table"] = cellular.table_to_json(table)
            lhs, rhs = cellular.euler_cross_check(fam, functional)
            out["euler_identity"] = {"cells": lhs, "index_pairs": rhs}
            top_ok = (table[fam.n] == (1, ())) == (fam.n % 4 == 2)
            if lhs != rhs or not top_ok:
                out["oracle_agrees"] = False
                exit_code = EXIT_CHECK_FAILED
            else:
                out["oracle_agrees"] = True
    _dump(out, args.out)
    return exit_code


def cmd_oracle(args) -> int:
    try:
        data = _load(args.infile)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    ring = _RING_FLAG[args.ring]
    try:
        if "boundary" in data:
            fam = FamilyDescriptor.from_json_dict(data)
            if not args.relative:
                print(
                    "error: family oracle is relative; pass --relative",
                    file=sys.stderr,
                )
                return EXIT_INVALID
            cw = cellular.build_quotient_complex(
                fam.polytope,
                fam.pair.chi if fam.ring == RING_GF2 else fam.pair.chi.mod2(),
                CUT_FACETS,
            )
            cc = cellular.chain_complex(cw, ring)
            table = cellular.homology(cc)
            if ring == RING_Z:
                betti, torsion = table[0]
                table[0] = (betti + 1, torsion)
        else:
            pair = CharacteristicPair.from_json_dict(data)
            chi = pair.chi if pair.ring == RING_GF2 else pair.chi.mod2()
            cw = cellular.build_quotient_complex(pair.polytope, chi, ())
            cc = cellular.chain_complex(cw, ring)
            table = cellular.homology(cc)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    out = {
        "ring": args.ring,
        "relative": bool(args.relative),
        "cells": list(cc.cell_counts),
        "table": cellular.table_to_json(table),
    }
    _dump(out, args.out)
    return EXIT_OK


def cmd_equiv(args) -> int:
    try:
        pair1 = CharacteristicPair.from_json_dict(_load(args.pair1))
        pair2 = CharacteristicPair.from_json_dict(_load(args.pair2))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: cannot read pairs: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        witness = find_delta_translation(pair1, pair2)
    except PairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if witness is None or not verify_delta_translation(pair1, pair2, witness):
        print("no delta translation found")
        return EXIT_CHECK_FAILED
    _dump({"translation": witness.to_json_dict(), "verified": True}, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        cert = glue_certificate(
            args.k, args.kind, args.r1, args.r2, seed=_seed(args)
        )
    except InvalidKind as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FamilyError, PolytopeError, PairError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _dump(cert.to_json_dict(), args.out)
    if not cert.ok:
        for name in cert.failed_checks():
            print(f"check failed: {name}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


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
    p.add_argument(
        "--no-strict",
        dest="strict",
        action="store_false",
        help="permit vertices with unexpected old-edge counts",
    )
    add_common(p)
    p.set_defaults(func=cmd_homology, strict=True)

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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
