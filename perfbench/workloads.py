"""Op lists of the three workloads, generated from the workload seed.

Each op is one ``toric_cobordism.cli.main(argv)`` call.  Its name is
independent of the seed and keys its recorded reference (exit code and
output digest) in ``references.json``.  Input files are written into
the run's work directory; the program sees only those files and argv.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import equivgen


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    # equiv ops: the two pair files a witness is re-verified against
    pairs: tuple[Path, Path] | None = None


def _functional_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def certify_torus(lib, seed: int, workdir: Path) -> list[Op]:
    """The main user path: end-to-end certificates.

    Complex certificates for k = 2..6, the real one at k = 5 (above the
    oracle limit, so no chain complex is built), and the three real
    requests the CLI must reject with exit 2 because 4 divides n.  The
    third rejection makes nine ops, so the median op time falls in the
    middle of the k = 3 complex samples; with eight it was the mean of
    the slowest k = 3 and the fastest k = 4 sample, and spread by 19%
    over seeds.
    """
    rng = random.Random(seed)
    ops = [
        Op(f"certify complex k={k}", ("certify", "--kind", "complex", "--k", str(k), "--seed", _functional_seed(rng)))
        for k in range(2, 7)
    ]
    for k in (5, 2, 4, 6):
        ops.append(Op(f"certify real k={k}", ("certify", "--kind", "real", "--k", str(k), "--seed", _functional_seed(rng))))
    return ops


def oracle_involution(lib, seed: int, workdir: Path) -> list[Op]:
    """The brute-force cellular oracle on GF(2) families and small covers.

    Family files for k = 2, 3 feed ``homology --oracle``; the p3 and p1
    boundary pairs of the n = 8 family, with their facet ids permuted
    and a random GF(2) basis change applied, feed ``oracle``.  Neither
    change alters the small cover, so the expected output is fixed.
    """
    rng = random.Random(seed)
    fams = {k: lib.family.build_family(k, "GF2") for k in (2, 3, 4)}
    ops = []
    for k in (2, 3):
        path = workdir / f"family-GF2-{k}.json"
        path.write_text(json.dumps(fams[k].to_json_dict(), sort_keys=True), encoding="utf-8")
        ops.append(Op(f"homology --oracle k={k}", ("homology", "--in", str(path), "--oracle", "--seed", _functional_seed(rng))))
    ops.append(Op("certify real k=3", ("certify", "--kind", "real", "--k", "3", "--seed", _functional_seed(rng))))
    for fid, ring in (("p3", "z"), ("p1", "z2")):
        pair = equivgen.transformed(lib, fams[4].boundary[fid], rng)
        path = workdir / f"cover-n8-{fid}.json"
        path.write_text(json.dumps(pair.to_json_dict(), sort_keys=True), encoding="utf-8")
        ops.append(Op(f"oracle {ring} n=8 {fid}", ("oracle", "--in", str(path), "--ring", ring)))
    return ops


def equiv_search(lib, seed: int, workdir: Path) -> list[Op]:
    """Delta-translation searches on seeded positive and negative instances."""
    return [
        Op(i.name, ("equiv", "--pair1", str(i.pair1), "--pair2", str(i.pair2)), (i.pair1, i.pair2))
        for i in equivgen.generate(lib, seed, workdir)
    ]


WORKLOADS = {
    "certify-torus": certify_torus,
    "oracle-involution": oracle_involution,
    "equiv-search": equiv_search,
}
