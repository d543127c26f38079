"""Seeded instances for the equiv-search workload.

A positive instance pairs the p1 boundary pair of the family with its
p2 partner after a random change of coordinates: the facet ids are
permuted and a random unimodular basis change (an invertible one over
GF(2)) is applied to the vectors.  The facets stay listed in the
source's order under their new ids.  The search walks the target's
facets in listed order, so a shuffled listing would move the hit
anywhere in the enumeration and make the cost of an instance a matter
of luck: with shuffled listings, five seeds gave op_p90_ms from 94 to
289 ms.  Listed in order, the seed changes the ids and the vectors but
not the sequence of bijections tried.

A negative instance pairs p1 with the same kind of transform of the
standard product pair over simplex(k-1) x simplex(k).  Both pairs are
valid and no translation exists, so the search runs to exhaustion.
Every negative instance is certified at generation time by a failed
GF(2) search on the mod-2 reductions: a Z translation would reduce to
a GF(2) one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# (ring, k, instances per pass); Z at k = 4 is left out because one
# instance takes about 11 s.  The median op must fall inside one class
# of similar instances, not where two classes meet: with four of each,
# it fell between the 6 ms GF(2) k = 3 and 7 ms Z k = 2 classes and
# op_p50_ms moved with their noise.  So GF(2) at k = 4 (about 30 ms, far
# from the classes on either side) has twenty instances, and the 3 ms
# and 6 ms GF(2) classes two each; the median then falls 40% of the way
# into the k = 4 class.
POSITIVE = (("Z", 2, 4), ("Z", 3, 4), ("GF2", 2, 2), ("GF2", 3, 2), ("GF2", 4, 20))
NEGATIVE = (("Z", 2, 1), ("Z", 3, 1))


@dataclass(frozen=True)
class Instance:
    name: str
    pair1: Path
    pair2: Path
    positive: bool


def random_basis_change(rng: random.Random, ring: str, rank: int) -> tuple:
    """A random matrix with determinant +-1 (invertible over GF(2))."""
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(2 * rank):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((1, -1)) if ring == "Z" else 1
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    if ring == "GF2":
        m = [[x % 2 for x in row] for row in m]
    return tuple(tuple(row) for row in m)


def transformed(lib, pair, rng: random.Random):
    """``pair`` with permuted facet ids and a random basis change."""
    cp = lib.charpair
    poly = pair.polytope
    ids = list(poly.facet_ids)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    rename = dict(zip(ids, shuffled))
    facets = [(rename[f], poly.facet_tags[f]) for f in ids]
    vertices = [
        (coords, {rename[f] for f in fs})
        for coords, fs in zip(poly.vertex_coords, poly.vertex_facets)
    ]
    u = random_basis_change(rng, pair.ring, pair.chi.rank)
    vectors = {
        rename[f]: lib.exactalg.mat_vec(u, v) for f, v in pair.chi.vectors.items()
    }
    out = cp.CharacteristicPair(
        lib.polytope.SimplePolytope(poly.dim, facets, vertices),
        cp.CharacteristicFunction(pair.ring, pair.chi.rank, vectors),
    )
    if not cp.validate(out).ok:
        raise RuntimeError("generated target pair fails validate")
    return out


def product_pair(lib, k: int):
    """The standard Z pair over simplex(k-1) x simplex(k), rank 2k-1."""
    cp = lib.charpair
    left = cp.standard_pair("complex_projective", k - 1).chi.vectors
    right = cp.standard_pair("complex_projective", k).chi.vectors
    vectors = {f"L.{f}": tuple(v) + (0,) * k for f, v in left.items()}
    vectors.update({f"R.{f}": (0,) * (k - 1) + tuple(v) for f, v in right.items()})
    poly = lib.polytope.product(lib.polytope.simplex(k - 1), lib.polytope.simplex(k))
    return cp.CharacteristicPair(poly, cp.CharacteristicFunction("Z", 2 * k - 1, vectors))


def _mod2(lib, pair):
    return lib.charpair.CharacteristicPair(pair.polytope, pair.chi.mod2())


def _write(path: Path, pair) -> Path:
    path.write_text(json.dumps(pair.to_json_dict(), sort_keys=True), encoding="utf-8")
    return path


def generate(lib, seed: int, workdir: Path) -> list[Instance]:
    """Write the instance files for ``seed`` into ``workdir``."""
    rng = random.Random(seed)
    families = {}

    def boundary(ring: str, k: int, fid: str):
        if (ring, k) not in families:
            families[ring, k] = lib.family.build_family(k, ring)
        return families[ring, k].boundary[fid]

    instances = []
    for ring, k, count in POSITIVE:
        source = _write(workdir / f"p1-{ring}-{k}.json", boundary(ring, k, "p1"))
        for i in range(count):
            target = transformed(lib, boundary(ring, k, "p2"), rng)
            name = f"equiv {ring} k={k} positive #{i}"
            instances.append(
                Instance(name, source, _write(workdir / f"pos-{ring}-{k}-{i}.json", target), True)
            )
    for ring, k, count in NEGATIVE:
        p1 = boundary(ring, k, "p1")
        source = _write(workdir / f"p1-{ring}-{k}.json", p1)
        for i in range(count):
            target = transformed(lib, product_pair(lib, k), rng)
            if lib.charpair.find_delta_translation(_mod2(lib, p1), _mod2(lib, target)):
                raise RuntimeError(f"negative instance {ring} k={k} #{i} has a GF(2) translation")
            name = f"equiv {ring} k={k} negative #{i}"
            instances.append(
                Instance(name, source, _write(workdir / f"neg-{ring}-{k}-{i}.json", target), False)
            )
    return instances
