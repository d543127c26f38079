"""Characteristic functions over Z (sign classes) and GF(2).

A characteristic pair is a simple polytope together with an assignment
of group vectors to (some of) its facets.  Facets left unassigned are
free: they carry no isotropy and become boundary pieces of the quotient
construction.  Integer vectors are stored as sign-class representatives
(first nonzero entry positive); all comparisons are up to a global sign
per facet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Optional, Sequence

from . import exactalg
from .exactalg import (
    DimensionMismatch,
    Gf2Matrix,
    Matrix,
    as_matrix,
    det_sign,
    gf2_pack,
    is_direct_summand,
    mat_vec,
    permutation_sign,
)
from .polytope import SimplePolytope, facet_polytope, simplex

RING_Z = "Z"
RING_GF2 = "GF2"


class PairError(ValueError):
    pass


class RingMismatch(PairError):
    pass


class MissingVector(PairError):
    pass


class InvalidPair(PairError):
    pass


class RestrictionInvalid(PairError):
    pass


class SearchCapExceeded(PairError):
    """The translation search hit its cap before finishing."""


class SingularDelta(PairError):
    pass


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def json_object(data: dict, key: str) -> dict:
    """``data[key]``, which must be a JSON object."""
    value = data[key]
    if not isinstance(value, dict):
        raise InvalidPair(f"{key!r} must be an object, not {type(value).__name__}")
    return value


def normalize_sign_class(vec: Sequence[int]) -> tuple[int, ...]:
    v = tuple(int(x) for x in vec)
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return tuple(-y for y in v)
    return v


@dataclass(frozen=True)
class CharacteristicFunction:
    """Facet id -> group vector, over Z/± or GF(2).

    ``rank`` is the rank of the acting group; vectors all have this
    length.  The mapping may be partial (free facets omitted).  The rank
    and every entry must be ints (bools, floats and strings raise
    ``InvalidPair``), so a value read from JSON is never rounded.
    """

    ring: str
    rank: int
    vectors: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.ring not in (RING_Z, RING_GF2):
            raise RingMismatch(f"unknown ring {self.ring!r}")
        if not _is_integer(self.rank) or self.rank < 0:
            raise InvalidPair(f"rank {self.rank!r} is not a nonnegative integer")
        canon = {}
        for fid, vec in self.vectors.items():
            v = tuple(vec)
            if not all(map(_is_integer, v)):
                raise InvalidPair(f"vector on {fid} has a non-integer entry: {list(v)!r}")
            if len(v) != self.rank:
                raise DimensionMismatch(
                    f"vector on {fid} has length {len(v)}, expected {self.rank}"
                )
            if self.ring == RING_GF2:
                v = tuple(x % 2 for x in v)
            else:
                v = normalize_sign_class(v)
            canon[fid] = v
        object.__setattr__(self, "vectors", canon)

    def vector(self, fid: str) -> tuple[int, ...]:
        try:
            return self.vectors[fid]
        except KeyError:
            raise MissingVector(fid) from None

    def assigned(self) -> frozenset[str]:
        return frozenset(self.vectors)

    def mod2(self) -> "CharacteristicFunction":
        return CharacteristicFunction(
            RING_GF2,
            self.rank,
            {fid: tuple(x % 2 for x in v) for fid, v in self.vectors.items()},
        )


@dataclass(frozen=True)
class CharacteristicPair:
    """A polytope with a characteristic function and orientation datum.

    ``vertex_order`` lists vertex indices in the order fixed as the
    pair's orientation datum; None means the polytope's canonical
    (lexicographic) order.  The group factor carries ``group_sign``.
    """

    polytope: SimplePolytope
    chi: CharacteristicFunction
    vertex_order: Optional[tuple[int, ...]] = None
    group_sign: int = 1

    def __post_init__(self):
        unknown = self.chi.assigned() - set(self.polytope.facet_ids)
        if unknown:
            raise MissingVector(
                f"vectors on unknown facets {sorted(unknown)}"
            )
        if self.vertex_order is not None:
            if sorted(self.vertex_order) != list(range(self.polytope.n_vertices)):
                raise PairError("vertex_order is not a permutation of the vertices")

    @property
    def ring(self) -> str:
        return self.chi.ring

    def is_closed(self) -> bool:
        return self.chi.assigned() == set(self.polytope.facet_ids)

    def order(self) -> tuple[int, ...]:
        if self.vertex_order is not None:
            return self.vertex_order
        return tuple(range(self.polytope.n_vertices))

    def to_json_dict(self) -> dict:
        return {
            "polytope": self.polytope.to_json_dict(),
            "ring": self.ring,
            "rank": self.chi.rank,
            "vectors": {fid: list(v) for fid, v in sorted(self.chi.vectors.items())},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CharacteristicPair":
        poly = SimplePolytope.from_json_dict(data["polytope"])
        vectors = {fid: tuple(v) for fid, v in json_object(data, "vectors").items()}
        rank = data.get("rank")
        if rank is None:
            if not vectors:
                raise InvalidPair("no rank given and no vector to read it from")
            rank = len(next(iter(vectors.values())))
        chi = CharacteristicFunction(data["ring"], rank, vectors)
        return cls(poly, chi)


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    checked_vertices: int
    failures: tuple[tuple[int, str], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate(pair: CharacteristicPair) -> ValidityReport:
    """Check the basis condition at every vertex.

    At each vertex the vectors of its assigned facets must span a
    direct summand (over Z) or an independent subspace (over GF(2)) of
    rank equal to the number of assigned facets there.  Checking
    vertices suffices: every face contains a vertex, and a subset of a
    basis again spans a summand.
    """
    poly = pair.polytope
    chi = pair.chi
    failures = []
    for i, fs in enumerate(poly.vertex_facets):
        vecs = [chi.vectors[f] for f in sorted(fs) if f in chi.vectors]
        if not vecs:
            continue
        if len(vecs) > chi.rank:
            failures.append((i, f"{len(vecs)} assigned vectors exceed group rank"))
            continue
        if chi.ring == RING_Z:
            ok = is_direct_summand(vecs, chi.rank)
        else:
            ok = exactalg.gf2_rank(vecs) == len(vecs)
        if not ok:
            failures.append(
                (i, "facet vectors at this vertex do not span a direct summand")
            )
    return ValidityReport(
        ok=not failures,
        checked_vertices=poly.n_vertices,
        failures=tuple(failures),
    )


def orientable_small_cover(pair: CharacteristicPair) -> bool:
    """Orientability of the small cover of a GF(2) pair.

    True iff some y satisfies <y, beta(F)> = 1 for every assigned facet
    F, which is the basis criterion for orientability.
    """
    if pair.ring != RING_GF2:
        raise RingMismatch("orientability test needs a GF(2) pair")
    report = validate(pair)
    if not report:
        raise InvalidPair(f"pair invalid at vertices {[i for i, _ in report.failures]}")
    fids = sorted(pair.chi.vectors)
    rows = [pair.chi.vectors[f] for f in fids]
    return exactalg.solve_gf2(rows, [1] * len(rows)) is not None


def restrict(pair: CharacteristicPair, fid: str) -> CharacteristicPair:
    """Restrict a pair to one of its facets.

    Each facet g of the child polytope is an intersection g cap fid and
    receives the vector assigned to g in the parent.  The result is
    validated; a failure raises RestrictionInvalid.
    """
    return restrict_with_report(pair, fid)[0]


def restrict_with_report(
    pair: CharacteristicPair, fid: str
) -> tuple[CharacteristicPair, ValidityReport]:
    """``restrict``, also returning the report that validated the result."""
    child = facet_polytope(pair.polytope, fid)
    vectors = {}
    for g in child.facet_ids:
        if g not in pair.chi.vectors:
            raise MissingVector(f"parent facet {g} has no vector to inherit")
        vectors[g] = pair.chi.vectors[g]
    chi = CharacteristicFunction(pair.ring, pair.chi.rank, vectors)
    out = CharacteristicPair(child, chi)
    report = validate(out)
    if not report:
        raise RestrictionInvalid(
            f"restriction to {fid} fails at vertices"
            f" {[i for i, _ in report.failures]}"
        )
    return out, report


def standard_pair(name: str, m: int) -> CharacteristicPair:
    """Reference pair over the m-simplex.

    ``complex_projective``: vectors e_1..e_m and the all-ones class.
    ``real_projective``: the same data over GF(2).
    """
    if m < 1:
        raise PairError("dimension must be >= 1")
    ring = {"complex_projective": RING_Z, "real_projective": RING_GF2}.get(name)
    if ring is None:
        raise PairError(f"unknown standard pair {name!r}")
    poly = simplex(m)
    vectors = {
        f"d{j}": tuple(1 if i == j else 0 for i in range(m)) for j in range(m)
    }
    vectors[f"d{m}"] = tuple(1 for _ in range(m))
    return CharacteristicPair(poly, CharacteristicFunction(ring, m, vectors))


# ---------------------------------------------------------------------------
# delta translations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaTranslation:
    """A facet bijection together with a group automorphism.

    ``delta`` is a square integer matrix, unimodular over Z or
    invertible over GF(2) depending on ``ring``; it acts on column
    vectors, so the translation sends a vector v to delta @ v.
    """

    ring: str
    facet_map: dict[str, str]
    delta: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring,
            "facet_map": dict(sorted(self.facet_map.items())),
            "delta": [list(r) for r in self.delta],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeltaTranslation":
        return cls(
            data["ring"],
            dict(data["facet_map"]),
            tuple(tuple(r) for r in data["delta"]),
        )


def _apply_delta(ring: str, delta: Matrix, vec: Sequence[int]) -> tuple[int, ...]:
    out = mat_vec(delta, vec)
    if ring == RING_GF2:
        return tuple(x % 2 for x in out)
    return normalize_sign_class(out)


def _is_invertible(ring: str, delta) -> bool:
    try:
        if ring == RING_Z:
            return abs(exactalg.determinant(delta)) == 1
        return Gf2Matrix.from_vectors(delta).inverse() is not None
    except DimensionMismatch:
        return False


def _facet_map_is_isomorphism(
    p: SimplePolytope, q: SimplePolytope, fmap: dict[str, str]
) -> bool:
    if set(fmap) != set(p.facet_ids) or set(fmap.values()) != set(q.facet_ids):
        return False
    if len(set(fmap.values())) != len(fmap):
        return False
    target_sets = set(q.vertex_facets)
    images = set()
    for fs in p.vertex_facets:
        image = frozenset(fmap[f] for f in fs)
        if image not in target_sets or image in images:
            return False
        images.add(image)
    return True


def verify_delta_translation(
    pair1: CharacteristicPair, pair2: CharacteristicPair, t: DeltaTranslation
) -> bool:
    """True iff t carries pair1 to pair2.

    The facet map must be a combinatorial isomorphism matching assigned
    facets to assigned facets, delta must be invertible over the common
    ring, and delta(chi1(F)) must equal chi2(map(F)) for every assigned
    facet (as sign classes over Z).
    """
    if pair1.ring != pair2.ring or t.ring != pair1.ring:
        raise RingMismatch("translation and pairs must share a ring")
    if not _facet_map_is_isomorphism(pair1.polytope, pair2.polytope, t.facet_map):
        return False
    assigned1, assigned2 = pair1.chi.assigned(), pair2.chi.assigned()
    if {t.facet_map[f] for f in assigned1} != set(assigned2):
        return False
    return _is_invertible(t.ring, t.delta) and _carries_vectors(pair1, pair2, t)


def _carries_vectors(
    pair1: CharacteristicPair, pair2: CharacteristicPair, t: DeltaTranslation
) -> bool:
    """delta(chi1(F)) == chi2(map(F)) for every assigned facet F of pair1."""
    delta = as_matrix(t.delta)
    return all(
        _apply_delta(t.ring, delta, v) == pair2.chi.vectors[t.facet_map[f]]
        for f, v in pair1.chi.vectors.items()
    )


def compose_translations(
    t1: DeltaTranslation, t2: DeltaTranslation
) -> DeltaTranslation:
    """The translation applying t1 first and then t2."""
    if t1.ring != t2.ring:
        raise RingMismatch("cannot compose translations over different rings")
    fmap = {f: t2.facet_map[g] for f, g in t1.facet_map.items()}
    delta = exactalg.mat_mul(as_matrix(t2.delta), as_matrix(t1.delta))
    if t1.ring == RING_GF2:
        delta = tuple(tuple(x % 2 for x in row) for row in delta)
    return DeltaTranslation(t1.ring, fmap, delta)


def identity_translation(pair: CharacteristicPair) -> DeltaTranslation:
    return DeltaTranslation(
        pair.ring,
        {f: f for f in pair.polytope.facet_ids},
        exactalg.identity_matrix(pair.chi.rank),
    )


def _independent_assigned_facets(pair: CharacteristicPair) -> Optional[list[str]]:
    """rank-many assigned facets whose vectors are independent over the ring."""
    rank_of = exactalg.gf2_rank if pair.ring == RING_GF2 else exactalg.integer_rank
    chosen: list[str] = []
    for fid in sorted(pair.chi.vectors):
        cand = chosen + [fid]
        if rank_of([pair.chi.vectors[f] for f in cand]) == len(cand):
            chosen = cand
            if len(chosen) == pair.chi.rank:
                return chosen
    return None


def _columns(pair: CharacteristicPair, fids: Sequence[str]) -> Matrix:
    """The matrix whose columns are the vectors of ``fids``."""
    return tuple(zip(*(pair.chi.vectors[f] for f in fids)))


def _divide_exact(rows: Matrix, adj: Matrix, det: int) -> Optional[Matrix]:
    """rows @ adj / det, or None at the first entry det does not divide."""
    cols = tuple(zip(*adj))
    out = []
    for row in rows:
        out_row = []
        for col in cols:
            q, r = divmod(sum(x * y for x, y in zip(row, col)), det)
            if r:
                return None
            out_row.append(q)
        out.append(tuple(out_row))
    return tuple(out)


def _signed(w: Matrix, signs: Sequence[int]) -> Matrix:
    """w with column i multiplied by signs[i]."""
    return tuple(tuple(s * x for s, x in zip(signs, row)) for row in w)


def _find_simplex_translation(
    pair1: CharacteristicPair, pair2: CharacteristicPair
) -> Optional[DeltaTranslation]:
    """Closed-form search when both pairs live over combinatorial simplices.

    Every facet bijection between simplices is an isomorphism, so the
    search reduces to choosing one leftover facet on each side; delta is
    solved from the basis columns, which are square because the group
    rank equals the common dimension.  In the Z case the leftover vector v
    has coefficients adj(B) v / det B in the basis B of the others, and
    the per-column sign pattern is pinned by comparing the entries of
    adj(B) v on both sides, so no sign enumeration is needed.
    """
    ring = pair1.ring
    fids1, fids2 = sorted(pair1.polytope.facet_ids), sorted(pair2.polytope.facet_ids)
    targets = []
    for g2 in fids2:
        b2 = [f for f in fids2 if f != g2]
        w = _columns(pair2, b2)
        det2 = u = None
        if ring == RING_Z:
            det2, adj2 = exactalg.adjugate(w)
            u = mat_vec(adj2, pair2.chi.vectors[g2])
        targets.append((g2, b2, w, det2, u))
    for g1 in fids1:
        b1 = [f for f in fids1 if f != g1]
        v = _columns(pair1, b1)
        if ring == RING_GF2:
            vinv = Gf2Matrix.from_vectors(v).inverse()
            if vinv is None:
                continue
        else:
            det1, adj1 = exactalg.adjugate(v)
            if det1 == 0:
                continue
            c = mat_vec(adj1, pair1.chi.vectors[g1])
        for g2, b2, w, det2, u in targets:
            fmap = {f: g for f, g in zip(b1, b2)}
            fmap[g1] = g2
            if ring == RING_GF2:
                delta = Gf2Matrix.from_vectors(w).mul(vinv).row_tuples()
            else:
                # equal |det| is what makes delta unimodular
                if abs(det2) != abs(det1):
                    continue
                if any(abs(a) != abs(b) for a, b in zip(c, u)):
                    continue
                eps = 1 if det1 == det2 else -1
                signs = [1 if b == eps * a else -1 for a, b in zip(c, u)]
                delta = _divide_exact(_signed(w, signs), adj1, det1)
                if delta is None:
                    continue
            t = DeltaTranslation(ring, fmap, delta)
            if verify_delta_translation(pair1, pair2, t):
                return t
    return None


def _mod2_relations(pair: CharacteristicPair) -> list[tuple[str, ...]]:
    """Facet sets whose assigned vectors sum to zero mod 2.

    One ``exactalg.gf2_basis`` over the vectors in sorted facet order,
    row i tagged with bit rank + N - 1 - i (N vectors, so earlier rows
    carry higher tags).  A row that reduces to zero on the vector bits
    is left with its own tag as lowest bit and opens that key: the keys
    at or above rank are the relations, one per dependent row, and
    their tag bits are the facets of each.  The relations are
    independent and there are as many as the mod-2 vectors have linear
    relations, so they span them all.
    """
    rank, fids = pair.chi.rank, sorted(pair.chi.vectors)
    top = rank + len(fids) - 1
    basis = exactalg.gf2_basis(
        gf2_pack(pair.chi.vectors[fid]) | (1 << (top - i)) for i, fid in enumerate(fids)
    )
    return [
        tuple(fid for i, fid in enumerate(fids) if basis[key] >> (top - i) & 1)
        for key in sorted(basis, reverse=True)
        if key >= rank
    ]


def find_delta_translation(
    pair1: CharacteristicPair,
    pair2: CharacteristicPair,
    *,
    max_bijections: int = 200_000,
) -> Optional[DeltaTranslation]:
    """Search for a translation carrying pair1 to pair2.

    Pairs of different group rank have none.  Otherwise backtracks over
    facet bijections (combinatorial isomorphisms) and prunes inside the
    backtrack: a facet must map to an assigned facet iff it is assigned,
    and each mod-2 relation among pair1's vectors (a facet set R with
    sum over R of chi1 = 0 mod 2) must hold for the images in pair2 as
    soon as its last facet is assigned.  A Z translation reduces mod 2
    to a GF(2) one, so the relations are necessary over both rings.

    The matrix B whose columns are rank-many independent facet vectors
    of pair1 is inverted once per search: over GF(2) directly, over Z
    as (det B, adj B) by fraction-free elimination.  A bijection sends
    B to the matrix W of the image vectors, and delta = W S B^-1 for a
    diagonal sign pattern S.  Over GF(2), S = I and the relations span
    every linear relation among pair1's vectors, so delta = W B^-1
    carries every vector of a surviving bijection.  Over Z, the mod-2
    relations cannot see signs: the first sign is pinned to +1 (delta
    and -delta give the same sign classes) and the 2^(rank-1) patterns
    are tried in turn.  Pinning the rest from the vectors would save
    little once the relations prune, so it is not done.  Since
    |det delta| = |det W| / |det B| for every S, a bijection with
    |det W| != |det B| is skipped without trying any pattern.  Every
    candidate is verified in full before being returned.  Intended for
    small polytopes; raises SearchCapExceeded when more than
    ``max_bijections`` bijections survive the pruning.
    """
    if pair1.ring != pair2.ring:
        raise RingMismatch("pairs live over different rings")
    if pair1.chi.rank != pair2.chi.rank:
        return None
    if (
        pair1.polytope.is_simplex_lattice()
        and pair2.polytope.is_simplex_lattice()
        and pair1.is_closed()
        and pair2.is_closed()
        and pair1.chi.rank == pair1.polytope.dim == pair2.polytope.dim
    ):
        return _find_simplex_translation(pair1, pair2)

    ring = pair1.ring
    basis = _independent_assigned_facets(pair1)
    if basis is None:
        raise InvalidPair("pair1 has no independent spanning facet set")
    b = _columns(pair1, basis)
    if ring == RING_GF2:
        binv = Gf2Matrix.from_vectors(b).inverse()
    else:
        det_b, adj_b = exactalg.adjugate(b)
    patterns = [(1,) + signs for signs in iproduct((1, -1), repeat=len(basis) - 1)]
    assigned1 = pair1.chi.assigned()
    bits2 = {g: gf2_pack(v) for g, v in pair2.chi.vectors.items()}
    relations = _mod2_relations(pair1)
    relations_of = {
        f: [r for r in relations if f in r] for f in pair1.polytope.facet_ids
    }

    def accept(assignment: dict[str, str], f: str) -> bool:
        if (f in assigned1) != (assignment[f] in bits2):
            return False
        for r in relations_of[f]:
            if all(x in assignment for x in r):
                total = 0
                for x in r:
                    total ^= bits2[assignment[x]]
                if total:
                    return False
        return True

    tried = 0
    for fmap in pair1.polytope.iter_isomorphisms(pair2.polytope, accept):
        tried += 1
        if tried > max_bijections:
            raise SearchCapExceeded(
                f"more than {max_bijections} facet bijections examined"
            )
        w = _columns(pair2, [fmap[f] for f in basis])
        if ring == RING_GF2:
            delta = Gf2Matrix.from_vectors(w).mul(binv).row_tuples()
            t = DeltaTranslation(ring, fmap, delta)
            if verify_delta_translation(pair1, pair2, t):
                return t
            continue
        if abs(exactalg.determinant(w)) != abs(det_b):
            continue
        for s in patterns:
            delta = _divide_exact(_signed(w, s), adj_b, det_b)
            if delta is None:
                continue
            t = DeltaTranslation(ring, fmap, delta)
            if _carries_vectors(pair1, pair2, t) and verify_delta_translation(
                pair1, pair2, t
            ):
                return t
    return None


def orientation_effect(
    t: DeltaTranslation,
    source: CharacteristicPair,
    target: CharacteristicPair,
) -> int:
    """Orientation effect of a translation between Z pairs.

    The sign is det(delta) times the parity of the vertex permutation
    induced by the facet map, measured against the two pairs' declared
    vertex-order data, times the pairs' group signs.
    """
    if t.ring != RING_Z:
        raise RingMismatch("orientation effect is defined for Z translations")
    d = det_sign(t.delta)
    if d == 0:
        raise SingularDelta("delta is singular")

    p, q = source.polytope, target.polytope
    target_index = {fs: i for i, fs in enumerate(q.vertex_facets)}
    src_order = source.order()
    tgt_pos = {v: k for k, v in enumerate(target.order())}
    perm = []
    for i in src_order:
        image = frozenset(t.facet_map[f] for f in p.vertex_facets[i])
        j = target_index.get(image)
        if j is None:
            raise PairError("facet map does not induce a vertex bijection")
        perm.append(tgt_pos[j])
    return d * permutation_sign(perm) * source.group_sign * target.group_sign
