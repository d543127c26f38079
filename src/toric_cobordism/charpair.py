"""Characteristic functions over Z (sign classes) and GF(2).

A characteristic pair is a simple polytope together with an assignment
of group vectors to (some of) its facets.  Facets left unassigned are
free: they carry no isotropy and become boundary pieces of the quotient
construction.  Integer vectors are stored as sign-class representatives
(first nonzero entry positive); all comparisons are up to a global sign
per facet.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product as iproduct
from operator import mul, neg
from typing import Callable, Optional, Sequence

from . import exactalg
from .exactalg import (
    DimensionMismatch,
    Matrix,
    as_matrix,
    det_sign,
    gf2_pack,
    is_direct_summand,
    mat_vec,
    unit_coordinate,
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


class SearchCapExceeded(PairError):
    """The translation search hit its cap before finishing."""


class SingularDelta(PairError):
    pass


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _all_integers(v: Sequence) -> bool:
    """``_is_integer`` on every entry, tested once per entry type."""
    return all(issubclass(t, int) and t is not bool for t in set(map(type, v)))


def json_object(data: dict, key: str) -> dict:
    """``data[key]``, which must be a JSON object."""
    value = data[key]
    if not isinstance(value, dict):
        raise InvalidPair(f"{key!r} must be an object, not {type(value).__name__}")
    return value


def normalize_sign_class(vec: Sequence[int]) -> tuple[int, ...]:
    v = tuple(map(int, vec))
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return tuple(map(neg, v))
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
            if not _all_integers(v):
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
    """A polytope with a characteristic function.

    The pair carries no orientation datum: the sign of a gluing is read
    off its group automorphism (``orientation_effect``), and the
    polytope factor is a declared assumption of the certificate.
    """

    polytope: SimplePolytope
    chi: CharacteristicFunction

    def __post_init__(self):
        unknown = self.chi.assigned() - set(self.polytope.facet_ids)
        if unknown:
            raise MissingVector(
                f"vectors on unknown facets {sorted(unknown)}"
            )

    @property
    def ring(self) -> str:
        return self.chi.ring

    def is_closed(self) -> bool:
        return self.chi.assigned() == set(self.polytope.facet_ids)

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


def validate(pair: CharacteristicPair) -> ValidityReport:
    """``validate_pairs`` on one pair."""
    return validate_pairs([pair])[0]


def validate_pairs(pairs: Sequence[CharacteristicPair]) -> list[ValidityReport]:
    """Check the basis condition at every vertex of each pair.

    At each vertex the vectors of its assigned facets must span a
    direct summand (over Z) or an independent subspace (over GF(2)) of
    rank equal to the number of assigned facets there.  Checking
    vertices suffices: every face contains a vertex, and a subset of a
    basis again spans a summand.  A vertex is read as its facet mask
    (``vertex_masks``) restricted to the assigned facets, and each
    distinct restricted mask of a pair is decided once (``_z_failure``,
    ``_gf2_failure``).  The pairs share one verdict table keyed by the
    vectors a verdict reads, so each distinct vector set is tested once
    across all of them, and two pairs that give the same facet ids
    different vectors never share a verdict.  A failure is reported at
    every vertex carrying it.
    """
    verdicts: dict[tuple, Optional[str]] = {}
    reports = []
    for pair in pairs:
        chi, poly = pair.chi, pair.polytope
        position = poly.facet_position
        tagged = [(1 << position[fid], vec) for fid, vec in sorted(chi.vectors.items())]
        assigned = sum(b for b, _ in tagged)
        failure = (_z_failure if chi.ring == RING_Z else _gf2_failure)(chi.rank, tagged, verdicts)
        by_mask: dict[int, Optional[str]] = {0: None}
        failures = []
        for i, mask in enumerate(poly.vertex_masks):
            key = mask & assigned
            if key not in by_mask:
                by_mask[key] = failure(key)
            if by_mask[key]:
                failures.append((i, by_mask[key]))
        reports.append(ValidityReport(
            ok=not failures,
            checked_vertices=poly.n_vertices,
            failures=tuple(failures),
        ))
    return reports


def _z_failure(rank: int, tagged: list, verdicts: dict) -> Callable[[int], Optional[str]]:
    """Why the Z vectors of a facet mask fail, or None.  Each unit +-e_c of
    ``tagged`` (facet bit, vector) is filed once under the bit of c.  A
    mask's unit coordinates are all less those whose facets it lacks; it
    holds more units than unit coordinates iff two share one.  The core
    is decided once per core and unit coordinates."""
    unit_of = {}  # facet bit -> bit of its unit coordinate
    on: dict[int, int] = {}  # coordinate bit -> the unit facets on it
    core = []
    for b, vec in tagged:
        c = unit_coordinate(vec)
        if c is None:
            core.append((b, vec))
        else:
            unit_of[b] = 1 << c
            on[1 << c] = on.get(1 << c, 0) | b
    units, all_coords = sum(unit_of), sum(on)

    def failure(key: int) -> Optional[str]:
        if key.bit_count() > rank:
            return f"{key.bit_count()} assigned vectors exceed group rank"
        coords, lacking = all_coords, units & ~key
        while lacking:
            b = lacking & -lacking
            lacking ^= b
            if not key & on[unit_of[b]]:
                coords &= ~unit_of[b]
        shared = (tuple([vec for b, vec in core if key & b]), coords)
        if shared not in verdicts:
            verdicts[shared] = is_direct_summand(shared[0], rank, coords)
        if verdicts[shared] and (key & units).bit_count() == coords.bit_count():
            return None
        return "facet vectors at this vertex do not span a direct summand"

    return failure


def _gf2_failure(rank: int, tagged: list, verdicts: dict) -> Callable[[int], Optional[str]]:
    """Why the GF(2) vectors of a facet mask fail, or None if they pass;
    each vector is bit packed once, and verdicts are keyed by the packed
    vectors."""
    packed = [(b, gf2_pack(vec)) for b, vec in tagged]

    def failure(key: int) -> Optional[str]:
        vecs = tuple([p for b, p in packed if key & b])
        if len(vecs) > rank:
            return f"{len(vecs)} assigned vectors exceed group rank"
        shared = (RING_GF2, rank, vecs)
        if shared not in verdicts:
            verdicts[shared] = len(exactalg.gf2_basis(vecs)) == len(vecs)
        return None if verdicts[shared] else "facet vectors at this vertex are dependent mod 2"

    return failure


def orientable_small_cover(pair: CharacteristicPair) -> bool:
    """Orientability of the small cover of a valid GF(2) pair.

    True iff some y satisfies <y, beta(F)> = 1 for every assigned facet
    F, which is the basis criterion for orientability: y is a sum of
    the columns of the vectors, solved for the all-ones target.  The
    pair must pass ``validate``; this is not checked here, and on an
    invalid pair the answer means nothing.
    """
    if pair.ring != RING_GF2:
        raise RingMismatch("orientability test needs a GF(2) pair")
    rows = [gf2_pack(pair.chi.vectors[f]) for f in sorted(pair.chi.vectors)]
    columns = exactalg.transpose_bits(rows, pair.chi.rank)
    return exactalg.gf2_solve(columns, [(1 << len(rows)) - 1], len(rows))[0] is not None


def restrict(pair: CharacteristicPair, fid: str) -> CharacteristicPair:
    """Restrict a pair to one of its facets.

    Each facet g of the child polytope is an intersection g cap fid and
    receives the vector assigned to g in the parent.  The result is not
    validated; ``validate`` checks it.
    """
    child = facet_polytope(pair.polytope, fid)
    vectors = {}
    for g in child.facet_ids:
        if g not in pair.chi.vectors:
            raise MissingVector(f"parent facet {g} has no vector to inherit")
        vectors[g] = pair.chi.vectors[g]
    chi = CharacteristicFunction(pair.ring, pair.chi.rank, vectors)
    return CharacteristicPair(child, chi)


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
    """Over Z, |det delta| = 1; over GF(2), delta is square and its
    packed rows have full ``gf2_basis`` rank.  Both hold for the empty
    delta, whose determinant is 1."""
    if ring == RING_GF2:
        rows = [gf2_pack(r) for r in delta if len(r) == len(delta)]
        return len(rows) == len(delta) == len(exactalg.gf2_basis(rows))
    try:
        return abs(exactalg.determinant(delta)) == 1
    except DimensionMismatch:
        return False


def _facet_map_is_isomorphism(
    p: SimplePolytope, q: SimplePolytope, fmap: dict[str, str]
) -> bool:
    if set(fmap) != set(p.facet_ids) or set(fmap.values()) != set(q.facet_ids):
        return False
    if len(set(fmap.values())) != len(fmap):
        return False
    return p.vertex_map(q, fmap) is not None


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
    """rank-many assigned facets whose vectors are independent over the ring:
    in sorted order, each facet independent of those chosen before it.
    Rank 0 gives the empty list."""
    vectors = pair.chi.vectors
    chosen: list[str] = []
    if pair.chi.rank == 0:
        return chosen
    if pair.ring == RING_GF2:
        basis: dict[int, int] = {}

        def independent(fid: str) -> bool:
            return len(exactalg.gf2_basis([gf2_pack(vectors[fid])], basis)) > len(chosen)
    else:

        def independent(fid: str) -> bool:
            rank = len(exactalg.invariant_factors([vectors[f] for f in chosen + [fid]]))
            return rank == len(chosen) + 1

    for fid in sorted(vectors):
        if independent(fid):
            chosen.append(fid)
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
            q, r = divmod(sum(map(mul, row, col)), det)
            if r:
                return None
            out_row.append(q)
        out.append(tuple(out_row))
    return tuple(out)


def _gf2_delta(b_rows: Sequence[int], w: Matrix) -> Matrix:
    """The delta with delta B = W over GF(2), for an invertible B given by
    its packed rows: row i of delta names the rows of B that sum to row
    i of W, so no inverse or product is formed."""
    n = len(b_rows)
    xs = exactalg.gf2_solve(b_rows, map(gf2_pack, w), n)
    return tuple(tuple(x >> j & 1 for j in range(n)) for x in xs)


def _signed(w: Matrix, signs: Sequence[int]) -> Matrix:
    """w with column i multiplied by signs[i]."""
    return tuple(tuple(map(mul, signs, row)) for row in w)


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
    adj(B) v on both sides, so no sign enumeration is needed.  Each
    target (basis, W, det W, and adj(W) v if det W != 0) is built on
    first use, so a search that accepts early builds few of them.
    """
    ring = pair1.ring
    fids1, fids2 = sorted(pair1.polytope.facet_ids), sorted(pair2.polytope.facet_ids)

    @functools.cache  # one cache per search, gone when it returns
    def target(g2: str) -> tuple:
        b2 = [f for f in fids2 if f != g2]
        w = _columns(pair2, b2)
        det2 = u = None
        if ring == RING_Z:
            det2, adj2 = exactalg.adjugate(w)
            if det2:
                u = mat_vec(adj2, pair2.chi.vectors[g2])
        return b2, w, det2, u

    for g1 in fids1:
        b1 = [f for f in fids1 if f != g1]
        v = _columns(pair1, b1)
        if ring == RING_GF2:
            if not _is_invertible(ring, v):
                continue
            v_rows = [gf2_pack(r) for r in v]
        else:
            det1, adj1 = exactalg.adjugate(v)
            if det1 == 0:
                continue
            c = mat_vec(adj1, pair1.chi.vectors[g1])
        for g2 in fids2:
            b2, w, det2, u = target(g2)
            fmap = {f: g for f, g in zip(b1, b2)}
            fmap[g1] = g2
            if ring == RING_GF2:
                delta = _gf2_delta(v_rows, w)
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
    of pair1 is prepared once per search: over GF(2) its rows are
    packed, over Z it is inverted as (det B, adj B) by fraction-free
    elimination.  A bijection sends B to the matrix W of the image
    vectors, and delta = W S B^-1 for a diagonal sign pattern S.  Over
    GF(2), S = I, delta B = W is solved row by row (``_gf2_delta``), and
    the relations span every linear relation among pair1's vectors, so
    delta carries every vector of a surviving bijection.  Over Z, the mod-2
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
        b_rows = [gf2_pack(r) for r in b]
    else:
        det_b, adj_b = exactalg.adjugate(b)
    patterns = [s for s in iproduct((1, -1), repeat=len(basis)) if s[:1] != (-1,)]
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
            t = DeltaTranslation(ring, fmap, _gf2_delta(b_rows, w))
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


def orientation_effect(t: DeltaTranslation) -> int:
    """Orientation effect of a Z translation: the sign of det(delta).

    The sign of a gluing (phi, delta) is its polytope factor times
    det(delta).  The polytope factor is not computed: the certificate
    declares it orientation preserving, one of its listed assumptions
    (ROADMAP item 2, the gluing sign, would compute it).
    """
    if t.ring != RING_Z:
        raise RingMismatch("orientation effect is defined for Z translations")
    d = det_sign(t.delta)
    if d == 0:
        raise SingularDelta("delta is singular")
    return d
