"""Homology machinery: index counting and a brute-force cell oracle.

Two independent routes are provided.  The torus-side relative homology
table comes from counting vertex indices of a generic linear functional
on the truncated simplex.  The involution-side spaces are built
outright as finite regular CW complexes (one cell per coset and face)
whose chain complexes are handed to exact Smith normal form or GF(2)
rank computations.  The two routes cross-check each other wherever both
apply.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .charpair import RING_GF2, RING_Z, CharacteristicFunction, CharacteristicPair
from .exactalg import gf2_basis, gf2_pack, unit_pivot_elimination
from .polytope import Face, SimplePolytope


class CellularError(ValueError):
    pass


class TieError(CellularError):
    """The functional fails to distinguish two vertices."""


class StrictModeViolation(CellularError):
    pass


class ConsistencyError(CellularError):
    """Two independent computations of the same quantity disagree."""


# Largest n = 2k at which the certificate and the orientability check
# run the brute-force oracle by default.
ORACLE_MAX_N = 6


# ---------------------------------------------------------------------------
# linear functionals and vertex indices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFunctional:
    """Integer or rational coefficients on the ambient coordinates, with its seed."""

    coeffs: tuple[int | Fraction, ...]
    seed: Optional[int] = None

    def value(self, point: Sequence[Fraction]) -> Fraction:
        return sum(c * x for c, x in zip(self.coeffs, point))


def _scaled_values(poly: SimplePolytope, functional: LinearFunctional) -> list:
    """The functional at each vertex times ``poly.coord_scale`` > 0,
    which keeps their order and their ties."""
    return [sum(c * x for c, x in zip(functional.coeffs, p)) for p in poly.int_coords]


def draw_functional(poly: SimplePolytope, seed: int = 0) -> LinearFunctional:
    """Seeded integer functional distinguishing all vertices.

    Coefficients are drawn uniformly from [-10^6, 10^6]; draws with a
    tie are rejected and redrawn from the same stream, so the result is
    deterministic in the seed.
    """
    if not poly.has_coords():
        raise CellularError("polytope has no rational realization")
    ambient = len(poly.vertex_coords[0])
    rng = random.Random(seed)
    while True:
        coeffs = tuple(rng.randint(-10**6, 10**6) for _ in range(ambient))
        func = LinearFunctional(coeffs, seed)
        values = _scaled_values(poly, func)
        if len(set(values)) == len(values):
            return func


def distinguished_functional(poly: SimplePolytope, n: int, seed: int = 0) -> LinearFunctional:
    """Deterministic functional whose maximum sits on the distinguished edge.

    The maximizing vertex is the p2-endpoint of the trimmed edge between
    the vertices A_0 and A_{n/2 + 1} of the parent simplex, the
    normalization used for the explicit top boundary computation.
    """
    target_facets = frozenset(
        f"d{i}" for i in range(n + 1) if i not in (0, n // 2 + 1)
    ) | {"p2"}
    target = next(
        (
            i
            for i, fs in enumerate(poly.vertex_facets)
            if fs == target_facets
        ),
        None,
    )
    if target is None:
        raise CellularError("distinguished edge endpoint not found")
    for attempt in range(10_000):
        func = draw_functional(poly, seed * 10_007 + attempt)
        values = _scaled_values(poly, func)
        if max(range(len(values)), key=values.__getitem__) == target:
            return func
    raise CellularError("no functional found with the distinguished maximum")


@dataclass(frozen=True)
class IndexProfile:
    """Vertex indices and the old-edge pairs of one functional."""

    functional: LinearFunctional
    ind: tuple[int, ...]
    pairs: dict[int, tuple[tuple[int, frozenset[int]], ...]]  # j -> ((v, edge), ...)
    old_edges: tuple[frozenset[int], ...]
    new_edges: tuple[frozenset[int], ...]

    def index_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for i in self.ind:
            counts[i] = counts.get(i, 0) + 1
        return counts

    def pair_counts(self) -> dict[int, int]:
        return {j: len(ps) for j, ps in self.pairs.items() if ps}

    def to_json_dict(self) -> dict:
        return {
            "seed": self.functional.seed,
            "indices": list(self.ind),
            "pairs": {
                str(j): [[v, sorted(e)] for v, e in ps]
                for j, ps in sorted(self.pairs.items())
                if ps
            },
            "old_edges": [sorted(e) for e in self.old_edges],
        }


def vertex_indices(
    poly: SimplePolytope, functional: LinearFunctional, *, strict: bool = True
) -> IndexProfile:
    """Directed 1-skeleton data of a generic functional.

    Each edge is oriented toward the larger functional value; ind(v)
    counts inward edges.  An edge is old when it lies on dim-1 facets
    tagged original, i.e. it is the trimmed edge of a parent simplex
    edge.  For j >= 1 the pairs (v, e) collect vertices of index j whose
    inward edge e is old.  Strict mode insists every vertex lies on
    exactly one old edge, which holds for the truncated family.
    """
    values = _scaled_values(poly, functional)
    if len(set(values)) != len(values):
        raise TieError("functional does not distinguish the vertices")
    edges = poly.edges
    nv = poly.n_vertices
    indegree = [0] * nv
    old_inward: list[list[frozenset[int]]] = [[] for _ in range(nv)]
    old_edges, new_edges = [], []
    for e in edges:
        a, b = sorted(e.vertices)
        head = a if values[a] > values[b] else b
        indegree[head] += 1
        originals = sum(1 for f in e.facets if poly.facet_tags.get(f) == "original")
        if originals == poly.dim - 1:
            old_edges.append(e.vertices)
            old_inward[head].append(e.vertices)
        else:
            new_edges.append(e.vertices)

    if strict:
        per_vertex = [0] * nv
        for e in old_edges:
            for v in e:
                per_vertex[v] += 1
        bad = [v for v, c in enumerate(per_vertex) if c != 1]
        if bad:
            raise StrictModeViolation(
                f"vertices {bad} do not lie on exactly one old edge"
            )

    pairs: dict[int, list[tuple[int, frozenset[int]]]] = {
        j: [] for j in range(1, poly.dim + 1)
    }
    for v in range(nv):
        for e in old_inward[v]:
            pairs[indegree[v]].append((v, e))
    if strict:
        seen_vertices = [v for ps in pairs.values() for v, _ in ps]
        if len(seen_vertices) != len(set(seen_vertices)):
            raise StrictModeViolation("a vertex contributes two index pairs")

    return IndexProfile(
        functional=functional,
        ind=tuple(indegree),
        pairs={j: tuple(ps) for j, ps in pairs.items()},
        old_edges=tuple(old_edges),
        new_edges=tuple(new_edges),
    )


HomologyTable = dict[int, tuple[int, tuple[int, ...]]]


def homology_w_rel_boundary(fam, functional: LinearFunctional) -> HomologyTable:
    """Relative homology table of the torus-side total space of a Z family.

    ``index_table`` of the functional's index profile.
    """
    if fam.ring != RING_Z:
        raise CellularError("the index-count table applies to the Z family")
    return index_table(vertex_indices(fam.polytope, functional), fam.n)


def index_table(profile: IndexProfile, n: int) -> HomologyTable:
    """Relative homology table read off the index profile of a Z family.

    Degree 0 carries the basepoint class; degree 2j-1 is free of rank
    the number of index-j old-edge pairs; every other degree vanishes.
    The table runs over degrees 0 .. 2n-1.
    """
    counts = profile.pair_counts()
    if counts.get(n, 0) != 1:
        raise ConsistencyError("top index count is not 1")
    table: HomologyTable = {d: (0, ()) for d in range(2 * n)}
    table[0] = (1, ())
    for j, c in counts.items():
        table[2 * j - 1] = (c, ())
    return table


def table_to_json(table: HomologyTable) -> list[dict]:
    return [
        {"degree": d, "betti": table[d][0], "torsion": list(table[d][1])}
        for d in sorted(table)
    ]


# ---------------------------------------------------------------------------
# quotient CW complexes
# ---------------------------------------------------------------------------

def _reduce_coset(g: int, basis: tuple[int, ...]) -> int:
    """The representative of g + span(basis) with zero bits at the keys.

    ``basis`` is a ``gf2_basis`` in ascending key order.  Its vector of
    key c is zero below bit c, so clearing bit c leaves the lower keys
    clear and the result is unique in the coset.
    """
    for b in basis:
        low = b & -b
        if g & low:
            g ^= b
    return g


@dataclass(frozen=True)
class QuotientCWComplex:
    """Cells (coset, face) of a quotient of group x polytope.

    Identifications act only on the group coordinate, so every closed
    cell embeds and the incidence numbers are the polytope's own.
    """

    polytope: SimplePolytope
    group_rank: int
    cells: tuple[tuple[tuple[int, int], ...], ...]  # per dim: (face_index, coset)
    face_list: tuple[Face, ...]
    face_basis: tuple[tuple[int, ...], ...]  # XOR basis of G_F per face, ascending keys
    relative_to: frozenset[str]

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(c) for d, c in enumerate(self.cells))


def build_quotient_complex(
    poly: SimplePolytope,
    beta: CharacteristicFunction,
    boundary_facets: Iterable[str] = (),
) -> QuotientCWComplex:
    """Cells of the GF(2) quotient space, optionally relative.

    The isotropy subgroup of a face is spanned by the vectors of its
    assigned facets.  With ``boundary_facets`` given, faces contained in
    any of them are dropped, which computes the pair relative to that
    part of the boundary.
    """
    if beta.ring != RING_GF2:
        raise CellularError("quotient complexes are built from GF(2) data")
    rank = beta.rank
    excluded = frozenset(boundary_facets)
    faces = [f for f in poly.faces if not (f.facets & excluded)]
    face_basis = []
    by_dim: list[list[tuple[int, int]]] = [[] for _ in range(poly.dim + 1)]
    for idx, f in enumerate(faces):
        keyed = gf2_basis(
            gf2_pack(beta.vectors[fid]) for fid in sorted(f.facets) if fid in beta.vectors
        )
        basis = tuple(keyed[c] for c in sorted(keyed))
        face_basis.append(basis)
        # the representatives are the g with zero bits at the keys
        reps = [0]
        for c in range(rank):
            if c not in keyed:
                reps += [g | 1 << c for g in reps]
        if any(_reduce_coset(g, basis) != g for g in reps):
            raise ConsistencyError("a coset representative is not reduced")
        for g in reps:
            by_dim[f.dim].append((idx, g))
    for d in range(poly.dim + 1):
        by_dim[d].sort()
    return QuotientCWComplex(
        polytope=poly,
        group_rank=rank,
        cells=tuple(tuple(c) for c in by_dim),
        face_list=tuple(faces),
        face_basis=tuple(face_basis),
        relative_to=excluded,
    )


# -- combinatorial incidence -------------------------------------------------
#
# A face F_S is oriented so that the inward normals of its facets S,
# sorted by their position in ``facet_ids``, followed by the frame of F_S
# give the ambient orientation.  Moving the new normal n_j past the
# normals of S that come after it gives
# [F_S : F_{S+j}] = -(-1)^(number of s in S after j).  A vertex has no
# frame, so its incidences also carry the sign eps_v of its sorted
# normals, fixed by making every edge boundary sum to zero.

def _vertex_signs(
    poly: SimplePolytope, sign: Callable[[frozenset[str], str], int]
) -> list[int]:
    """eps_v from one walk over the edges from vertex 0, every edge checked."""
    links: list[list[tuple[int, int]]] = [[] for _ in range(poly.n_vertices)]
    for e in poly.edges:
        a, b = sorted(e.vertices)
        (ja,) = poly.vertex_facets[a] - e.facets
        (jb,) = poly.vertex_facets[b] - e.facets
        ratio = -sign(e.facets, ja) * sign(e.facets, jb)
        links[a].append((b, ratio))
        links[b].append((a, ratio))
    eps: list[Optional[int]] = [None] * poly.n_vertices
    eps[0] = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for w, ratio in links[v]:
            if eps[w] is None:
                eps[w] = ratio * eps[v]
                stack.append(w)
            elif eps[w] != ratio * eps[v]:
                raise ConsistencyError(f"edge {{{v}, {w}}} has a nonzero boundary")
    if None in eps:
        raise ConsistencyError("the vertex graph is disconnected")
    return eps


def _face_boundaries(cw: QuotientCWComplex) -> dict[int, list[tuple[int, int]]]:
    """Face index -> [(subface index, incidence number)] over ``cw.face_list``.

    Subfaces dropped by a relative complex are skipped; the vertex signs
    come from the whole polytope, whose vertices the complex may drop.
    """
    poly = cw.polytope
    pos = {fid: i for i, fid in enumerate(poly.facet_ids)}

    def sign(facets: frozenset[str], j: str) -> int:
        after = sum(1 for s in facets if pos[s] > pos[j])
        return 1 if after % 2 else -1

    eps = _vertex_signs(poly, sign)
    index = {f.facets: i for i, f in enumerate(cw.face_list)}
    boundaries: dict[int, list[tuple[int, int]]] = {}
    for fi, face in enumerate(cw.face_list):
        if face.dim == 0:
            continue
        subs = []
        for j in poly.facet_ids:
            if j in face.facets or (gi := index.get(face.facets | {j})) is None:
                continue
            s = sign(face.facets, j)
            if face.dim == 1:
                (v,) = cw.face_list[gi].vertices
                s *= eps[v]
            subs.append((gi, s))
        boundaries[fi] = subs
    return boundaries


SparseMatrix = list[dict[int, int]]


@dataclass(frozen=True)
class ChainComplex:
    """Graded boundary matrices: row r of ``boundaries[d]`` is the
    boundary of the r-th d-cell, as a sparse map into (d-1)-cells."""

    ring: str
    cell_counts: tuple[int, ...]
    boundaries: tuple[SparseMatrix, ...]  # index d: C_d -> C_{d-1}; entry 0 empty

    @property
    def dim(self) -> int:
        return len(self.cell_counts) - 1


def chain_complex(cw: QuotientCWComplex, ring: str = RING_Z) -> ChainComplex:
    """Boundary matrices of the quotient complex, with d o d == 0 verified.

    Cell boundaries carry the polytope's incidence numbers, read off the
    facet order; the group coordinate is reduced into the smaller face's
    coset.
    """
    if ring not in (RING_Z, RING_GF2):
        raise CellularError(f"unknown ring {ring!r}")
    poly = cw.polytope
    face_boundary = _face_boundaries(cw)

    cell_index: list[dict[tuple[int, int], int]] = [
        {cell: i for i, cell in enumerate(cw.cells[d])}
        for d in range(poly.dim + 1)
    ]
    boundaries: list[SparseMatrix] = [[]]
    for d in range(1, poly.dim + 1):
        mat: SparseMatrix = []
        lower = cell_index[d - 1]
        for fi, g in cw.cells[d]:
            row: dict[int, int] = {}
            for gi, sign in face_boundary.get(fi, ()):
                gg = _reduce_coset(g, cw.face_basis[gi])
                col = lower.get((gi, gg))
                if col is None:
                    raise ConsistencyError("boundary cell missing from complex")
                row[col] = row.get(col, 0) + sign
            if ring == RING_GF2:
                row = {c: v % 2 for c, v in row.items() if v % 2}
            else:
                row = {c: v for c, v in row.items() if v}
            mat.append(row)
        boundaries.append(mat)

    cc = ChainComplex(
        ring=ring,
        cell_counts=cw.cell_counts(),
        boundaries=tuple(boundaries),
    )
    _verify_d_squared(cc)
    return cc


def _verify_d_squared(cc: ChainComplex) -> None:
    mod = 2 if cc.ring == RING_GF2 else 0
    for d in range(2, cc.dim + 1):
        lower = cc.boundaries[d - 1]
        for row in cc.boundaries[d]:
            acc: dict[int, int] = {}
            for mid, c1 in row.items():
                for low, c0 in lower[mid].items():
                    acc[low] = acc.get(low, 0) + c1 * c0
            for v in acc.values():
                if (v % mod if mod else v) != 0:
                    raise ConsistencyError("d o d != 0: incidence signs broken")


def _eliminate(
    cc: ChainComplex, d: int, skip: frozenset[int]
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Invariant factors of the boundary d (all 1 over GF(2)) with the
    rows in ``skip`` left out, and the pivot columns of the elimination."""
    if cc.cell_counts[d] == 0 or cc.cell_counts[d - 1] == 0:
        return (), frozenset()
    if cc.ring == RING_GF2:
        basis = gf2_basis(
            sum(1 << c for c, v in row.items() if v % 2)
            for r, row in enumerate(cc.boundaries[d])
            if r not in skip
        )
        return (1,) * len(basis), frozenset(basis)
    return unit_pivot_elimination(cc.boundaries[d], cc.cell_counts[d - 1], skip)


def homology(
    cc: ChainComplex, degrees: Optional[Iterable[int]] = None
) -> HomologyTable:
    """Betti numbers (and torsion over Z) of the chain complex.

    One sweep eliminates the boundaries from the top degree down to the
    lowest degree asked for (at least 1).  The pivots of the boundary
    d + 1 sit on d-cells tau, on a block of row combinations that is
    invertible over the ring (unimodular over Z, unit triangular over
    GF(2)).  Since d o d = 0, each row tau of the boundary d is then a
    combination of its other rows, so those rows are skipped: the
    nonzero invariant factors, and the rank, stay the same.  A degree
    with no cells passes no pivots down.
    """
    wanted = sorted(set(degrees)) if degrees is not None else list(range(cc.dim + 1))
    factors: dict[int, tuple[int, ...]] = {}
    skip: frozenset[int] = frozenset()
    for d in range(cc.dim, max(1, min(wanted, default=cc.dim + 1)) - 1, -1):
        factors[d], skip = _eliminate(cc, d, skip)

    table: HomologyTable = {}
    for d in wanted:
        if d < 0 or d > cc.dim:
            table[d] = (0, ())
            continue
        below, above = factors.get(d, ()), factors.get(d + 1, ())
        table[d] = (
            cc.cell_counts[d] - len(below) - len(above),
            tuple(f for f in above if f > 1),
        )
    return table


def euler_characteristic(cc: ChainComplex) -> int:
    return sum((-1) ** d * c for d, c in enumerate(cc.cell_counts))


# ---------------------------------------------------------------------------
# the small cover of a pair: the one oracle route
# ---------------------------------------------------------------------------

def cover_complex(
    pair: CharacteristicPair, ring: str = RING_Z, *, relative: bool = False
) -> ChainComplex:
    """Chain complex of the small cover of ``pair``, with d o d == 0 verified.

    A Z pair is reduced mod 2 first.  With ``relative`` the faces on the
    pair's free facets are dropped, which gives the quotient space
    relative to the part of its boundary over them; a closed pair has
    no such part.
    """
    chi = pair.chi if pair.ring == RING_GF2 else pair.chi.mod2()
    free = frozenset(pair.polytope.facet_ids) - chi.assigned() if relative else ()
    if relative and not free:
        raise CellularError("a closed pair has no free facets to be relative to")
    return chain_complex(build_quotient_complex(pair.polytope, chi, free), ring)


def cover_homology(
    pair: CharacteristicPair,
    ring: str = RING_Z,
    *,
    relative: bool = False,
    degrees: Optional[Iterable[int]] = None,
) -> tuple[HomologyTable, ChainComplex]:
    """Homology table of ``cover_complex`` and the complex itself.

    The relative complex computes reduced homology of the quotient
    space; a relative table reports the unreduced groups, so degree 0
    gains the basepoint class on both rings.
    """
    cc = cover_complex(pair, ring, relative=relative)
    table = homology(cc, degrees)
    if relative and 0 in table:
        betti, torsion = table[0]
        table[0] = (betti + 1, torsion)
    return table, cc


def euler_sides(cc: ChainComplex, profile: IndexProfile) -> tuple[int, int]:
    """Both sides of the Euler identity for the quotient space.

    Left: basepoint plus the alternating cell count of the relative
    complex ``cc``.  Right: basepoint plus the alternating sum of the
    index-pair counts of ``profile``.  A mismatch falsifies the
    bookkeeping.
    """
    pairs = sum((-1) ** j * c for j, c in profile.pair_counts().items())
    return 1 + euler_characteristic(cc), 1 + pairs


def relative_homology_table(fam, degrees=None) -> HomologyTable:
    """Relative integral homology of the total space, basepoint included."""
    return cover_homology(fam.pair, RING_Z, relative=True, degrees=degrees)[0]


def is_orientable_space(fam) -> bool:
    """Orientability of the involution-side total space.

    Three routes must agree: the parity rule (orientable iff n = 4l+2),
    the top boundary coefficient d_n from the reflection count, and for
    n small enough the brute-force top relative homology H_n = Z.
    """
    from .family import reflection_count

    if fam.ring != RING_GF2:
        raise CellularError("orientability applies to the GF(2) family")
    n = fam.n
    formula = n % 4 == 2
    _, d_n = reflection_count(n)
    if (d_n == 0) != formula:
        raise ConsistencyError("d_n parity disagrees with the mod-4 rule")
    if n <= ORACLE_MAX_N:
        oracle = relative_homology_table(fam, degrees=[n])[n] == (1, ())
        if oracle != formula:
            raise ConsistencyError(
                "oracle top homology disagrees with the parity rule"
            )
    return formula


def small_cover_gf2_betti(pair: CharacteristicPair) -> tuple[int, ...]:
    table, cc = cover_homology(pair, RING_GF2)
    return tuple(table[d][0] for d in range(cc.dim + 1))


def small_cover_orientable_oracle(pair: CharacteristicPair) -> bool:
    """Top integral homology H_dim = Z of the closed cover."""
    dim = pair.polytope.dim
    return cover_homology(pair, RING_Z, degrees=[dim])[0][dim] == (1, ())
