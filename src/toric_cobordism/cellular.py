"""Homology machinery: index counting and a brute-force cell oracle.

Two independent routes are provided.  The torus-side relative homology
table comes from counting vertex indices of a generic linear functional
on the truncated simplex.  The involution-side spaces are built
outright as finite regular CW complexes (one cell per coset and face)
whose chain complexes are handed to exact Smith normal form or GF(2)
rank computations.  A face is the polytope's (dim, facet mask, vertex
mask) triple, so a subface is found by its facet mask and an isotropy
group by the facet positions it sets: one packed vector per facet
gives each face's group and the one vector each subface's group adds,
by which ``chain_complex`` steps a boundary entry's coset.  Each face
one degree down lists its cells' columns by coset, so a boundary entry
is one read of its subface's list at the stepped coset.
A complex asked for a few degrees enumerates only the faces and builds
only the cells and boundaries those degrees read, down to one boundary
below them, and verifies d o d on every composition it built.  Over
GF(2) one pass per degree builds each boundary row as one bit-packed
int and checks d o d against the packed rows one degree down as it
goes; the elimination reads the same ints.  Over Z the rows are dicts;
the same pass packs each row too and checks d o d mod 2 the same way,
and one signed d o d on the face lattice checks the signs.  A face two
down is reached only along the two orders of its two new facets, so
the packed check puts both paths on one cell and the face check makes
their signs cancel, which is d o d over Z.  The two routes cross-check
each other wherever both apply.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import comb
from numbers import Rational
from operator import itemgetter, mul, xor
from typing import Iterable, Optional, Sequence

from .charpair import RING_GF2, RING_Z, CharacteristicFunction, CharacteristicPair
from .exactalg import gf2_basis, gf2_pack, set_bits, unit_pivot_elimination
from .polytope import SimplePolytope


class CellularError(ValueError):
    pass


class TieError(CellularError):
    """The functional fails to distinguish two vertices."""


class StrictModeViolation(CellularError):
    pass


class ConsistencyError(CellularError):
    """Two independent computations of the same quantity disagree."""


# Largest n = 2k at which a real certificate runs the brute-force oracle.
ORACLE_MAX_N = 6
# Most cells a quotient complex may have; the k = 5 total space has 161,777.
ORACLE_MAX_CELLS = 1 << 22


# ---------------------------------------------------------------------------
# linear functionals and vertex indices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFunctional:
    """Integer coefficients on the ambient coordinates, with its seed."""

    coeffs: tuple[int, ...]
    seed: Optional[int] = None

    def value(self, point: Sequence[Rational]) -> Rational:
        return sum(c * x for c, x in zip(self.coeffs, point))


def _scaled_values(poly: SimplePolytope, functional: LinearFunctional) -> list:
    """The functional at each vertex times ``poly.coord_scale`` > 0,
    which keeps their order and their ties."""
    return [sum(map(mul, functional.coeffs, p)) for p in poly.int_coords]


def draw_functional(poly: SimplePolytope, seed: int = 0) -> LinearFunctional:
    """Seeded integer functional distinguishing all vertices.

    Coefficients are drawn uniformly from [-10^6, 10^6]; draws with a
    tie are rejected and redrawn from the same stream, so the result is
    deterministic in the seed.
    """
    ambient = len(poly.int_coords[0])
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
    on = [f"d{i}" for i in range(n + 1) if i not in (0, n // 2 + 1)] + ["p2"]
    try:
        target = poly.vertex_masks.index(poly.facet_mask(on))
    except ValueError:
        raise CellularError("distinguished edge endpoint not found") from None
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
    pairs: dict[int, tuple[tuple[int, tuple[int, int]], ...]]  # j -> ((v, (a, b)), ...)
    old_edges: tuple[tuple[int, int], ...]  # (a, b) with a < b

    def index_counts(self) -> dict[int, int]:
        return dict(Counter(self.ind))

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

    Each edge of ``poly.edge_masks`` is oriented toward the larger
    functional value; ind(v) counts inward edges.  An edge is old when
    it lies on dim-1 facets tagged original, i.e. it is the trimmed edge
    of a parent simplex edge: its facet mask meets the mask of original
    facets in dim-1 bits.  For j >= 1 the pairs (v, e) collect vertices
    of index j whose inward edge e = (a, b), a < b, is old.  Strict mode
    insists every vertex lies on exactly one old edge, which holds for
    the truncated family, so no vertex then contributes two pairs.
    """
    values = _scaled_values(poly, functional)
    if len(set(values)) != len(values):
        raise TieError("functional does not distinguish the vertices")
    original = poly.facet_mask(fid for fid, tag in poly.facet_tags.items() if tag == "original")
    old_bits = poly.dim - 1
    nv = poly.n_vertices
    indegree = [0] * nv
    old_per_vertex = [0] * nv
    old_inward: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    old_edges = []
    for a, b, mask in poly.edge_masks:
        head = a if values[a] > values[b] else b
        indegree[head] += 1
        if (mask & original).bit_count() == old_bits:
            e = (a, b)
            old_edges.append(e)
            old_inward[head].append(e)
            old_per_vertex[a] += 1
            old_per_vertex[b] += 1

    if strict:
        bad = [v for v, c in enumerate(old_per_vertex) if c != 1]
        if bad:
            raise StrictModeViolation(f"vertices {bad} do not lie on exactly one old edge")

    pairs: dict[int, list[tuple[int, tuple[int, int]]]] = {j: [] for j in range(1, poly.dim + 1)}
    for v in range(nv):
        for e in old_inward[v]:
            pairs[indegree[v]].append((v, e))

    return IndexProfile(
        functional, tuple(indegree), {j: tuple(ps) for j, ps in pairs.items()}, tuple(old_edges)
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

    Each vector of ``basis`` is zero at the keys (low bits) of the ones
    before it, so clearing the keys in turn leaves the earlier ones
    clear, and no nonzero vector of the span is zero at every key.
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
    cell embeds and the incidence numbers are the polytope's own.  The
    faces are the polytope's (dim, facet mask, vertex mask) triples
    that the complex keeps, in the order of ``SimplePolytope.faces_down_to``.
    """

    polytope: SimplePolytope
    group_rank: int
    cells: tuple[tuple[tuple[int, int], ...], ...]  # per dim: (face_index, coset)
    face_list: tuple[tuple[int, int, int], ...]  # (dim, facet mask, vertex mask)
    face_basis: tuple[tuple[int, ...], ...]  # XOR basis of G_F per face, as _reduce_coset reads it
    facet_vectors: tuple[int, ...]  # lambda_j bit packed, per facet position
    min_dim: int = 0  # cells below this dimension are not built

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


def _cell_floor(poly: SimplePolytope, rank: int, excluded: int, min_dim: int) -> int:
    """A lower bound on the cells of a quotient complex, from one vertex.

    The kept faces through a vertex v are cut out by the subsets S of
    its m_v facets outside the facet mask ``excluded`` with
    |S| <= dim - min_dim, and each carries at least 2^(rank - |S|)
    cells, since rank G_S <= |S| even on an invalid pair.  The bound is
    the largest such sum.
    """
    return max(
        sum(comb(m, c) << max(0, rank - c) for c in range(min(m, poly.dim - min_dim) + 1))
        for m in {(mask & ~excluded).bit_count() for mask in poly.vertex_masks}
    )


def build_quotient_complex(
    poly: SimplePolytope,
    beta: CharacteristicFunction,
    boundary_facets: Iterable[str] = (),
    min_dim: int = 0,
) -> QuotientCWComplex:
    """Cells of the GF(2) quotient space, optionally relative.

    With ``boundary_facets`` given, faces whose facet mask meets theirs
    are dropped, which computes the pair relative to that part of the
    boundary.  Neither those faces nor the faces below ``min_dim`` are
    ever enumerated (``poly.faces_down_to`` walks only the facets
    outside the boundary); the kept faces keep their order, so every
    cell keeps its position in its dimension.  The cells are counted
    before any is built, and a count above ``ORACLE_MAX_CELLS`` raises;
    so do the 2^rank cells of the polytope face and the lower bound
    ``_cell_floor``, both before any face is listed.  Top down, the
    isotropy group G_S of the face cut out by S is G_{S-j} + <lambda_j>
    for j the highest position in S: its basis is the parent's, plus
    lambda_j reduced by it when that is nonzero, whose low bit is a new
    key.  The representatives, the g with no bit at a key (label), are
    listed once per label set.
    """
    if beta.ring != RING_GF2:
        raise CellularError("quotient complexes are built from GF(2) data")
    rank = beta.rank
    if rank >= ORACLE_MAX_CELLS.bit_length():
        raise CellularError(
            f"the complex would have at least 2^{rank} cells,"
            f" more than the ceiling {ORACLE_MAX_CELLS}"
        )
    excluded = poly.facet_mask(boundary_facets)
    floor = _cell_floor(poly, rank, excluded, min_dim)
    if floor > ORACLE_MAX_CELLS:
        raise CellularError(
            f"the complex would have at least {floor} cells,"
            f" more than the ceiling {ORACLE_MAX_CELLS}"
        )
    faces = poly.faces_down_to(min_dim, excluded)
    vectors = tuple(gf2_pack(beta.vectors.get(fid, ())) for fid in poly.facet_ids)
    basis_of: dict[int, tuple[int, ...]] = {0: ()}  # facet mask -> basis
    for _, mask, _ in reversed(faces):
        if mask:
            j = mask.bit_length() - 1
            basis = basis_of[mask ^ 1 << j]
            r = _reduce_coset(vectors[j], basis)
            basis_of[mask] = basis + (r,) if r else basis
    face_basis = tuple(basis_of[mask] for _, mask, _ in faces)
    count = sum(1 << (rank - len(basis)) for basis in face_basis)
    if count > ORACLE_MAX_CELLS:
        raise CellularError(
            f"the complex would have {count} cells, more than the ceiling {ORACLE_MAX_CELLS}"
        )
    by_dim: list[list[tuple[int, int]]] = [[] for _ in range(poly.dim + 1)]
    reps_of: dict[int, list[int]] = {}  # label set -> representatives
    for idx, ((dim, _, _), basis) in enumerate(zip(faces, face_basis)):
        labels = sum(b & -b for b in basis)
        reps = reps_of.get(labels)
        if reps is None:
            # the g with zero bits at the labels, ascending
            reps = reps_of[labels] = [0]
            for c in range(rank):
                if not labels >> c & 1:
                    reps += [g | 1 << c for g in reps]
        by_dim[dim] += [(idx, g) for g in reps]
    return QuotientCWComplex(
        polytope=poly,
        group_rank=rank,
        cells=tuple(tuple(c) for c in by_dim),
        face_list=faces,
        face_basis=face_basis,
        facet_vectors=vectors,
        min_dim=min_dim,
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

def _sign(mask: int, j: int) -> int:
    """[F_S : F_{S+j}] for S the set bits of ``mask``, j a facet position."""
    return 1 if (mask >> (j + 1)).bit_count() & 1 else -1


def _vertex_signs(poly: SimplePolytope) -> list[int]:
    """eps_v from one walk over the edges from vertex 0, every edge checked.

    An edge's facet mask misses one facet of each end, whose position is
    the one bit of that end's vertex mask XOR the edge's.
    """
    links: list[list[tuple[int, int]]] = [[] for _ in range(poly.n_vertices)]
    vm = poly.vertex_masks
    for a, b, mask in poly.edge_masks:
        ja = (vm[a] ^ mask).bit_length() - 1
        jb = (vm[b] ^ mask).bit_length() - 1
        ratio = -_sign(mask, ja) * _sign(mask, jb)
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


SparseMatrix = list[dict[int, int]]


class PackedRow(int):
    """A GF(2) boundary row, bit c set iff column c; ``len`` counts entries."""

    __slots__ = ()
    __len__ = int.bit_count


@dataclass(frozen=True)
class ChainComplex:
    """Graded boundary matrices: row r of ``boundaries[d]`` is the
    boundary of the r-th d-cell, a sparse map into (d-1)-cells over Z
    (its columns in the order of the face's steps, which the unit-pivot
    elimination reads) and a ``PackedRow`` over GF(2), read, never
    modified, once built.

    Only the boundaries of degree ``lowest_degree`` and up are built,
    with the cells they touch; below it the counts and matrices are
    empty placeholders.  A complex with every cell has lowest degree 0.
    """

    ring: str
    cell_counts: tuple[int, ...]
    boundaries: tuple[Sequence, ...]  # index d: C_d -> C_{d-1}; entry 0 empty
    lowest_degree: int = 0

    @property
    def dim(self) -> int:
        return len(self.cell_counts) - 1


def _face_steps(cw: QuotientCWComplex, lowest: int) -> dict[int, list[tuple[int, int, int, int]]]:
    """Face index -> [(subface index, low bit of r, r, incidence)] for
    each face of dimension at least max(1, ``lowest``).

    Incidences are the polytope's, read off the facet order, with the
    whole polytope's vertex signs; subfaces a relative complex drops are
    skipped.  A subface F_{S+j} has G_{S+j} = G_S + <lambda_j>, so r,
    lambda_j reduced by the face's basis, is the one vector it adds (0
    when it adds none), and the low bit of r is its one new key.
    """
    poly = cw.polytope
    eps = _vertex_signs(poly) if lowest <= 1 else None
    index = {mask: i for i, (_, mask, _) in enumerate(cw.face_list)}
    vectors = cw.facet_vectors
    steps: dict[int, list[tuple[int, int, int, int]]] = {}
    for fi, ((dim, mask, _), basis) in enumerate(zip(cw.face_list, cw.face_basis)):
        if dim < max(1, lowest):
            continue
        steps[fi] = subs = []
        for j in range(poly.n_facets):
            if mask >> j & 1 or (gi := index.get(mask | 1 << j)) is None:
                continue
            sign = 1 if (mask >> j + 1).bit_count() & 1 else -1
            if dim == 1:
                sign *= eps[cw.face_list[gi][2].bit_length() - 1]
            r = _reduce_coset(vectors[j], basis)
            subs.append((gi, r & -r, r, sign))
    return steps


def _coset_lists(
    cells: Sequence[tuple[int, int]], faces: Iterable[int], size: int
) -> dict[int, list]:
    """Face index -> a list of ``size`` entries, for each of ``faces``:
    at coset g the column of the cell (face, g) in ``cells``, and None
    at every other g."""
    lists = {fi: [None] * size for fi in faces}
    for col, (fi, g) in enumerate(cells):
        lists[fi][g] = col
    return lists


def _check_face_signs(steps: dict, faces: Iterable[int]) -> None:
    """Raise unless d o d vanishes on the face lattice: from each of
    ``faces``, every face two dimensions down is reached by exactly two
    paths through ``steps``, and their sign products cancel."""
    for fi in faces:
        paths: dict[int, list[int]] = {}
        for gi, _, _, s in steps[fi]:
            for hi, _, _, t in steps[gi]:
                paths.setdefault(hi, []).append(s * t)
        if any(len(signs) != 2 or sum(signs) for signs in paths.values()):
            raise ConsistencyError("d o d != 0: incidence signs broken")


def chain_complex(cw: QuotientCWComplex, ring: str = RING_Z) -> ChainComplex:
    """Boundary matrices of the quotient complex, with d o d == 0 verified.

    One degree at a time, each face of the degree below gets a list of
    2^group_rank entries (``_coset_lists``): at coset g the column of the
    cell (face, g), None elsewhere.  Each face's steps (``_face_steps``)
    are bound to their subfaces' lists once per face.  Along a step the
    coset g lies in the subface's coset ``g ^ r if g & lowbit(r) else
    g``, so an entry is one list read; a None there, or a subface with
    no list one degree down, raises "boundary cell missing from complex",
    and so does a step whose sign is not +-1 (checked once per step).
    Distinct subfaces give distinct cells, so no entry sums two terms
    and over GF(2) no bit is set twice.  On both rings one pass packs
    each row into an int (over GF(2), a ``PackedRow``, the row itself)
    and XORs the packed rows one degree down at its columns; a nonzero
    XOR (d o d != 0 mod 2) raises.  Over Z the pass also fills each row
    dict in step order, a row that reaches a column twice raises, and
    ``_check_face_signs`` then runs d o d on the degree's faces.  A face
    two down is reached only along the two orders of its two new facets,
    and cells of distinct faces are distinct columns, so the XOR
    vanishes iff both paths land on one cell, and then their signs
    cancel iff the face check holds: the verdict of ``_verify_d_squared``.
    Cells from ``cw.min_dim`` > 0 up give boundaries from degree
    ``min_dim + 1`` up.
    """
    if ring not in (RING_Z, RING_GF2):
        raise CellularError(f"unknown ring {ring!r}")
    rank = cw.group_rank
    lowest = cw.min_dim + 1 if cw.min_dim else 0
    steps = _face_steps(cw, lowest)
    if not set(map(itemgetter(3), chain.from_iterable(steps.values()))) <= {1, -1}:
        raise ConsistencyError("an incidence sign is not +-1")
    counts = cw.cell_counts()
    first = max(1, lowest)
    boundaries: list = [()] * first
    faces_at: list[list[int]] = [[] for _ in counts]
    for fi, (dim, _, _) in enumerate(cw.face_list):
        faces_at[dim].append(fi)
    missing = [None] * (1 << rank)  # the list of a subface with no cell one degree down
    below: Sequence[int] = (0,) * counts[first - 1]  # packed rows one degree down, or zeros
    for d in range(first, cw.polytope.dim + 1):
        lists = _coset_lists(cw.cells[d - 1], faces_at[d - 1], 1 << rank)
        bound = {  # each face's steps, bound to their subfaces' coset lists
            fi: [(lists.get(gi, missing), low, r, s) for gi, low, r, s in steps[fi]]
            for fi in faces_at[d]
        }
        bit = [1 << c for c in range(counts[d - 1])]
        packed: list[int] = []
        if ring == RING_Z:
            mat: SparseMatrix = []
            for fi, g in cw.cells[d]:
                row: dict[int, int] = {}
                bits = acc = 0
                subs = bound[fi]
                for table, low, r, sign in subs:
                    col = table[g ^ r if g & low else g]
                    if col is None:
                        raise ConsistencyError("boundary cell missing from complex")
                    row[col] = sign
                    bits |= bit[col]
                    acc ^= below[col]
                if len(row) != len(subs):
                    raise ConsistencyError("a boundary cell is reached twice")
                if acc:
                    raise ConsistencyError("d o d != 0: incidence signs broken")
                mat.append(row)
                packed.append(bits)
            if d > first:
                _check_face_signs(steps, faces_at[d])
            boundaries.append(mat)
        else:
            for fi, g in cw.cells[d]:
                bits = acc = 0
                for table, low, r, _ in bound[fi]:
                    col = table[g ^ r if g & low else g]
                    if col is None:
                        raise ConsistencyError("boundary cell missing from complex")
                    bits |= bit[col]
                    acc ^= below[col]
                if acc:
                    raise ConsistencyError("d o d != 0: incidence signs broken")
                packed.append(PackedRow(bits))
            boundaries.append(tuple(packed))
        below = packed
    return ChainComplex(ring, counts, tuple(boundaries), lowest)


def _signed_columns(row: dict[int, int]) -> tuple[list[int], list[int]]:
    """The columns of ``row`` with a positive and with a negative entry,
    each repeated |entry| times."""
    plus: list[int] = []
    minus: list[int] = []
    for col, c in row.items():
        if c == 1:
            plus.append(col)
        elif c == -1:
            minus.append(col)
        else:
            (plus if c > 0 else minus).extend([col] * abs(c))
    return plus, minus


def _verify_d_squared(cc: ChainComplex) -> None:
    """Raise unless every composition of two built boundaries vanishes.

    ``chain_complex`` checks both rings in its one assembly pass; this
    is the second route, run on rows already built (or built by hand),
    on both rings.  Over GF(2) a row of d o d is the XOR of the packed
    rows one degree down at the row's set bits.  Over Z each row one
    degree down is split once into its signed columns, each repeated
    |entry| times; a row of d o d vanishes iff the columns it reaches
    with + and with -, counted with multiplicity, are the same multiset.
    """
    first = max(2, cc.lowest_degree + 1)
    if cc.ring == RING_GF2:
        for d in range(first, cc.dim + 1):
            lower = cc.boundaries[d - 1]
            for row in cc.boundaries[d]:
                if reduce(xor, map(lower.__getitem__, set_bits(row)), 0):
                    raise ConsistencyError("d o d != 0: incidence signs broken")
        return
    for d in range(first, cc.dim + 1):
        lower = [_signed_columns(row) for row in cc.boundaries[d - 1]]
        for row in cc.boundaries[d]:
            pos: list[int] = []
            neg: list[int] = []
            for mid, c in row.items():
                plus, minus = lower[mid]
                if c == 1:
                    pos += plus
                    neg += minus
                elif c == -1:
                    pos += minus
                    neg += plus
                else:
                    if c < 0:
                        plus, minus = minus, plus
                    for _ in range(abs(c)):
                        pos += plus
                        neg += minus
            if len(pos) != len(neg) or sorted(pos) != sorted(neg):
                raise ConsistencyError("d o d != 0: incidence signs broken")


def _eliminate(
    cc: ChainComplex, d: int, skip: frozenset[int]
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Invariant factors of the boundary d (all 1 over GF(2)) with the
    rows in ``skip`` left out, and the pivot columns of the elimination."""
    if cc.cell_counts[d] == 0 or cc.cell_counts[d - 1] == 0:
        return (), frozenset()
    if cc.ring == RING_GF2:
        basis = gf2_basis(bits for r, bits in enumerate(cc.boundaries[d]) if r not in skip)
        return (1,) * len(basis), frozenset(basis)
    return unit_pivot_elimination(cc.boundaries[d], cc.cell_counts[d - 1], skip)


def homology(
    cc: ChainComplex, degrees: Optional[Iterable[int]] = None
) -> HomologyTable:
    """Betti numbers (and torsion over Z) of the chain complex.

    One sweep eliminates the boundaries from the top degree down to the
    lowest degree asked for (at least 1).  The pivots of the boundary
    d + 1 sit on d-cells tau, on a block of row combinations that is
    unit triangular on both rings, hence invertible.  Since d o d = 0,
    each row tau of the boundary d is then a combination of its other
    rows, so those rows are skipped: the nonzero invariant factors, and
    the rank, stay the same.  A degree with no cells passes no pivots
    down.  A degree from 0 up to below ``cc.lowest_degree`` raises: its
    boundary was never built.
    """
    wanted = sorted(set(degrees)) if degrees is not None else list(range(cc.dim + 1))
    unbuilt = [d for d in wanted if 0 <= d < cc.lowest_degree]
    if unbuilt:
        raise CellularError(
            f"degrees {unbuilt} lie below the lowest built degree {cc.lowest_degree}"
        )
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
    if cc.lowest_degree:
        raise CellularError(f"no cells below degree {cc.lowest_degree - 1} were built")
    return sum((-1) ** d * c for d, c in enumerate(cc.cell_counts))


# ---------------------------------------------------------------------------
# the small cover of a pair: the one oracle route
# ---------------------------------------------------------------------------

def cover_complex(
    pair: CharacteristicPair,
    ring: str = RING_Z,
    *,
    relative: bool = False,
    min_dim: int = 0,
) -> ChainComplex:
    """Chain complex of the small cover of ``pair``, with d o d == 0 verified.

    A Z pair is reduced mod 2 first.  With ``relative`` the faces on the
    pair's free facets are dropped, which gives the quotient space
    relative to the part of its boundary over them; a closed pair has
    no such part.  Cells below ``min_dim`` are not built.
    """
    chi = pair.chi if pair.ring == RING_GF2 else pair.chi.mod2()
    free = frozenset(pair.polytope.facet_ids) - chi.assigned() if relative else ()
    if relative and not free:
        raise CellularError("a closed pair has no free facets to be relative to")
    return chain_complex(build_quotient_complex(pair.polytope, chi, free, min_dim), ring)


def cover_homology(
    pair: CharacteristicPair,
    ring: str = RING_Z,
    *,
    relative: bool = False,
    degrees: Optional[Iterable[int]] = None,
) -> tuple[HomologyTable, ChainComplex]:
    """Homology table of ``cover_complex`` and the complex itself.

    With ``degrees`` given, only the cells of dimension at least
    min(degrees) - 2 are built, so the boundary one degree below the
    lowest degree asked for is built and d o d is verified against it.
    The relative complex computes reduced homology of the quotient
    space; a relative table reports the unreduced groups, so degree 0
    gains the basepoint class on both rings.
    """
    wanted = list(degrees) if degrees is not None else []
    min_dim = max(0, min(wanted, default=0) - 2)
    cc = cover_complex(pair, ring, relative=relative, min_dim=min_dim)
    table = homology(cc, degrees if degrees is None else wanted)
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


def small_cover_gf2_betti(pair: CharacteristicPair) -> tuple[int, ...]:
    table, cc = cover_homology(pair, RING_GF2)
    return tuple(table[d][0] for d in range(cc.dim + 1))


def small_cover_orientable_oracle(pair: CharacteristicPair) -> bool:
    """Top integral homology H_dim = Z of the closed cover."""
    dim = pair.polytope.dim
    return cover_homology(pair, RING_Z, degrees=[dim])[0][dim] == (1, ())
