"""Simple convex polytopes: simplices, the truncated simplex Delta_Q written
down by its combinatorial rule, facets, products, faces, isomorphism.

Polytopes are stored combinatorially (vertex-facet incidence) together
with the integer image of their rational vertex coordinates, if known.
Faces, edges, the isomorphism search and induced vertex maps work on
integer masks of the incidences, computed on first use and cached: a
face is a (dim, facet mask, vertex mask) triple and an edge an
(a, b, facet mask) triple, where bit j of a facet mask is
``facet_ids[j]`` and bit v of a vertex mask is vertex v.  Vertices are
kept in a canonical order (lexicographic by coordinates, falling back
to sorted facet labels) so that repeated constructions are
bit-identical.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence


class PolytopeError(ValueError):
    pass


class NotSimple(PolytopeError):
    """A vertex fails to lie on exactly dim facets."""


class UnknownFacet(PolytopeError):
    pass


Coords = tuple[Fraction, ...]

_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _read_coord(c) -> int | Fraction:
    """``Fraction(c)``; an ASCII "p" or "p/q" string skips its parser."""
    m = _PLAIN_RATIONAL.fullmatch(c) if type(c) is str else None
    if m is None:
        return Fraction(c)
    return int(m[1]) if m[2] is None else Fraction(int(m[1]), int(m[2]))


def _scale_each(rows) -> tuple[list[tuple[int, ...]], int]:
    """The rows of read entries times the lcm m of their denominators, and m."""
    m = lcm(*(x.denominator for row in rows for x in row))
    return [tuple(m // x.denominator * x.numerator for x in row) for row in rows], m


def _set_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class SimplePolytope:
    """Combinatorial simple polytope with optional rational realization.

    ``facets`` is a list of (id, tag) pairs; each vertex is a pair of
    optional coordinates (ints, ``Fraction``s or strings, all divided by
    ``denominator``) and the set of facet ids containing it.  A realized
    polytope stores only ``int_coords``, its coordinates times the least
    common multiple ``coord_scale`` of their denominators, in vertex order.
    """

    def __init__(
        self,
        dim: int,
        facets: Sequence[tuple[str, str]],
        vertices: Sequence[tuple[Optional[Sequence[int | Fraction | str]], Iterable[str]]],
        denominator: int = 1,
    ):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise PolytopeError(f"dimension {dim!r} is not a nonnegative integer")
        self.dim = dim
        self.facet_ids: tuple[str, ...] = tuple(fid for fid, _ in facets)
        self.facet_tags: dict[str, str] = {fid: tag for fid, tag in facets}
        if len(self.facet_tags) != len(self.facet_ids):
            raise PolytopeError("duplicate facet ids")

        fsets, rows, m = self._prepare_by_table(vertices) or self._read_in_order(vertices)
        if not fsets:
            raise PolytopeError("a polytope has at least one vertex")
        if len({len(c) for c in rows if c is not None}) > 1:
            raise PolytopeError("vertex coordinate vectors differ in length")
        self._int_coords: Optional[tuple[tuple[int, ...], ...]] = None
        self.coord_scale: Optional[int] = None
        if m is not None:
            order = sorted(range(len(rows)), key=rows.__getitem__)
            if len(set(rows)) != len(rows):
                raise PolytopeError("two vertices lie at the same point")
            # the image is over m * denominator; one gcd makes the scale least
            distinct = set(chain.from_iterable(rows))
            g = gcd(m * denominator, *distinct)
            if g != 1:
                image = {x: x // g for x in distinct}
                rows = [tuple(map(image.__getitem__, c)) for c in rows]
            self.coord_scale = m * denominator // g
            self._int_coords = tuple(rows[i] for i in order)
        else:
            order = sorted(range(len(fsets)), key=lambda i: tuple(sorted(fsets[i])))
        self.vertex_facets: tuple[frozenset[str], ...] = tuple(fsets[i] for i in order)
        if len(set(self.vertex_facets)) != len(self.vertex_facets):
            raise PolytopeError("two vertices lie on the same facet set")

        filed: dict[str, list[int]] = {fid: [] for fid in self.facet_ids}
        for i, fs in enumerate(self.vertex_facets):
            for fid in fs:
                filed[fid].append(i)
        self._facet_vertices = {fid: frozenset(vs) for fid, vs in filed.items()}
        self._check_simple()

    def _prepare_by_table(self, vertices) -> Optional[tuple[list, list[tuple[int, ...]], int]]:
        """The facet sets, the coordinates times the lcm m of their
        denominators, and m; None when a vertex is unrealized or names an
        unknown facet, or when anything fails.

        Int and ``Fraction`` coordinates are numbers already.  Otherwise
        each distinct entry is read and scaled once and every row is mapped
        through that table; a ``Fraction`` among them (its hash costs more
        than reading it) sends the rows to ``_read_in_order`` instead.
        """
        try:
            fsets = [frozenset(fids) for _, fids in vertices]
            rows = [coords for coords, _ in vertices]
            if None in rows or frozenset().union(*fsets) - self.facet_tags.keys():
                return None
            kinds = set(map(type, chain.from_iterable(rows)))
            if kinds <= {int}:
                return fsets, list(map(tuple, rows)), 1
            if kinds <= {int, Fraction}:
                return fsets, *_scale_each(rows)
            if Fraction in kinds:
                return None
            read = {
                c: c if type(c) is int else _read_coord(c)
                for c in set(chain.from_iterable(rows))
            }
        except (ArithmeticError, TypeError, ValueError):
            # the per-entry route raises what is wrong, in vertex order
            return None
        m = lcm(*(q.denominator for q in read.values()))
        image = {c: m // q.denominator * q.numerator for c, q in read.items()}
        return fsets, [tuple(map(image.__getitem__, row)) for row in rows], m

    def _read_in_order(self, vertices) -> tuple[list, list, Optional[int]]:
        """What ``_prepare_by_table`` gives, read entry by entry (the rows
        kept as given and m None when a vertex is unrealized), raising the
        first bad entry or facet: a vertex's coordinates are read before
        its facets are checked."""
        fsets, rows = [], []
        for coords, fids in vertices:
            if coords is not None:
                coords = tuple(
                    c if type(c) is int or type(c) is Fraction else _read_coord(c) for c in coords
                )
            fset = frozenset(fids)
            unknown = fset - self.facet_tags.keys()
            if unknown:
                raise UnknownFacet(f"vertex references unknown facets {sorted(unknown)}")
            fsets.append(fset)
            rows.append(coords)
        if None in rows:
            return fsets, rows, None
        return fsets, *_scale_each(rows)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_facets)

    @property
    def n_facets(self) -> int:
        return len(self.facet_ids)

    def facet_vertices(self, fid: str) -> frozenset[int]:
        try:
            return self._facet_vertices[fid]
        except KeyError:
            raise UnknownFacet(fid) from None

    @cached_property
    def vertex_masks(self) -> tuple[int, ...]:
        """Bit j of vertex v's mask is set when v lies on facet ``facet_ids[j]``."""
        bit = {fid: 1 << j for j, fid in enumerate(self.facet_ids)}
        return tuple(sum(map(bit.__getitem__, fs)) for fs in self.vertex_facets)

    @cached_property
    def facet_vertex_masks(self) -> tuple[int, ...]:
        """Bit v of entry j is set when vertex v lies on facet ``facet_ids[j]``."""
        return tuple(sum(map((1).__lshift__, self._facet_vertices[fid])) for fid in self.facet_ids)

    def has_coords(self) -> bool:
        return self._int_coords is not None

    @property
    def int_coords(self) -> tuple[tuple[int, ...], ...]:
        """Vertex coordinates times ``coord_scale``, in vertex order."""
        if self._int_coords is None:
            raise PolytopeError("polytope has no rational realization")
        return self._int_coords

    @cached_property
    def vertex_coords(self) -> tuple[Optional[Coords], ...]:
        """The coordinates as ``Fraction``s, read off the integer image."""
        if self._int_coords is None:
            return (None,) * self.n_vertices
        return tuple(tuple(Fraction(x, self.coord_scale) for x in p) for p in self._int_coords)

    def _check_simple(self) -> None:
        for i, fs in enumerate(self.vertex_facets):
            if len(fs) != self.dim:
                raise NotSimple(
                    f"vertex {i} lies on {len(fs)} facets, expected {self.dim}"
                )
        for fid in self.facet_ids:
            if len(self._facet_vertices[fid]) < self.dim:
                raise PolytopeError(
                    f"facet {fid} has {len(self._facet_vertices[fid])} vertices,"
                    f" fewer than dim {self.dim}"
                )

    # -- faces -------------------------------------------------------------

    @cached_property
    def faces(self) -> tuple[tuple[int, int, int], ...]:
        """Every nonempty face, including vertices and the polytope itself:
        ``faces_down_to(0)``, computed once."""
        return self.faces_down_to(0)

    def faces_down_to(
        self, min_dim: int, excluded: int = 0
    ) -> tuple[tuple[int, int, int], ...]:
        """The nonempty faces of dimension at least ``min_dim`` whose facet
        mask misses ``excluded``, as (dim, facet mask, vertex mask)
        triples, in the order of ``faces``: by dimension, then by
        ascending vertex list.  The facet mask holds the facets
        containing the face, so the polytope itself has 0.

        In a simple polytope the faces of dimension dim - k through a
        vertex v correspond to the k-subsets of the dim facets at v, so
        enumerating the subsets of size at most dim - min_dim of the
        facets at v outside ``excluded``, per vertex, and deduplicating by
        vertex mask is exhaustive.  Nothing is cached.
        """
        fmasks = self.facet_vertex_masks
        all_mask = (1 << self.n_vertices) - 1
        found: dict[int, tuple[int, int]] = {}  # vertex mask -> (dim, facet mask)
        if min_dim <= self.dim:
            found[all_mask] = (self.dim, 0)
        for vm in self.vertex_masks:
            bits = _set_bits(vm & ~excluded)
            for k in range(1, self.dim - min_dim + 1):
                for sub in combinations(bits, k):
                    m = all_mask
                    for j in sub:
                        m &= fmasks[j]
                    if m not in found:
                        found[m] = (self.dim - k, sum(map((1).__lshift__, sub)))
        return tuple(
            sorted(
                ((dim, fm, vm) for vm, (dim, fm) in found.items()),
                key=lambda f: (f[0], _set_bits(f[2])),
            )
        )

    @cached_property
    def edge_masks(self) -> tuple[tuple[int, int, int], ...]:
        """Each edge as (a, b, facet mask) with a < b, sorted by (a, b).

        A vertex with facet mask m lies on the edge cut out by m ^ b for
        each set bit b of m, so filing every vertex under those keys
        pairs them up.
        """
        found: dict[int, list[int]] = {}
        for v, m in enumerate(self.vertex_masks):
            rest = m
            while rest:
                low = rest & -rest
                found.setdefault(m ^ low, []).append(v)
                rest ^= low
        if any(len(vs) != 2 for vs in found.values()):
            raise PolytopeError("edge with vertex count != 2")
        return tuple(sorted((a, b, key) for key, (a, b) in found.items()))

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * self.dim
        for dim, _, _ in self.faces:
            if dim < self.dim:
                counts[dim] += 1
        return tuple(counts)

    def euler_ok(self) -> bool:
        fv = self.f_vector()
        total = sum((-1) ** i * fi for i, fi in enumerate(fv))
        return total == 1 - (-1) ** self.dim

    def incidence_key(self) -> frozenset[frozenset[str]]:
        """Combinatorial fingerprint: the set of vertex facet-sets."""
        return frozenset(self.vertex_facets)

    # -- isomorphism -------------------------------------------------------

    def _facet_profile(self) -> tuple[list[tuple], list[list[int]]]:
        """Per facet position: its vertex count with the sorted sizes of its
        intersections with the other facets; and the matrix of those sizes."""
        masks = self.facet_vertex_masks
        inter = [[(a & b).bit_count() for b in masks] for a in masks]
        prof = [(row[j], tuple(sorted(row[:j] + row[j + 1:]))) for j, row in enumerate(inter)]
        return prof, inter

    def iter_isomorphisms(
        self,
        other: "SimplePolytope",
        accept: Optional[Callable[[dict[str, str], str], bool]] = None,
    ) -> Iterator[dict[str, str]]:
        """Facet bijections inducing a vertex-lattice isomorphism.

        The backtrack assigns facets in a fixed order.  A candidate must
        meet every assigned facet in as many vertices as its partner
        does, read off the popcount matrices of the two polytopes' facet
        vertex masks.  A vertex is checked as soon as its last facet is
        assigned: the sum of its facets' image bits must be a vertex
        mask of ``other``.  The facet map is injective, so that sum is
        their OR, and distinct vertices have distinct images.
        ``accept(assignment, f)``, if given, is called right after facet
        f is assigned and prunes the subtree when it returns False; the
        bijections yielded are those of the unpruned search that every
        call accepted, in the same order.
        """
        if (
            self.dim != other.dim
            or self.n_facets != other.n_facets
            or self.n_vertices != other.n_vertices
        ):
            return
        prof_p, inter_p = self._facet_profile()
        prof_q, inter_q = other._facet_profile()
        if sorted(prof_p) != sorted(prof_q):
            return

        ids_p, ids_q = self.facet_ids, other.facet_ids
        order = sorted(range(self.n_facets), key=lambda f: (prof_p.count(prof_p[f]), ids_p[f]))
        candidates = [[g for g, pq in enumerate(prof_q) if pq == prof_p[f]] for f in order]
        q_vertex_masks = set(other.vertex_masks)
        depth = [0] * self.n_facets
        for k, f in enumerate(order):
            depth[f] = k
        completed: list[list[list[int]]] = [[] for _ in order]
        for m in self.vertex_masks:
            # a vertex on no facet is the point of a 0-dimensional
            # polytope, and ``other`` then is that point too
            if m:
                bits = _set_bits(m)
                completed[max(depth[f] for f in bits)].append(bits)

        assignment: dict[str, str] = {}
        pairs: list[tuple[int, int]] = []  # the assigned (f, g), in order
        image = [0] * self.n_facets  # 1 << g for each assigned f
        used = [False] * self.n_facets

        def backtrack(k: int) -> Iterator[dict[str, str]]:
            if k == len(order):
                yield dict(assignment)
                return
            f = order[k]
            fid = ids_p[f]
            row_p = inter_p[f]
            for g in candidates[k]:
                if used[g]:
                    continue
                row_q = inter_q[g]
                for f2, g2 in pairs:
                    if row_p[f2] != row_q[g2]:
                        break
                else:
                    image[f] = 1 << g
                    assignment[fid] = ids_q[g]
                    if all(
                        sum(map(image.__getitem__, bits)) in q_vertex_masks
                        for bits in completed[k]
                    ) and (accept is None or accept(assignment, fid)):
                        used[g] = True
                        pairs.append((f, g))
                        yield from backtrack(k + 1)
                        pairs.pop()
                        used[g] = False
                    del assignment[fid]

        yield from backtrack(0)

    def is_combinatorially_isomorphic(
        self, other: "SimplePolytope"
    ) -> Optional[dict[str, str]]:
        return next(self.iter_isomorphisms(other), None)

    def vertex_map(
        self, other: "SimplePolytope", fmap: dict[str, str]
    ) -> Optional[tuple[int, ...]]:
        """The vertex bijection onto ``other`` that the facet map induces.

        Entry i is the vertex of ``other`` whose facet set is the image
        of vertex i's.  None when the vertex counts differ, or when some
        image is not a vertex of ``other`` or is the image of two vertices.
        An image is the sum of its facets' image bits.  A facet sent
        outside ``other`` adds 0, and two facets sent onto one carry, so
        either leaves fewer than dim bits set, which no vertex mask has.
        """
        if self.n_vertices != other.n_vertices:
            return None
        bit = {fid: 1 << j for j, fid in enumerate(other.facet_ids)}
        img = {fid: bit.get(fmap.get(fid), 0) for fid in self.facet_ids}
        index = {m: i for i, m in enumerate(other.vertex_masks)}
        images = tuple(
            index.get(sum(map(img.__getitem__, fs))) for fs in self.vertex_facets
        )
        if None in images or len(set(images)) != len(images):
            return None
        return images

    def is_simplex_lattice(self) -> bool:
        return self.n_facets == self.dim + 1

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "facets": [
                {"id": fid, "tag": self.facet_tags[fid]} for fid in self.facet_ids
            ],
            "vertices": [
                {
                    "coords": [str(c) for c in coords] if coords is not None else None,
                    "facets": sorted(fs),
                }
                for coords, fs in zip(self.vertex_coords, self.vertex_facets)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplePolytope":
        facets = [(f["id"], f.get("tag", "")) for f in data["facets"]]
        vertices = []
        for v in data["vertices"]:
            if not isinstance(v, dict):
                raise PolytopeError(f"vertex {v!r} is not an object")
            vertices.append((v.get("coords"), v["facets"]))
        return cls(data["dim"], facets, vertices)

    def __repr__(self) -> str:
        return (
            f"SimplePolytope(dim={self.dim}, facets={self.n_facets},"
            f" vertices={self.n_vertices})"
        )


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def simplex(n: int) -> SimplePolytope:
    """The n-simplex with vertices the standard basis of R^{n+1}.

    Facet ``d{j}`` is the coordinate hyperplane x_j = 0, the facet not
    containing vertex A_j.
    """
    if n < 1:
        raise PolytopeError("simplex dimension must be >= 1")
    facets = [(f"d{j}", "original") for j in range(n + 1)]
    vertices = []
    for j in range(n + 1):
        coords = [1 if i == j else 0 for i in range(n + 1)]
        vertices.append((coords, {f"d{i}" for i in range(n + 1) if i != j}))
    return SimplePolytope(n, facets, vertices)


def check_truncation_parameters(n: int, r1: Fraction, r2: Fraction) -> None:
    if n < 4 or n % 2 != 0:
        raise PolytopeError("truncation requires even dimension n >= 4")
    if not (0 < r1 < r2 and r1 + 2 * r2 < 1):
        raise PolytopeError(
            "parameters must satisfy 0 < r1 < r2 and r1 + 2*r2 < 1"
        )


def build_delta_Q(
    n: int, r1: Fraction | str = Fraction(1, 6), r2: Fraction | str = Fraction(1, 4)
) -> SimplePolytope:
    """The n-dimensional truncated simplex with cut facets p1, p2, p3.

    The simplex vertices A_0..A_n (coordinates summing to 1) fall into
    three classes, each cut off by one cut facet: A_0..A_{n/2-1} by p1,
    A_{n/2} by p3 and A_{n/2+1}..A_n by p2.  Each edge A_iA_j whose ends
    lie in different classes keeps one vertex next to A_i, at 1 - t in
    coordinate i and t in coordinate j, where t = r1 for i = n/2 and
    t = r2 otherwise.  It lies on every d_l with l not in {i, j} and on
    A_i's cut facet.  These are the 2 (n/2) (n/2 + 2) vertices; all n+1
    original facets survive and the three cut facets are pairwise
    disjoint.  The facet sets do not depend on the choice of valid
    (r1, r2), so neither does the combinatorial type.
    """
    r1, r2 = Fraction(r1), Fraction(r2)
    check_truncation_parameters(n, r1, r2)
    half = n // 2
    cut_of = ["p1"] * half + ["p3"] + ["p2"] * half
    scale = lcm(r1.denominator, r2.denominator)
    t1, t2 = (scale // r.denominator * r.numerator for r in (r1, r2))
    originals = [f"d{l}" for l in range(n + 1)]
    on_all = frozenset(originals)
    vertices = []
    for i, cut in enumerate(cut_of):
        t = t1 if i == half else t2
        for j, other in enumerate(cut_of):
            if other != cut:
                coords = [0] * (n + 1)
                coords[i], coords[j] = scale - t, t
                vertices.append((coords, on_all - {originals[i], originals[j]} | {cut}))
    facets = [(d, "original") for d in originals] + [(p, "cut") for p in ("p1", "p2", "p3")]
    return SimplePolytope(n, facets, vertices, scale)


def facet_polytope(poly: SimplePolytope, fid: str) -> SimplePolytope:
    """A facet as an (n-1)-dimensional simple polytope.

    Its facets are the nonempty intersections with the other facets of
    the parent; facet identifiers are preserved.
    """
    fverts = poly.facet_vertices(fid)
    child_facets = [
        (g, poly.facet_tags[g])
        for g in poly.facet_ids
        if g != fid and poly.facet_vertices(g) & fverts
    ]
    keep = set(g for g, _ in child_facets)
    points = poly._int_coords or (None,) * poly.n_vertices
    vertices = [(points[i], (poly.vertex_facets[i] - {fid}) & keep) for i in sorted(fverts)]
    return SimplePolytope(poly.dim - 1, child_facets, vertices, poly.coord_scale or 1)


def product(p: SimplePolytope, q: SimplePolytope) -> SimplePolytope:
    """Product polytope; facets are facet x Q and P x facet."""
    facets = [(f"L.{fid}", p.facet_tags[fid]) for fid in p.facet_ids] + [
        (f"R.{fid}", q.facet_tags[fid]) for fid in q.facet_ids
    ]
    scale = lcm(p.coord_scale, q.coord_scale) if p.has_coords() and q.has_coords() else None
    vertices = []
    for i in range(p.n_vertices):
        for j in range(q.n_vertices):
            coords = None if scale is None else tuple(
                scale // p.coord_scale * x for x in p.int_coords[i]
            ) + tuple(scale // q.coord_scale * y for y in q.int_coords[j])
            fs = {f"L.{f}" for f in p.vertex_facets[i]} | {
                f"R.{f}" for f in q.vertex_facets[j]
            }
            vertices.append((coords, fs))
    return SimplePolytope(p.dim + q.dim, facets, vertices, scale or 1)
