"""Simple convex polytopes: simplices, the truncated simplex Delta_Q written
down by its combinatorial rule, facets, products, faces, isomorphism.

A polytope stores its vertex-facet incidence as integer masks, one per
vertex (bit j is ``facet_ids[j]``; ``facet_position`` maps each id to
its j) and one per facet (bit v is vertex v), with the integer image of
its rational vertex coordinates, if known.  ``exactalg.set_bits`` and
``exactalg.transpose_bits`` read the masks.  The public constructor
parses facet ids into masks; simplices, Delta_Q, facets and products
build theirs directly.  Facet sets, vertex sets and edges are computed
from the masks on first use and cached, faces on each call: a face is
a (dim, facet mask, vertex mask) triple and an edge an (a, b, facet
mask) triple.  Vertices are kept in a canonical order (lexicographic by
coordinates, falling back to sorted facet labels) so that repeated
constructions are bit-identical.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .exactalg import set_bits, transpose_bits


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


def _prepare_by_table(bit: dict[str, int], vertices) -> Optional[tuple[list[int], list, int]]:
    """The vertex masks (``bit`` maps a facet id to its bit), the
    coordinates times the lcm m of their denominators, and m; None when
    a vertex is unrealized, names an unknown facet or lists a facet
    twice, or when anything fails.

    Int and ``Fraction`` coordinates are numbers already.  Otherwise
    each distinct entry is read and scaled once and every row is mapped
    through that table; a ``Fraction`` among them (its hash costs more
    than reading it) sends the rows to ``_read_in_order`` instead.
    """
    try:
        listed = [fids for _, fids in vertices]
        masks = [sum(map(bit.__getitem__, fids)) for fids in listed]
        # a repeated id carries into a higher bit, so the mask holds
        # fewer bits than its list has ids only then
        if sum(map(int.bit_count, masks)) != sum(map(len, listed)):
            return None
        rows = [coords for coords, _ in vertices]
        if None in rows:
            return None
        kinds = set(map(type, chain.from_iterable(rows)))
        if kinds <= {int}:
            return masks, list(map(tuple, rows)), 1
        if kinds <= {int, Fraction}:
            return masks, *_scale_each(rows)
        if Fraction in kinds:
            return None
        read = {
            c: c if type(c) is int else _read_coord(c)
            for c in set(chain.from_iterable(rows))
        }
    except (ArithmeticError, LookupError, TypeError, ValueError):
        # the per-entry route raises what is wrong, in vertex order
        return None
    m = lcm(*(q.denominator for q in read.values()))
    image = {c: m // q.denominator * q.numerator for c, q in read.items()}
    return masks, [tuple(map(image.__getitem__, row)) for row in rows], m


def _read_in_order(bit: dict[str, int], vertices) -> tuple[list[int], list, Optional[int]]:
    """What ``_prepare_by_table`` gives, read entry by entry (the rows
    kept as given and m None when a vertex is unrealized), raising the
    first bad entry or facet: a vertex's coordinates are read before
    its facets are checked."""
    masks, rows = [], []
    for coords, fids in vertices:
        if coords is not None:
            coords = tuple(
                c if type(c) is int or type(c) is Fraction else _read_coord(c) for c in coords
            )
        fset = frozenset(fids)
        unknown = fset - bit.keys()
        if unknown:
            raise UnknownFacet(f"vertex references unknown facets {sorted(unknown)}")
        masks.append(sum(map(bit.__getitem__, fset)))
        rows.append(coords)
    if None in rows:
        return masks, rows, None
    return masks, *_scale_each(rows)


def _label_order(facet_ids: Sequence[str], masks: Sequence[int]) -> list[int]:
    """The vertex positions sorted by their sorted facet labels, the
    order of an unrealized polytope."""
    return sorted(
        range(len(masks)),
        key=lambda i: tuple(sorted(map(facet_ids.__getitem__, set_bits(masks[i])))),
    )


class SimplePolytope:
    """Combinatorial simple polytope with optional rational realization.

    ``facets`` is a list of (id, tag) pairs; each vertex is a pair of
    optional coordinates (ints, ``Fraction``s or strings) and the facet
    ids containing it (an id listed twice counts once).  ``vertex_masks``
    and its transpose ``facet_vertex_masks`` hold the incidence.  A
    realized polytope stores only ``int_coords``, its coordinates times
    the least common multiple ``coord_scale`` of their denominators, in
    vertex order.
    """

    def __init__(
        self,
        dim: int,
        facets: Sequence[tuple[str, str]],
        vertices: Sequence[tuple[Optional[Sequence[int | Fraction | str]], Collection[str]]],
    ):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise PolytopeError(f"dimension {dim!r} is not a nonnegative integer")
        facet_ids = tuple(fid for fid, _ in facets)
        facet_tags = {fid: tag for fid, tag in facets}
        if len(facet_tags) != len(facet_ids):
            raise PolytopeError("duplicate facet ids")
        bit = {fid: 1 << j for j, fid in enumerate(facet_ids)}
        masks, rows, m = _prepare_by_table(bit, vertices) or _read_in_order(bit, vertices)
        if not masks:
            raise PolytopeError("a polytope has at least one vertex")
        if len({len(c) for c in rows if c is not None}) > 1:
            raise PolytopeError("vertex coordinate vectors differ in length")
        if m is None:
            order = _label_order(facet_ids, masks)
            rows = None
        else:
            order = sorted(range(len(rows)), key=rows.__getitem__)
            if len(set(rows)) != len(rows):
                raise PolytopeError("two vertices lie at the same point")
            rows = [rows[i] for i in order]
        self._set_incidence(dim, facet_tags, [masks[i] for i in order], rows, m)

    def _set_incidence(self, dim, facet_tags, masks, rows, scale) -> None:
        """The one initializer: the facet ids are the keys of
        ``facet_tags``, and the vertex masks and the coordinate rows (times
        ``scale``; None when unrealized) come in vertex order.  One gcd
        makes the scale least.  Checks that the facet sets are distinct
        and that the polytope is simple.
        """
        self.dim = dim
        self.facet_ids: tuple[str, ...] = tuple(facet_tags)
        self.facet_tags: dict[str, str] = facet_tags
        self._int_coords: Optional[tuple[tuple[int, ...], ...]] = None
        self.coord_scale: Optional[int] = None
        if rows is not None:
            distinct = set(chain.from_iterable(rows))
            g = gcd(scale, *distinct)
            if g != 1:
                image = {x: x // g for x in distinct}
                rows = [tuple(map(image.__getitem__, c)) for c in rows]
            self.coord_scale = scale // g
            self._int_coords = tuple(rows)
        self.vertex_masks: tuple[int, ...] = tuple(masks)
        if len(set(masks)) != len(masks):
            raise PolytopeError("two vertices lie on the same facet set")
        self.facet_vertex_masks: tuple[int, ...] = transpose_bits(masks, len(facet_tags))
        for i, m in enumerate(masks):
            if m.bit_count() != dim:
                raise NotSimple(f"vertex {i} lies on {m.bit_count()} facets, expected {dim}")
        for fid, fm in zip(facet_tags, self.facet_vertex_masks):
            if fm.bit_count() < dim:
                raise PolytopeError(
                    f"facet {fid} has {fm.bit_count()} vertices, fewer than dim {dim}"
                )

    @classmethod
    def _from_masks(cls, *incidence) -> "SimplePolytope":
        """A polytope stored by ``_set_incidence`` alone."""
        poly = cls.__new__(cls)
        poly._set_incidence(*incidence)
        return poly

    # -- basic accessors ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_masks)

    @property
    def n_facets(self) -> int:
        return len(self.facet_ids)

    @cached_property
    def vertex_facets(self) -> tuple[frozenset[str], ...]:
        """Each vertex's facet ids, read off ``vertex_masks``."""
        ids = self.facet_ids
        return tuple(frozenset(map(ids.__getitem__, set_bits(m))) for m in self.vertex_masks)

    @cached_property
    def facet_position(self) -> dict[str, int]:
        """Each facet id's position j: bit j of a facet mask is that facet."""
        return {fid: j for j, fid in enumerate(self.facet_ids)}

    def _facet_index(self, fid: str) -> int:
        try:
            return self.facet_position[fid]
        except KeyError:
            raise UnknownFacet(fid) from None

    def facet_mask(self, fids: Iterable[str]) -> int:
        """The facet mask with the bit of each id in ``fids`` set."""
        return sum({1 << self._facet_index(fid) for fid in fids})

    @cached_property
    def _facet_vertex_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(set_bits(fm)) for fm in self.facet_vertex_masks)

    def facet_vertices(self, fid: str) -> frozenset[int]:
        """The vertices on facet ``fid``, read off ``facet_vertex_masks``."""
        return self._facet_vertex_sets[self._facet_index(fid)]

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

    # -- faces -------------------------------------------------------------

    def faces_down_to(
        self, min_dim: int, excluded: int = 0
    ) -> tuple[tuple[int, int, int], ...]:
        """The nonempty faces of dimension at least ``min_dim`` whose facet
        mask misses ``excluded``, as (dim, facet mask, vertex mask)
        triples, by dimension, then by ascending vertex list.  The facet
        mask holds the facets containing the face, so the polytope itself
        has 0.

        In a simple polytope k facets that meet cut out one face, of
        dimension dim - k, and every face is cut out by the facets
        containing it.  So the facet sets outside ``excluded`` are built
        level by level, each extended only by facets of higher position
        and only while its facets still meet, down to dimension
        ``min_dim``, and are filed by vertex mask with the first set
        found kept: the smallest, lexicographically first one, as a walk
        of the subsets of each vertex's facets would keep.  Nothing is
        cached.

        Two faces of one dimension are never nested, so their ascending
        vertex lists first differ at the lowest vertex where their masks
        differ, and the list holding it comes first: that is descending
        order of the bit-reversed masks (vertex 0 highest).
        """
        fmasks = self.facet_vertex_masks
        all_mask = (1 << self.n_vertices) - 1
        found: dict[int, tuple[int, int]] = {}  # vertex mask -> (dim, facet mask)
        if min_dim <= self.dim:
            found[all_mask] = (self.dim, 0)
        free = [(1 << j, fm) for j, fm in enumerate(fmasks) if not excluded >> j & 1]
        level = [(0, all_mask, 0)]  # (facet mask, vertex mask, next index into free)
        for dim in range(self.dim - 1, max(min_dim, 0) - 1, -1):
            deeper = []
            for sub, vm, start in level:
                for i in range(start, len(free)):
                    bit, fm = free[i]
                    m = vm & fm
                    if m:
                        deeper.append((sub | bit, m, i + 1))
                        if m not in found:
                            found[m] = (dim, sub | bit)
            level = deeper
        top = 1 << self.n_vertices
        return tuple(
            sorted(
                ((dim, fm, vm) for vm, (dim, fm) in found.items()),
                key=lambda f: (f[0], -int(bin(f[2] | top)[:2:-1], 2)),
            )
        )

    @cached_property
    def edge_masks(self) -> tuple[tuple[int, int, int], ...]:
        """Each edge as (a, b, facet mask) with a < b, sorted by (a, b).

        A vertex with facet mask m lies on the edge cut out by m ^ b for
        each set bit b of m, so filing every vertex under those keys
        pairs them up.  The bits are walked here, not by ``set_bits``:
        its list and a second loop made the n = 12 Delta_Q take 1.5 times
        as long.
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
        for dim, _, _ in self.faces_down_to(0):
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
                bits = set_bits(m)
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
        of vertex i's.  None when the vertex counts differ, when a facet
        is not sent to a facet of ``other``, or when some image is not a
        vertex of ``other`` or is the image of two vertices.  Row g of
        the sent incidence is the union of the vertex masks of the facets
        sent to g, and its transpose is every vertex's image mask at once.
        """
        if self.n_vertices != other.n_vertices:
            return None
        sent = [0] * other.n_facets
        for fid, fm in zip(self.facet_ids, self.facet_vertex_masks):
            g = other.facet_position.get(fmap.get(fid))
            if g is None:
                return None
            sent[g] |= fm
        index = {m: i for i, m in enumerate(other.vertex_masks)}
        images = tuple(map(index.get, transpose_bits(sent, self.n_vertices)))
        if None in images or len(set(images)) != len(images):
            return None
        return images

    def is_simplex_lattice(self) -> bool:
        """Whether the face lattice is a simplex's: dim + 1 facets give all
        dim + 1 vertices.  Each vertex lies on dim facets and every facet
        holds at least dim vertices; were the vertex off facet j missing,
        the dim facets through it would each hold at most dim - 1."""
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
    containing vertex A_j.  Sorted by coordinates the vertices run
    A_n, ..., A_0.
    """
    if n < 1:
        raise PolytopeError("simplex dimension must be >= 1")
    order = range(n, -1, -1)
    rows = [tuple(int(i == j) for i in range(n + 1)) for j in order]
    masks = [(1 << n + 1) - 1 ^ 1 << j for j in order]
    tags = {f"d{j}": "original" for j in range(n + 1)}
    return SimplePolytope._from_masks(n, tags, masks, rows, 1)


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
    # bits n + 1, n + 2 and n + 3 are p1, p2 and p3
    cut_of = [1 << n + 1] * half + [1 << n + 3] + [1 << n + 2] * half
    scale = lcm(r1.denominator, r2.denominator)
    t1, t2 = (scale // r.denominator * r.numerator for r in (r1, r2))
    vertices = []
    for i, cut in enumerate(cut_of):
        t = t1 if i == half else t2
        for j, other in enumerate(cut_of):
            if other != cut:
                coords = [0] * (n + 1)
                coords[i], coords[j] = scale - t, t
                vertices.append((tuple(coords), (1 << n + 1) - 1 ^ 1 << i ^ 1 << j | cut))
    rows, masks = zip(*sorted(vertices))
    tags = {f"d{l}": "original" for l in range(n + 1)} | dict.fromkeys(("p1", "p2", "p3"), "cut")
    return SimplePolytope._from_masks(n, tags, masks, rows, scale)


def facet_polytope(poly: SimplePolytope, fid: str) -> SimplePolytope:
    """A facet as an (n-1)-dimensional simple polytope.

    Its facets are the nonempty intersections with the other facets of
    the parent; facet identifiers are preserved.  Its vertices keep the
    parent's order, still sorted by coordinates, or by labels less the
    shared ``fid``; their masks drop the bits of ``fid`` and of the
    facets that miss it.
    """
    j = poly._facet_index(fid)
    fmasks = poly.facet_vertex_masks
    kept = [g for g, fm in enumerate(fmasks) if g != j and fm & fmasks[j]]
    dropped = [g for g in reversed(range(poly.n_facets)) if g not in kept]
    vertices = set_bits(fmasks[j])
    masks = []
    for m in map(poly.vertex_masks.__getitem__, vertices):
        for g in dropped:
            m = m & ((1 << g) - 1) | (m >> g + 1) << g
        masks.append(m)
    tags = {g: poly.facet_tags[g] for g in map(poly.facet_ids.__getitem__, kept)}
    rows = None if poly._int_coords is None else [poly._int_coords[v] for v in vertices]
    return SimplePolytope._from_masks(poly.dim - 1, tags, masks, rows, poly.coord_scale)


def product(p: SimplePolytope, q: SimplePolytope) -> SimplePolytope:
    """Product polytope; facets are facet x Q and P x facet.  Realized,
    the vertices (i, j) are sorted in the order of (i, j)."""
    tags = {f"L.{f}": p.facet_tags[f] for f in p.facet_ids}
    tags |= {f"R.{f}": q.facet_tags[f] for f in q.facet_ids}
    masks = [a | b << p.n_facets for a in p.vertex_masks for b in q.vertex_masks]
    if not (p.has_coords() and q.has_coords()):
        masks = [masks[i] for i in _label_order(tuple(tags), masks)]
        return SimplePolytope._from_masks(p.dim + q.dim, tags, masks, None, None)
    scale = lcm(p.coord_scale, q.coord_scale)
    left = [tuple(scale // p.coord_scale * x for x in row) for row in p.int_coords]
    right = [tuple(scale // q.coord_scale * y for y in row) for row in q.int_coords]
    rows = [a + b for a in left for b in right]
    return SimplePolytope._from_masks(p.dim + q.dim, tags, masks, rows, scale)
