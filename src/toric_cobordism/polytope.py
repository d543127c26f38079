"""Simple convex polytopes: simplices, truncations, faces, isomorphism.

Polytopes are stored combinatorially (vertex-facet incidence) together
with exact rational vertex coordinates whenever a realization is known.
Vertices are kept in a canonical order (lexicographic by coordinates,
falling back to sorted facet labels) so that repeated constructions are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence


class PolytopeError(ValueError):
    pass


class NotSimple(PolytopeError):
    """A vertex fails to lie on exactly dim facets."""


class UnknownFacet(PolytopeError):
    pass


Coords = tuple[Fraction, ...]


@dataclass(frozen=True)
class Halfspace:
    """Constraint <normal, x> >= offset (or == offset as an equality)."""

    normal: Coords
    offset: Fraction

    def value(self, point: Sequence[Fraction]) -> Fraction:
        return sum(a * x for a, x in zip(self.normal, point)) - self.offset


@dataclass(frozen=True)
class Face:
    """A face given by its defining facet set and its vertex set."""

    dim: int
    facets: frozenset[str]
    vertices: frozenset[int]


class SimplePolytope:
    """Combinatorial simple polytope with optional rational realization.

    ``facets`` is a list of (id, tag) pairs; each vertex is a pair of
    optional coordinates and the set of facet ids containing it.  A
    realized polytope also keeps ``int_coords``, its coordinates times
    ``coord_scale``, the least common multiple of their denominators;
    vertices are sorted and compared by this integer image.
    """

    def __init__(
        self,
        dim: int,
        facets: Sequence[tuple[str, str]],
        vertices: Sequence[tuple[Optional[Sequence[Fraction]], Iterable[str]]],
    ):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise PolytopeError(f"dimension {dim!r} is not a nonnegative integer")
        self.dim = dim
        self.facet_ids: tuple[str, ...] = tuple(fid for fid, _ in facets)
        self.facet_tags: dict[str, str] = {fid: tag for fid, tag in facets}
        if len(self.facet_tags) != len(self.facet_ids):
            raise PolytopeError("duplicate facet ids")

        prepared = []
        for coords, fids in vertices:
            cs = None if coords is None else tuple(
                c if isinstance(c, Fraction) else Fraction(c) for c in coords
            )
            fset = frozenset(fids)
            unknown = fset - self.facet_tags.keys()
            if unknown:
                raise UnknownFacet(f"vertex references unknown facets {sorted(unknown)}")
            prepared.append((cs, fset))
        if len({len(c) for c, _ in prepared if c is not None}) > 1:
            raise PolytopeError("vertex coordinate vectors differ in length")
        self._int_coords: Optional[tuple[tuple[int, ...], ...]] = None
        self.coord_scale: Optional[int] = None
        if all(c is not None for c, _ in prepared):
            self.coord_scale = lcm(*(x.denominator for c, _ in prepared for x in c))
            keyed = sorted(
                [(tuple(self.coord_scale // x.denominator * x.numerator for x in c), c, f)
                 for c, f in prepared],
                key=lambda icf: icf[0],
            )
            if any(a[0] == b[0] for a, b in zip(keyed, keyed[1:])):
                raise PolytopeError("two vertices lie at the same point")
            self._int_coords = tuple(i for i, _, _ in keyed)
            prepared = [(c, f) for _, c, f in keyed]
        else:
            prepared.sort(key=lambda vf: tuple(sorted(vf[1])))
        self.vertex_coords: tuple[Optional[Coords], ...] = tuple(c for c, _ in prepared)
        self.vertex_facets: tuple[frozenset[str], ...] = tuple(f for _, f in prepared)
        if len(set(self.vertex_facets)) != len(self.vertex_facets):
            raise PolytopeError("two vertices lie on the same facet set")

        self._facet_vertices: dict[str, frozenset[int]] = {
            fid: frozenset(
                i for i, fs in enumerate(self.vertex_facets) if fid in fs
            )
            for fid in self.facet_ids
        }
        self._check_simple()

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

    def has_coords(self) -> bool:
        return self._int_coords is not None

    @property
    def int_coords(self) -> tuple[tuple[int, ...], ...]:
        """Vertex coordinates times ``coord_scale``, in vertex order."""
        if self._int_coords is None:
            raise PolytopeError("polytope has no rational realization")
        return self._int_coords

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
    def faces(self) -> tuple[Face, ...]:
        """Every nonempty face, including vertices and the polytope itself.

        In a simple polytope the faces through a vertex v correspond to
        the subsets of the dim facets at v, so enumerating subsets per
        vertex and deduplicating by vertex set is exhaustive.
        """
        masks = {
            fid: sum(1 << i for i in self._facet_vertices[fid])
            for fid in self.facet_ids
        }
        all_mask = (1 << self.n_vertices) - 1
        found: dict[int, Face] = {}
        top = Face(self.dim, frozenset(), frozenset(range(self.n_vertices)))
        found[all_mask] = top
        for i, fs in enumerate(self.vertex_facets):
            flist = sorted(fs)
            for k in range(1, self.dim + 1):
                for sub in combinations(flist, k):
                    mask = 1 << i
                    m = all_mask
                    for fid in sub:
                        m &= masks[fid]
                    if m not in found:
                        found[m] = Face(
                            self.dim - k,
                            frozenset(sub),
                            frozenset(
                                j for j in range(self.n_vertices) if (m >> j) & 1
                            ),
                        )
        return tuple(
            sorted(
                found.values(),
                key=lambda f: (f.dim, tuple(sorted(f.vertices))),
            )
        )

    @cached_property
    def edges(self) -> tuple[Face, ...]:
        """The 1-faces, computed without the full lattice.

        A vertex with facet set S lies on the edge cut out by S - {f} for
        each f in S, so filing every vertex under those keys pairs them up.
        """
        found: dict[frozenset[str], list[int]] = {}
        for i, fs in enumerate(self.vertex_facets):
            for f in fs:
                found.setdefault(fs - {f}, []).append(i)
        if any(len(vs) != 2 for vs in found.values()):
            raise PolytopeError("edge with vertex count != 2")
        return tuple(
            Face(1, key, frozenset(vs))
            for key, vs in sorted(found.items(), key=lambda kv: kv[1])
        )

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * self.dim
        for f in self.faces:
            if f.dim < self.dim:
                counts[f.dim] += 1
        return tuple(counts)

    def euler_ok(self) -> bool:
        fv = self.f_vector()
        total = sum((-1) ** i * fi for i, fi in enumerate(fv))
        return total == 1 - (-1) ** self.dim

    def incidence_key(self) -> frozenset[frozenset[str]]:
        """Combinatorial fingerprint: the set of vertex facet-sets."""
        return frozenset(self.vertex_facets)

    # -- isomorphism -------------------------------------------------------

    def _facet_profile(self) -> dict[str, tuple]:
        sizes = {fid: len(self._facet_vertices[fid]) for fid in self.facet_ids}
        prof = {}
        for fid in self.facet_ids:
            inter = sorted(
                len(self._facet_vertices[fid] & self._facet_vertices[g])
                for g in self.facet_ids
                if g != fid
            )
            prof[fid] = (sizes[fid], tuple(inter))
        return prof

    def iter_isomorphisms(
        self,
        other: "SimplePolytope",
        accept: Optional[Callable[[dict[str, str], str], bool]] = None,
    ) -> Iterator[dict[str, str]]:
        """Facet bijections inducing a vertex-lattice isomorphism.

        The backtrack assigns facets in a fixed order.  A vertex is
        checked as soon as its last facet is assigned: its image must be
        a vertex of ``other``.  The facet map is injective, so distinct
        vertices then have distinct images.  ``accept(assignment, f)``,
        if given, is called right after facet f is assigned and prunes
        the subtree when it returns False; the bijections yielded are
        those of the unpruned search that every call accepted, in the
        same order.
        """
        if (
            self.dim != other.dim
            or self.n_facets != other.n_facets
            or self.n_vertices != other.n_vertices
        ):
            return
        prof_p = self._facet_profile()
        prof_q = other._facet_profile()
        if sorted(prof_p.values()) != sorted(prof_q.values()):
            return

        order = sorted(
            self.facet_ids,
            key=lambda f: (
                sum(1 for g in self.facet_ids if prof_p[g] == prof_p[f]),
                f,
            ),
        )
        candidates = {
            f: [g for g in other.facet_ids if prof_q[g] == prof_p[f]] for f in order
        }
        q_vertex_sets = set(other.vertex_facets)
        depth = {f: k for k, f in enumerate(order)}
        completed: list[list[frozenset[str]]] = [[] for _ in order]
        for fs in self.vertex_facets:
            # a vertex on no facet is the point of a 0-dimensional
            # polytope, and ``other`` then is that point too
            if fs:
                completed[max(depth[f] for f in fs)].append(fs)

        assignment: dict[str, str] = {}
        used: set[str] = set()

        def backtrack(k: int) -> Iterator[dict[str, str]]:
            if k == len(order):
                yield dict(assignment)
                return
            f = order[k]
            fv = self._facet_vertices[f]
            for g in candidates[f]:
                if g in used:
                    continue
                gv = other._facet_vertices[g]
                ok = True
                for f2, g2 in assignment.items():
                    if len(fv & self._facet_vertices[f2]) != len(
                        gv & other._facet_vertices[g2]
                    ):
                        ok = False
                        break
                if not ok:
                    continue
                assignment[f] = g
                if all(
                    frozenset(assignment[x] for x in fs) in q_vertex_sets
                    for fs in completed[k]
                ) and (accept is None or accept(assignment, f)):
                    used.add(g)
                    yield from backtrack(k + 1)
                    used.discard(g)
                del assignment[f]

        yield from backtrack(0)

    def is_combinatorially_isomorphic(
        self, other: "SimplePolytope"
    ) -> Optional[dict[str, str]]:
        return next(self.iter_isomorphisms(other), None)

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
            coords = (
                [Fraction(s) for s in v["coords"]] if v.get("coords") is not None else None
            )
            vertices.append((coords, v["facets"]))
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
        coords = [Fraction(1 if i == j else 0) for i in range(n + 1)]
        vertices.append((coords, {f"d{i}" for i in range(n + 1) if i != j}))
    return SimplePolytope(n, facets, vertices)


def delta_q_cuts(n: int, r1: Fraction, r2: Fraction) -> tuple[Halfspace, ...]:
    """The three cuts that truncate the n-simplex (coordinates summing to 1).

    They remove a neighborhood of the face spanned by the first n/2
    vertices, of the face spanned by the last n/2 vertices, and of the
    middle vertex A_{n/2}.
    """
    half = n // 2
    return (
        # sum_{j >= n/2} x_j >= r2   (cuts the first-half face)
        Halfspace(tuple(Fraction(1 if i >= half else 0) for i in range(n + 1)), r2),
        # sum_{j <= n/2} x_j >= r2   (cuts the second-half face)
        Halfspace(tuple(Fraction(1 if i <= half else 0) for i in range(n + 1)), r2),
        # x_{n/2} <= 1 - r1          (cuts the middle vertex)
        Halfspace(tuple(Fraction(-1 if i == half else 0) for i in range(n + 1)), r1 - 1),
    )


def check_truncation_parameters(n: int, r1: Fraction, r2: Fraction) -> None:
    if n < 4 or n % 2 != 0:
        raise PolytopeError("truncation requires even dimension n >= 4")
    if not (0 < r1 < r2 and r1 + 2 * r2 < 1):
        raise PolytopeError(
            "parameters must satisfy 0 < r1 < r2 and r1 + 2*r2 < 1"
        )


def truncate(poly: SimplePolytope, cut: Halfspace, fid: str) -> SimplePolytope:
    """Cut a realized simple polytope by the halfspace ``cut``.

    Vertices with <normal, x> > offset are kept.  Each edge whose ends
    lie on opposite sides of the hyperplane gets a new vertex at the
    exact crossing point, lying on the edge's facets and the new facet
    ``fid``, tagged "cut".  A vertex exactly on the hyperplane would make the result
    non-simple and raises PolytopeError.  The cut is evaluated, times a
    positive integer, on the integer image X = D x; the crossing point
    x_i + t (x_j - x_i) with t = v_i / (v_i - v_j) is then
    (v_i X_j - v_j X_i) / ((v_i - v_j) D).
    """
    points = poly.int_coords
    scale = lcm(cut.offset.denominator, *(a.denominator for a in cut.normal))
    normal = [int(a * scale) for a in cut.normal]
    offset = int(cut.offset * scale) * poly.coord_scale
    values = [sum(a * x for a, x in zip(normal, p)) - offset for p in points]
    if any(v == 0 for v in values):
        raise PolytopeError(f"a vertex lies on the hyperplane of cut {fid}")
    vertices = [
        (c, fs)
        for c, fs, v in zip(poly.vertex_coords, poly.vertex_facets, values)
        if v > 0
    ]
    for edge in poly.edges:
        i, j = sorted(edge.vertices)
        vi, vj = values[i], values[j]
        if (vi > 0) != (vj > 0):
            den = (vi - vj) * poly.coord_scale
            point = tuple(
                Fraction(vi * b - vj * a, den) for a, b in zip(points[i], points[j])
            )
            vertices.append((point, edge.facets | {fid}))
    facets = [(g, poly.facet_tags[g]) for g in poly.facet_ids] + [(fid, "cut")]
    return SimplePolytope(poly.dim, facets, vertices)


def build_delta_Q(
    n: int, r1: Fraction | str = Fraction(1, 6), r2: Fraction | str = Fraction(1, 4)
) -> SimplePolytope:
    """The n-dimensional truncated simplex with cut facets p1, p2, p3.

    The three cuts of ``delta_q_cuts`` are applied to ``simplex(n)``
    in turn by ``truncate``.  All n+1 original facets survive; the three
    cut facets are pairwise disjoint.  The combinatorial type does not
    depend on the choice of valid (r1, r2).
    """
    r1, r2 = Fraction(r1), Fraction(r2)
    check_truncation_parameters(n, r1, r2)
    cuts = delta_q_cuts(n, r1, r2)
    poly = simplex(n)
    for fid, cut in zip(("p1", "p2", "p3"), cuts):
        poly = truncate(poly, cut, fid)

    for a, b in combinations(("p1", "p2", "p3"), 2):
        if poly.facet_vertices(a) & poly.facet_vertices(b):
            raise PolytopeError(f"cut facets {a} and {b} intersect")
    return poly


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
    vertices = []
    for i in sorted(fverts):
        fs = (poly.vertex_facets[i] - {fid}) & keep
        vertices.append((poly.vertex_coords[i], fs))
    return SimplePolytope(poly.dim - 1, child_facets, vertices)


def product(p: SimplePolytope, q: SimplePolytope) -> SimplePolytope:
    """Product polytope; facets are facet x Q and P x facet."""
    facets = [(f"L.{fid}", p.facet_tags[fid]) for fid in p.facet_ids] + [
        (f"R.{fid}", q.facet_tags[fid]) for fid in q.facet_ids
    ]
    vertices = []
    for i in range(p.n_vertices):
        for j in range(q.n_vertices):
            ci, cj = p.vertex_coords[i], q.vertex_coords[j]
            coords = tuple(ci) + tuple(cj) if ci is not None and cj is not None else None
            fs = {f"L.{f}" for f in p.vertex_facets[i]} | {
                f"R.{f}" for f in q.vertex_facets[j]
            }
            vertices.append((coords, fs))
    return SimplePolytope(p.dim + q.dim, facets, vertices)
