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
from typing import Iterable, Iterator, Optional, Sequence

from .exactalg import rational_rank, solve_rational


class PolytopeError(ValueError):
    pass


class EmptySystem(PolytopeError):
    """The halfspace system has no feasible point."""


class UnboundedSystem(PolytopeError):
    """The halfspace system admits an unbounded direction."""


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
class HalfspaceSystem:
    ambient: int
    inequalities: tuple[Halfspace, ...]
    equalities: tuple[Halfspace, ...] = ()

    @staticmethod
    def make(
        ambient: int,
        inequalities: Iterable[tuple[Sequence[Fraction | int], Fraction | int]],
        equalities: Iterable[tuple[Sequence[Fraction | int], Fraction | int]] = (),
    ) -> "HalfspaceSystem":
        def conv(items):
            return tuple(
                Halfspace(tuple(Fraction(c) for c in normal), Fraction(off))
                for normal, off in items
            )

        return HalfspaceSystem(ambient, conv(inequalities), conv(equalities))


def enumerate_vertices(
    system: HalfspaceSystem, *, detect_unbounded: bool = True
) -> list[Coords]:
    """All vertices of the polyhedron, by exhaustive basis enumeration.

    Every subset of inequalities of size (ambient - #independent
    equalities) is intersected with the equalities and solved exactly;
    feasible unique solutions are collected.  An empty system raises
    EmptySystem (feasibility decided by exact Fourier-Motzkin
    elimination); a feasible system with an extreme ray, or with no
    vertex at all, raises UnboundedSystem.
    """
    eqs = [list(h.normal) for h in system.equalities]
    eq_rank = rational_rank(eqs) if eqs else 0
    eff_dim = system.ambient - eq_rank
    ineqs = system.inequalities
    if eff_dim < 0:
        raise PolytopeError("over-constrained equality system")

    base_rows = [list(h.normal) for h in system.equalities]
    base_rhs = [h.offset for h in system.equalities]

    seen: set[Coords] = set()
    vertices: list[Coords] = []
    for subset in combinations(range(len(ineqs)), eff_dim):
        rows = base_rows + [list(ineqs[i].normal) for i in subset]
        rhs = base_rhs + [ineqs[i].offset for i in subset]
        point = solve_rational(rows, rhs)
        if point is None:
            continue
        if all(h.value(point) >= 0 for h in ineqs):
            if point not in seen:
                seen.add(point)
                vertices.append(point)

    if not vertices:
        if _feasible(system):
            raise UnboundedSystem("feasible but without vertices")
        raise EmptySystem("no feasible point")

    if detect_unbounded and eff_dim >= 1:
        for subset in combinations(range(len(ineqs)), eff_dim - 1):
            rows = base_rows + [list(ineqs[i].normal) for i in subset]
            direction = _kernel_direction(rows, system.ambient)
            if direction is None:
                continue
            for d in (direction, tuple(-x for x in direction)):
                if all(
                    sum(a * x for a, x in zip(h.normal, d)) >= 0 for h in ineqs
                ):
                    raise UnboundedSystem("extreme ray found")
    return sorted(vertices)


def _feasible(system: HalfspaceSystem) -> bool:
    """Exact Fourier-Motzkin feasibility of a halfspace system."""
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for h in system.inequalities:
        rows.append((tuple(h.normal), h.offset))
    for h in system.equalities:
        rows.append((tuple(h.normal), h.offset))
        rows.append((tuple(-c for c in h.normal), -h.offset))
    for var in range(system.ambient):
        pos, neg, rest = [], [], []
        for normal, off in rows:
            c = normal[var]
            if c > 0:
                pos.append((normal, off))
            elif c < 0:
                neg.append((normal, off))
            else:
                rest.append((normal, off))
        new_rows = rest
        for pn, po in pos:
            for nn, no in neg:
                a, b = pn[var], -nn[var]
                normal = tuple(b * x + a * y for x, y in zip(pn, nn))
                new_rows.append((normal, b * po + a * no))
        # drop duplicates to keep the blowup in check
        rows = list(dict.fromkeys(new_rows))
    return all(off <= 0 for _, off in rows)


def _kernel_direction(rows: list[list[Fraction]], ambient: int) -> Optional[Coords]:
    """A nonzero kernel vector when the kernel is one dimensional."""
    if rational_rank(rows) != ambient - 1:
        return None
    # solve rows . d = 0 with one coordinate pinned to 1
    for pin in range(ambient):
        sys_rows = [list(r) for r in rows]
        sys_rows.append([Fraction(1 if j == pin else 0) for j in range(ambient)])
        rhs = [Fraction(0)] * len(rows) + [Fraction(1)]
        d = solve_rational(sys_rows, rhs)
        if d is not None:
            return d
    return None


@dataclass(frozen=True)
class Face:
    """A face given by its defining facet set and its vertex set."""

    dim: int
    facets: frozenset[str]
    vertices: frozenset[int]


class SimplePolytope:
    """Combinatorial simple polytope with optional rational realization.

    ``facets`` is a list of (id, tag) pairs; each vertex is a pair of
    optional coordinates and the set of facet ids containing it.
    """

    def __init__(
        self,
        dim: int,
        facets: Sequence[tuple[str, str]],
        vertices: Sequence[tuple[Optional[Sequence[Fraction]], Iterable[str]]],
        *,
        check: bool = True,
    ):
        self.dim = dim
        self.facet_ids: tuple[str, ...] = tuple(fid for fid, _ in facets)
        self.facet_tags: dict[str, str] = {fid: tag for fid, tag in facets}
        if len(set(self.facet_ids)) != len(self.facet_ids):
            raise PolytopeError("duplicate facet ids")

        prepared = []
        for coords, fids in vertices:
            cs = tuple(Fraction(c) for c in coords) if coords is not None else None
            fset = frozenset(fids)
            unknown = fset - set(self.facet_ids)
            if unknown:
                raise UnknownFacet(f"vertex references unknown facets {sorted(unknown)}")
            prepared.append((cs, fset))
        if all(c is not None for c, _ in prepared):
            prepared.sort(key=lambda vf: vf[0])
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
        if check:
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
        return all(c is not None for c in self.vertex_coords)

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

    def edges(self) -> tuple[Face, ...]:
        """The 1-faces, computed without the full lattice."""
        found: dict[frozenset[int], Face] = {}
        for i, fs in enumerate(self.vertex_facets):
            for sub in combinations(sorted(fs), self.dim - 1):
                verts = frozenset.intersection(
                    *(self._facet_vertices[f] for f in sub)
                ) if sub else frozenset(range(self.n_vertices))
                if verts not in found:
                    found[verts] = Face(1, frozenset(sub), verts)
        edges = tuple(
            sorted(found.values(), key=lambda f: tuple(sorted(f.vertices)))
        )
        for e in edges:
            if len(e.vertices) != 2:
                raise PolytopeError("edge with vertex count != 2")
        return edges

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

    def iter_isomorphisms(self, other: "SimplePolytope") -> Iterator[dict[str, str]]:
        """Facet bijections inducing a vertex-lattice isomorphism."""
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
        q_vertex_sets = {fs: i for i, fs in enumerate(other.vertex_facets)}

        assignment: dict[str, str] = {}
        used: set[str] = set()

        def vertex_map_ok() -> bool:
            seen = set()
            for fs in self.vertex_facets:
                image = frozenset(assignment[f] for f in fs)
                j = q_vertex_sets.get(image)
                if j is None or j in seen:
                    return False
                seen.add(j)
            return True

        def backtrack(k: int) -> Iterator[dict[str, str]]:
            if k == len(order):
                if vertex_map_ok():
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
                used.add(g)
                yield from backtrack(k + 1)
                del assignment[f]
                used.discard(g)

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


def simplex_system(n: int) -> HalfspaceSystem:
    ineqs = [
        (tuple(1 if i == j else 0 for i in range(n + 1)), 0) for j in range(n + 1)
    ]
    eqs = [(tuple(1 for _ in range(n + 1)), 1)]
    return HalfspaceSystem.make(n + 1, ineqs, eqs)


def delta_q_system(n: int, r1: Fraction, r2: Fraction) -> HalfspaceSystem:
    """Halfspaces of the truncated simplex.

    Three extra cuts remove a neighborhood of the face spanned by the
    first n/2 vertices, of the face spanned by the last n/2 vertices,
    and of the middle vertex A_{n/2}.
    """
    half = n // 2
    ineqs = [
        (tuple(1 if i == j else 0 for i in range(n + 1)), Fraction(0))
        for j in range(n + 1)
    ]
    # sum_{j >= n/2} x_j >= r2   (cuts the first-half face)
    ineqs.append((tuple(1 if i >= half else 0 for i in range(n + 1)), r2))
    # sum_{j <= n/2} x_j >= r2   (cuts the second-half face)
    ineqs.append((tuple(1 if i <= half else 0 for i in range(n + 1)), r2))
    # x_{n/2} <= 1 - r1          (cuts the middle vertex)
    ineqs.append(
        (tuple(-1 if i == half else 0 for i in range(n + 1)), r1 - 1)
    )
    eqs = [(tuple(1 for _ in range(n + 1)), 1)]
    return HalfspaceSystem.make(n + 1, ineqs, eqs)


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
    non-simple and raises PolytopeError.
    """
    values = [cut.value(c) for c in poly.vertex_coords]
    if any(v == 0 for v in values):
        raise PolytopeError(f"a vertex lies on the hyperplane of cut {fid}")
    vertices = [
        (c, fs)
        for c, fs, v in zip(poly.vertex_coords, poly.vertex_facets, values)
        if v > 0
    ]
    for edge in poly.edges():
        i, j = sorted(edge.vertices)
        if (values[i] > 0) != (values[j] > 0):
            t = values[i] / (values[i] - values[j])
            a, b = poly.vertex_coords[i], poly.vertex_coords[j]
            point = tuple(x + t * (y - x) for x, y in zip(a, b))
            vertices.append((point, edge.facets | {fid}))
    facets = [(g, poly.facet_tags[g]) for g in poly.facet_ids] + [(fid, "cut")]
    return SimplePolytope(poly.dim, facets, vertices)


def build_delta_Q(
    n: int, r1: Fraction | str = Fraction(1, 6), r2: Fraction | str = Fraction(1, 4)
) -> SimplePolytope:
    """The n-dimensional truncated simplex with cut facets p1, p2, p3.

    The three cuts of ``delta_q_system`` are applied to ``simplex(n)``
    in turn by ``truncate``.  All n+1 original facets survive; the three
    cut facets are pairwise disjoint.  The combinatorial type does not
    depend on the choice of valid (r1, r2).
    """
    r1, r2 = Fraction(r1), Fraction(r2)
    check_truncation_parameters(n, r1, r2)
    cuts = delta_q_system(n, r1, r2).inequalities[n + 1:]
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
