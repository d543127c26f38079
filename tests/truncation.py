"""Halfspace truncation of realized simple polytopes: the geometric route.

``polytope.build_delta_Q`` writes the truncated simplex down by its
combinatorial rule.  The tests derive it a second, independent way here,
by cutting ``simplex(n)`` with the three halfspaces of ``delta_q_cuts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from toric_cobordism.polytope import Coords, PolytopeError, SimplePolytope


@dataclass(frozen=True)
class Halfspace:
    """Constraint <normal, x> >= offset (or == offset as an equality)."""

    normal: Coords
    offset: Fraction

    def value(self, point: Sequence[Fraction]) -> Fraction:
        return sum(a * x for a, x in zip(self.normal, point)) - self.offset


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


def truncate(poly: SimplePolytope, cuts: Iterable[tuple[str, Halfspace]]) -> SimplePolytope:
    """Cut a realized simple polytope by every ``(fid, halfspace)`` of ``cuts``.

    The cuts are applied to the parent's edges in one pass.  Vertices
    with <normal, x> > offset for every cut are kept.  Each edge whose
    ends lie on opposite sides of a cut's hyperplane gets a new vertex
    at the exact crossing point, lying on the edge's facets and the new
    facet ``fid``, tagged "cut".  A vertex exactly on a hyperplane would
    make the result non-simple and raises PolytopeError.  So does a
    crossing point that is not strictly inside another cut: the slice
    of the polytope by a hyperplane is the convex hull of its crossing
    points, so this alone rules out two cut facets meeting, and every
    vertex of the result is a kept vertex or a crossing point.

    Each cut is evaluated, times a positive integer, on the integer
    image X = D x; the crossing point x_i + t (x_j - x_i) with
    t = v_i / (v_i - v_j) is then (v_i X_j - v_j X_i) / ((v_i - v_j) D),
    another cut's value there is (v_i w_j - v_j w_i) / (v_i - v_j), and
    every point X / (d D) is passed on as ``Fraction`` coordinates.
    """
    points = poly.int_coords
    values = []  # (fid, the cut's value at each vertex)
    for fid, cut in cuts:
        scale = lcm(cut.offset.denominator, *(a.denominator for a in cut.normal))
        normal = [scale // a.denominator * a.numerator for a in cut.normal]
        offset = scale // cut.offset.denominator * cut.offset.numerator * poly.coord_scale
        vs = [sum(a * x for a, x in zip(normal, p)) - offset for p in points]
        if 0 in vs:
            raise PolytopeError(f"a vertex lies on the hyperplane of cut {fid}")
        values.append((fid, vs))
    # (X, d, facets) for each vertex X / (d D) of the result
    ratios = [
        (p, 1, fs)
        for i, (p, fs) in enumerate(zip(points, poly.vertex_facets))
        if all(vs[i] > 0 for _, vs in values)
    ]
    for i, j, _ in poly.edge_masks:
        for fid, vs in values:
            vi, vj = vs[i], vs[j]
            if (vi > 0) == (vj > 0):
                continue
            for gid, ws in values:
                if ws is not vs and (vi * ws[j] - vj * ws[i]) * (vi - vj) <= 0:
                    raise PolytopeError(f"cut {fid} crosses an edge outside cut {gid}")
            point = tuple(vi * b - vj * a for a, b in zip(points[i], points[j]))
            edge_facets = poly.vertex_facets[i] & poly.vertex_facets[j]
            ratios.append((point, vi - vj, edge_facets | {fid}))
    scale = poly.coord_scale
    vertices = [(tuple(Fraction(x, d * scale) for x in p), fs) for p, d, fs in ratios]
    facets = [(g, poly.facet_tags[g]) for g in poly.facet_ids]
    facets += [(fid, "cut") for fid, _ in values]
    return SimplePolytope(poly.dim, facets, vertices)
