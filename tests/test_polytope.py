import hashlib
import json
import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from toric_cobordism.family import CUT_FACETS, build_family
from toric_cobordism.polytope import (
    Face,
    Halfspace,
    PolytopeError,
    SimplePolytope,
    build_delta_Q,
    delta_q_cuts,
    facet_polytope,
    product,
    simplex,
    truncate,
)


class TestSimplex:
    def test_triangle(self):
        t = simplex(2)
        assert t.n_vertices == 3 and t.n_facets == 3

    def test_dim4_facet_avoids_vertex(self):
        s = simplex(4)
        assert s.n_vertices == 5
        for j in range(5):
            # vertex A_j is the unit point in coordinate j; facet dj omits it
            vj = next(
                i
                for i, c in enumerate(s.vertex_coords)
                if c[j] == 1
            )
            assert f"d{j}" not in s.vertex_facets[vj]

    def test_f_vector_binomials(self):
        s = simplex(4)
        assert s.f_vector() == (5, 10, 10, 5)
        assert s.euler_ok()

    def test_too_small(self):
        with pytest.raises(PolytopeError):
            simplex(0)


class TestTruncation:
    def test_counts_n4(self):
        q = build_delta_Q(4)
        assert q.n_facets == 8
        assert q.n_vertices == 16
        assert not (q.facet_vertices("p1") & q.facet_vertices("p2"))
        assert not (q.facet_vertices("p2") & q.facet_vertices("p3"))
        assert not (q.facet_vertices("p1") & q.facet_vertices("p3"))

    def test_all_originals_survive(self):
        for n in (4, 6):
            q = build_delta_Q(n)
            assert q.n_facets == n + 4
            for j in range(n + 1):
                assert len(q.facet_vertices(f"d{j}")) >= n

    def test_cut_facet_shapes_n4(self):
        q = build_delta_Q(4)
        prism = product(simplex(1), simplex(2))
        assert facet_polytope(q, "p1").is_combinatorially_isomorphic(prism)
        assert facet_polytope(q, "p2").is_combinatorially_isomorphic(prism)
        assert facet_polytope(q, "p3").is_combinatorially_isomorphic(simplex(3))

    def test_invalid_parameters(self):
        with pytest.raises(PolytopeError):
            build_delta_Q(4, Fraction(1, 4), Fraction(1, 4))
        with pytest.raises(PolytopeError):
            build_delta_Q(4, Fraction(1, 3), Fraction(1, 2))
        with pytest.raises(PolytopeError):
            build_delta_Q(5)

    def test_lattice_independent_of_parameters(self):
        a = build_delta_Q(4, Fraction(1, 6), Fraction(1, 4))
        b = build_delta_Q(4, Fraction(1, 8), Fraction(1, 5))
        assert a.incidence_key() == b.incidence_key()
        assert a.f_vector() == b.f_vector()

    def test_euler_relation(self):
        for n in (4, 6):
            assert build_delta_Q(n).euler_ok()

    def test_vertex_counts_general(self):
        for n in (4, 6, 8):
            q = build_delta_Q(n)
            half = n // 2
            assert len(q.facet_vertices("p1")) == half * (half + 1)
            assert len(q.facet_vertices("p2")) == half * (half + 1)
            assert len(q.facet_vertices("p3")) == n
            assert q.n_vertices == 2 * half * (half + 1) + n


# sha256 of json.dumps(build_delta_Q(n, r1, r2).to_json_dict(), sort_keys=True),
# recorded when the polytope was still compared with exhaustive vertex
# enumeration of delta_q_system (Fourier-Motzkin feasibility, every basis
# solved exactly) and matched it for every n and parameter pair below.
ENUMERATED_DIGESTS = {
    ("default", 4): "71f11679b9d863ce4f3e37db8ac8633a8e3291eac2341641b8b2c1c84d0f746d",
    ("default", 6): "49ec348edc769644940bfa539ae8b67ea35b6608f1b14d6fd67920bf0c5c0665",
    ("default", 8): "fa54e9e28e436662f0ac9c7e32d16b64b12563e3ba7ce568a32eee2f8996df3e",
    ("default", 10): "79f64e23ffb22c7ff067c602625ca537131a2741da8c3dbaf49376623c2120eb",
    ("other", 4): "2146489bb70eaffcebc457d535f19a441903e4ad534c566ef28e81290657c725",
    ("other", 6): "b0dd7ea62c6c72e9a64085356a8ee0154c9f6b894f31befbb2bde3f8c0daec3b",
    ("other", 8): "a3d40fa34112c6c929d52bc3773b82db575196c9096546cfead556d3fb50475a",
    ("other", 10): "67d127569a80a62c6188990d26f3a6ee771de34c70f91ff8f355d2ed3959d12c",
}
PARAMETERS = {"default": (Fraction(1, 6), Fraction(1, 4)), "other": (Fraction(1, 10), Fraction(1, 3))}


class TestTruncate:
    def test_single_vertex_cut(self):
        cut = Halfspace(
            tuple(Fraction(-1 if i == 2 else 0) for i in range(5)), Fraction(-5, 6)
        )
        q = truncate(simplex(4), cut, "p")
        assert q.n_vertices == 8 and q.n_facets == 6
        assert len(q.facet_vertices("p")) == 4
        assert q.facet_tags["p"] == "cut"
        assert q.euler_ok()

    def test_vertex_on_hyperplane(self):
        cut = Halfspace(
            tuple(Fraction(-1 if i == 2 else 0) for i in range(5)), Fraction(-1)
        )
        with pytest.raises(PolytopeError):
            truncate(simplex(4), cut, "p")

    @pytest.mark.parametrize("n", (4, 6, 8, 10))
    @pytest.mark.parametrize("params", ("default", "other"))
    def test_matches_vertex_enumeration(self, n, params):
        text = json.dumps(build_delta_Q(n, *PARAMETERS[params]).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATED_DIGESTS[params, n]


class TestFacetPolytope:
    def test_facet_of_simplex(self):
        s = simplex(4)
        f = facet_polytope(s, "d0")
        assert f.is_combinatorially_isomorphic(simplex(3))

    def test_identifiers_preserved(self):
        q = build_delta_Q(4)
        p1 = facet_polytope(q, "p1")
        assert set(p1.facet_ids) == {f"d{j}" for j in range(5)}

    def test_unknown_facet(self):
        with pytest.raises(PolytopeError):
            facet_polytope(simplex(2), "nope")

    def test_p3_facets_exclude_middle(self):
        for n in (4, 6):
            q = build_delta_Q(n)
            p3 = facet_polytope(q, "p3")
            assert set(p3.facet_ids) == {
                f"d{j}" for j in range(n + 1) if j != n // 2
            }


class TestProduct:
    def test_square(self):
        sq = product(simplex(1), simplex(1))
        assert sq.n_vertices == 4 and sq.n_facets == 4
        assert sq.f_vector() == (4, 4)

    def test_prism(self):
        pr = product(simplex(1), simplex(2))
        assert pr.n_facets == 5 and pr.n_vertices == 6
        assert pr.euler_ok()

    def test_vertex_count_multiplies(self):
        for a, b in [(1, 2), (2, 2), (1, 3)]:
            assert product(simplex(a), simplex(b)).n_vertices == (a + 1) * (b + 1)


class TestIsomorphism:
    def test_reflexive_triangle(self):
        t = simplex(2)
        iso = t.is_combinatorially_isomorphic(t)
        assert iso is not None

    def test_symmetric(self):
        q = build_delta_Q(4)
        p1 = facet_polytope(q, "p1")
        pr = product(simplex(1), simplex(2))
        assert (p1.is_combinatorially_isomorphic(pr) is not None) == (
            pr.is_combinatorially_isomorphic(p1) is not None
        )

    def test_non_isomorphic(self):
        assert simplex(3).is_combinatorially_isomorphic(
            product(simplex(1), simplex(2))
        ) is None

    def test_preserves_face_dimensions(self):
        q = build_delta_Q(4)
        p1 = facet_polytope(q, "p1")
        pr = product(simplex(1), simplex(2))
        iso = p1.is_combinatorially_isomorphic(pr)
        assert iso is not None
        index = {f.vertices: f.dim for f in pr.faces}
        vertex_map = {}
        target_sets = {fs: i for i, fs in enumerate(pr.vertex_facets)}
        for i, fs in enumerate(p1.vertex_facets):
            vertex_map[i] = target_sets[frozenset(iso[f] for f in fs)]
        for face in p1.faces:
            image = frozenset(vertex_map[v] for v in face.vertices)
            assert index[image] == face.dim


class TestSerialization:
    def test_round_trip(self):
        q = build_delta_Q(4)
        data = q.to_json_dict()
        back = SimplePolytope.from_json_dict(data)
        assert back.incidence_key() == q.incidence_key()
        assert back.to_json_dict() == data


class TestRealizationChecks:
    """A realization whose vertices no functional can tell apart is refused."""

    @staticmethod
    def _triangle(coords):
        facets = [(f"d{j}", "original") for j in range(3)]
        fids = [("d1", "d2"), ("d0", "d2"), ("d0", "d1")]
        return SimplePolytope(2, facets, list(zip(coords, fids)))

    def test_two_vertices_at_one_point(self):
        with pytest.raises(PolytopeError, match="same point"):
            self._triangle([(1, 0, 0), (1, 0, 0), (0, 0, 1)])

    def test_coordinate_vectors_of_different_lengths(self):
        # (1, 0) agrees with (1, 0, 0) on their common prefix
        with pytest.raises(PolytopeError, match="differ in length"):
            self._triangle([(1, 0, 0), (1, 0), (0, 0, 1)])

    def test_partial_realization_is_kept(self):
        tri = self._triangle([(1, 0, 0), None, (0, 0, 1)])
        assert not tri.has_coords()

    @pytest.mark.parametrize("dim", [2.0, True, "2", -1, None])
    def test_dimension_must_be_an_integer(self, dim):
        with pytest.raises(PolytopeError, match="dimension"):
            SimplePolytope(dim, [], [])


# ---------------------------------------------------------------------------
# hashed edges and the integer image against the code they replaced
# ---------------------------------------------------------------------------

def _reference_edges(poly):
    """The edges by intersecting the vertex sets of every dim-1 facets."""
    found = {}
    for fs in poly.vertex_facets:
        for sub in combinations(sorted(fs), poly.dim - 1):
            verts = frozenset.intersection(
                *(poly.facet_vertices(f) for f in sub)
            ) if sub else frozenset(range(poly.n_vertices))
            if verts not in found:
                found[verts] = Face(1, frozenset(sub), verts)
    edges = tuple(sorted(found.values(), key=lambda f: tuple(sorted(f.vertices))))
    for e in edges:
        if len(e.vertices) != 2:
            raise PolytopeError("edge with vertex count != 2")
    return edges


def _reference_truncate(poly, cut, fid):
    """``truncate`` in Fraction geometry, with ``Halfspace.value`` as the oracle."""
    values = [cut.value(c) for c in poly.vertex_coords]
    if any(v == 0 for v in values):
        raise PolytopeError(f"a vertex lies on the hyperplane of cut {fid}")
    vertices = [
        (c, fs) for c, fs, v in zip(poly.vertex_coords, poly.vertex_facets, values) if v > 0
    ]
    for edge in _reference_edges(poly):
        i, j = sorted(edge.vertices)
        if (values[i] > 0) != (values[j] > 0):
            t = values[i] / (values[i] - values[j])
            a, b = poly.vertex_coords[i], poly.vertex_coords[j]
            vertices.append(
                (tuple(x + t * (y - x) for x, y in zip(a, b)), edge.facets | {fid})
            )
    facets = [(g, poly.facet_tags[g]) for g in poly.facet_ids] + [(fid, "cut")]
    return SimplePolytope(poly.dim, facets, vertices)


def _edge_cases():
    polys = {f"simplex({m})": simplex(m) for m in range(1, 7)}
    for a in range(1, 4):
        for b in range(1, 4):
            polys[f"simplex({a}) x simplex({b})"] = product(simplex(a), simplex(b))
    for n in range(4, 13, 2):
        q = build_delta_Q(n)
        polys[f"delta_Q({n})"] = q
        partial = simplex(n)
        for fid, cut in zip(CUT_FACETS[:2], delta_q_cuts(n, Fraction(1, 6), Fraction(1, 4))):
            partial = truncate(partial, cut, fid)
            polys[f"delta_Q({n}) up to {fid}"] = partial
    for name, poly in list(polys.items()):
        for fid in poly.facet_ids:
            polys[f"{name} facet {fid}"] = facet_polytope(poly, fid)
    for k in range(2, 7):
        for fid, pair in build_family(k, "Z").boundary.items():
            polys[f"boundary {fid} at k = {k}"] = pair.polytope
    return polys


class TestHashedEdges:
    def test_same_faces_in_the_same_order(self):
        cases = _edge_cases()
        assert len(cases) > 250
        for name, poly in cases.items():
            if poly.dim == 0:
                # the reference asks for (-1)-subsets there and fails
                assert poly.edges == (), name
                continue
            assert poly.edges == _reference_edges(poly), name

    def test_cached(self):
        q = build_delta_Q(6)
        assert q.edges is q.edges

    def test_malformed_polytopes_still_raise(self):
        """Vertex-deleted polytopes whose 1-skeleton breaks raise as before."""
        rng = random.Random(20261018)
        bases = [
            product(simplex(1), product(simplex(1), simplex(1))),
            product(simplex(2), simplex(2)),
            build_delta_Q(4),
            simplex(3),
        ]
        raised = agreed = 0
        for trial in range(300):
            base = rng.choice(bases)
            drop = set(rng.sample(range(base.n_vertices), rng.randint(1, 3)))
            vertices = [
                (c, fs)
                for i, (c, fs) in enumerate(zip(base.vertex_coords, base.vertex_facets))
                if i not in drop
            ]
            facets = [(f, base.facet_tags[f]) for f in base.facet_ids]
            try:
                poly = SimplePolytope(base.dim, facets, vertices)
            except PolytopeError:
                continue
            try:
                expected = _reference_edges(poly)
            except PolytopeError:
                with pytest.raises(PolytopeError, match="vertex count != 2"):
                    poly.edges
                raised += 1
                continue
            assert poly.edges == expected
            agreed += 1
        assert raised > 50

    def test_segment_with_three_points_raises(self):
        facets = [("a", ""), ("b", ""), ("c", "")]
        poly = SimplePolytope(1, facets, [((0,), "a"), ((1,), "b"), ((2,), "c")])
        with pytest.raises(PolytopeError, match="vertex count != 2"):
            _reference_edges(poly)
        with pytest.raises(PolytopeError, match="vertex count != 2"):
            poly.edges


def _random_points(rng, count, ambient):
    """Rational points from a small pool, so that prefixes often tie."""
    pool = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 7, 9, 12))) for _ in range(5)]
    return [tuple(rng.choice(pool) for _ in range(ambient)) for _ in range(count)]


class TestIntegerImage:
    TEMPLATES = (simplex(3), product(simplex(1), simplex(2)), simplex(5))

    @staticmethod
    def _realize(template, points):
        facets = [(f, template.facet_tags[f]) for f in template.facet_ids]
        return SimplePolytope(template.dim, facets, list(zip(points, template.vertex_facets)))

    def test_order_is_the_fraction_order(self):
        rng = random.Random(5)
        checked = 0
        for trial in range(400):
            template = rng.choice(self.TEMPLATES)
            points = _random_points(rng, template.n_vertices, rng.randint(1, 4))
            if len(set(points)) < len(points):
                continue
            # mixed input types: ints, strings and Fractions
            mixed = [
                tuple(int(x) if x.denominator == 1 else rng.choice((str(x), x)) for x in p)
                for p in points
            ]
            poly = self._realize(template, mixed)
            assert poly.vertex_coords == tuple(sorted(points))
            assert poly.coord_scale > 0
            assert poly.coord_scale == math.lcm(*(x.denominator for p in points for x in p))
            assert poly.int_coords == tuple(
                tuple(int(x * poly.coord_scale) for x in p) for p in poly.vertex_coords
            )
            assert all(type(x) is Fraction for p in poly.vertex_coords for x in p)
            checked += 1
        assert checked > 200

    def test_coincident_points_raise(self):
        rng = random.Random(7)
        for trial in range(200):
            template = rng.choice(self.TEMPLATES)
            points = _random_points(rng, template.n_vertices, rng.randint(1, 4))
            i, j = rng.sample(range(len(points)), 2)
            # the same point written another way
            points[j] = tuple(str(x) if x.denominator != 1 else int(x) for x in points[i])
            with pytest.raises(PolytopeError, match="two vertices lie at the same point"):
                self._realize(template, points)

    def test_truncation_matches_fraction_geometry(self):
        rng = random.Random(11)
        bases = [simplex(3), simplex(4), build_delta_Q(4), product(simplex(1), simplex(2))]
        built = 0
        for trial in range(150):
            base = rng.choice(bases)
            ambient = len(base.vertex_coords[0])
            normal = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(ambient)
            )
            cut = Halfspace(normal, Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
            try:
                expected = _reference_truncate(base, cut, "cut")
            except PolytopeError as exc:
                with pytest.raises(PolytopeError, match=re.escape(str(exc))):
                    truncate(base, cut, "cut")
                continue
            assert truncate(base, cut, "cut").to_json_dict() == expected.to_json_dict()
            built += 1
        assert built > 30

    def test_delta_q_matches_fraction_geometry(self):
        for n in range(4, 13, 2):
            for r1, r2 in ((Fraction(1, 6), Fraction(1, 4)), (Fraction(1, 10), Fraction(1, 3))):
                expected = simplex(n)
                for fid, cut in zip(CUT_FACETS, delta_q_cuts(n, r1, r2)):
                    expected = _reference_truncate(expected, cut, fid)
                assert build_delta_Q(n, r1, r2).to_json_dict() == expected.to_json_dict()


class TestUnrealized:
    """A polytope without coordinates has no integer image and cannot be cut."""

    @staticmethod
    def _unrealized():
        s = simplex(3)
        facets = [(f, s.facet_tags[f]) for f in s.facet_ids]
        return SimplePolytope(3, facets, [(None, fs) for fs in s.vertex_facets])

    def test_int_coords(self):
        with pytest.raises(PolytopeError, match="no rational realization"):
            self._unrealized().int_coords

    def test_truncate(self):
        cut = Halfspace(tuple(Fraction(-1 if i == 0 else 0) for i in range(4)), Fraction(-1, 2))
        with pytest.raises(PolytopeError, match="no rational realization"):
            truncate(self._unrealized(), cut, "p")
