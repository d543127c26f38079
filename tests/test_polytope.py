import hashlib
import importlib
import json
import math
import operator
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from toric_cobordism import charpair, exactalg, family, polytope
from toric_cobordism.cli import main
from toric_cobordism.family import CUT_FACETS, build_family
from toric_cobordism.polytope import (
    PolytopeError,
    SimplePolytope,
    UnknownFacet,
    build_delta_Q,
    facet_polytope,
    product,
    simplex,
)
from facesets import FaceSets, edge_sets, face_sets
from truncation import Halfspace, delta_q_cuts, truncate


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
        q = truncate(simplex(4), [("p", cut)])
        assert q.n_vertices == 8 and q.n_facets == 6
        assert len(q.facet_vertices("p")) == 4
        assert q.facet_tags["p"] == "cut"
        assert q.euler_ok()

    def test_vertex_on_hyperplane(self):
        cut = Halfspace(
            tuple(Fraction(-1 if i == 2 else 0) for i in range(5)), Fraction(-1)
        )
        with pytest.raises(PolytopeError):
            truncate(simplex(4), [("p", cut)])

    @pytest.mark.parametrize("n", range(4, 13, 2))
    @pytest.mark.parametrize("r1, r2", (("1/6", "1/4"), ("1/10", "1/3"), ("2/9", "3/10")))
    def test_one_pass_matches_successive_cuts(self, n, r1, r2):
        cuts = list(zip(CUT_FACETS, delta_q_cuts(n, Fraction(r1), Fraction(r2))))
        successive = simplex(n)
        for cut in cuts:
            successive = truncate(successive, [cut])
        assert truncate(simplex(n), cuts).to_json_dict() == successive.to_json_dict()

    def test_meeting_cuts_raise(self):
        """x_0 <= 1/3 and x_1 <= 1/3 meet at (1/3, 1/3, 1/3, 0, 0) in simplex(4)."""
        cuts = [
            (fid, Halfspace(tuple(Fraction(-(i == j)) for i in range(5)), Fraction(-1, 3)))
            for fid, j in (("p", 0), ("q", 1))
        ]
        successive = truncate(truncate(simplex(4), cuts[:1]), cuts[1:])
        assert successive.facet_vertices("p") & successive.facet_vertices("q")
        with pytest.raises(PolytopeError, match="cut p crosses an edge outside cut q"):
            truncate(simplex(4), cuts)

    @pytest.mark.parametrize("n", (4, 6, 8, 10))
    @pytest.mark.parametrize("params", ("default", "other"))
    def test_matches_vertex_enumeration(self, n, params):
        text = json.dumps(build_delta_Q(n, *PARAMETERS[params]).to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATED_DIGESTS[params, n]


def _admissible_parameters(rng, count):
    """``count`` seeded (r1, r2) with 0 < r1 < r2 and r1 + 2 r2 < 1."""
    found = []
    while len(found) < count:
        r1, r2 = (Fraction(rng.randint(1, 30), rng.randint(2, 40)) for _ in range(2))
        if 0 < r1 < r2 and r1 + 2 * r2 < 1:
            found.append((r1, r2))
    return found


class TestClosedForm:
    """``build_delta_Q`` writes down what the geometric routes cut out."""

    @pytest.mark.parametrize("n", range(4, 17, 2))
    def test_matches_truncation_over_a_seeded_sweep(self, n):
        half = n // 2
        for r1, r2 in _admissible_parameters(random.Random(22 + n), 4):
            q = build_delta_Q(n, r1, r2)
            cuts = list(zip(CUT_FACETS, delta_q_cuts(n, r1, r2)))
            assert q.to_json_dict() == truncate(simplex(n), cuts).to_json_dict(), (r1, r2)
            successive = simplex(n)
            for fid, cut in cuts:
                successive = _reference_truncate(successive, cut, fid)
            assert q.to_json_dict() == successive.to_json_dict(), (r1, r2)
            assert q.n_vertices == 2 * half * (half + 2)
            old = [
                e.vertices
                for e in edge_sets(q)
                if sum(q.facet_tags[f] == "original" for f in e.facets) == n - 1
            ]
            assert sorted(v for e in old for v in e) == list(range(q.n_vertices)), (r1, r2)


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
        index = {f.vertices: f.dim for f in face_sets(pr, pr.faces_down_to(0))}
        vertex_map = p1.vertex_map(pr, iso)
        for face in face_sets(p1, p1.faces_down_to(0)):
            image = frozenset(vertex_map[v] for v in face.vertices)
            assert index[image] == face.dim

    def test_vertex_map(self):
        t = simplex(2)
        swap = {"d0": "d1", "d1": "d0", "d2": "d2"}
        images = t.vertex_map(t, swap)
        assert sorted(images) == [0, 1, 2]
        for fs, j in zip(t.vertex_facets, images):
            assert t.vertex_facets[j] == {swap[f] for f in fs}
        assert t.vertex_map(t, {"d0": "d0", "d1": "d0", "d2": "d2"}) is None
        assert t.vertex_map(t, {"d0": "d1", "d1": "d0"}) is None
        assert t.vertex_map(simplex(3), {f: f for f in t.facet_ids}) is None


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

    @pytest.mark.parametrize("dim", [0, 1, 3])
    def test_no_vertices(self, dim):
        with pytest.raises(PolytopeError, match="at least one vertex"):
            SimplePolytope(dim, [], [])

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
                found[verts] = FaceSets(1, frozenset(sub), verts)
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
            partial = truncate(partial, [(fid, cut)])
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
                assert poly.edge_masks == (), name
                continue
            assert edge_sets(poly) == _reference_edges(poly), name

    def test_cached(self):
        q = build_delta_Q(6)
        assert q.edge_masks is q.edge_masks

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
                    poly.edge_masks
                raised += 1
                continue
            assert edge_sets(poly) == expected
            agreed += 1
        assert raised > 50

    def test_segment_with_three_points_raises(self):
        facets = [("a", ""), ("b", ""), ("c", "")]
        poly = SimplePolytope(1, facets, [((0,), "a"), ((1,), "b"), ((2,), "c")])
        with pytest.raises(PolytopeError, match="vertex count != 2"):
            _reference_edges(poly)
        with pytest.raises(PolytopeError, match="vertex count != 2"):
            poly.edge_masks


def _reference_faces(poly):
    """``SimplePolytope.faces_down_to(0)`` as it stood when each face's
    vertex set was read off its mask by testing every vertex bit."""
    masks = {fid: sum(1 << i for i in poly.facet_vertices(fid)) for fid in poly.facet_ids}
    all_mask = (1 << poly.n_vertices) - 1
    found = {all_mask: FaceSets(poly.dim, frozenset(), frozenset(range(poly.n_vertices)))}
    for fs in poly.vertex_facets:
        for k in range(1, poly.dim + 1):
            for sub in combinations(sorted(fs), k):
                m = all_mask
                for fid in sub:
                    m &= masks[fid]
                if m not in found:
                    found[m] = FaceSets(
                        poly.dim - k,
                        frozenset(sub),
                        frozenset(j for j in range(poly.n_vertices) if (m >> j) & 1),
                    )
    return tuple(sorted(found.values(), key=lambda f: (f.dim, tuple(sorted(f.vertices)))))


class TestFacesBySetBits:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_family_faces_match_the_full_scan(self, k):
        fam = build_family(k, "Z")
        for poly in (fam.polytope, *(pair.polytope for pair in fam.boundary.values())):
            assert face_sets(poly, poly.faces_down_to(0)) == _reference_faces(poly)

    def test_edge_case_faces_match_the_full_scan(self):
        # the full scan takes seconds per polytope above dimension 8
        cases = {name: p for name, p in _edge_cases().items() if p.dim <= 8}
        assert len(cases) > 150
        for name, poly in cases.items():
            assert face_sets(poly, poly.faces_down_to(0)) == _reference_faces(poly), name


class TestFacesDownTo:
    @staticmethod
    def _assert_filtered(poly, name=None, excluded=0):
        faces = poly.faces_down_to(0)
        for m in range(-1, poly.dim + 2):
            kept = tuple(f for f in faces if f[0] >= m and not f[1] & excluded)
            got = poly.faces_down_to(m, excluded) if excluded else poly.faces_down_to(m)
            assert got == kept, (name, excluded, m)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_family_faces(self, k):
        fam = build_family(k, "Z")
        for poly in (fam.polytope, *(pair.polytope for pair in fam.boundary.values())):
            self._assert_filtered(poly)

    def test_edge_case_faces(self):
        cases = {name: p for name, p in _edge_cases().items() if p.dim <= 8}
        assert len(cases) > 150
        for name, poly in cases.items():
            self._assert_filtered(poly, name)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_excluded_cut_facets_of_delta_q(self, k):
        poly = build_family(k, "Z").polytope
        cuts = sum(1 << poly.facet_ids.index(fid) for fid in CUT_FACETS)
        self._assert_filtered(poly, k, cuts)

    def test_excluded_random_masks_on_n8_pieces(self):
        rng = random.Random(24)
        fam = build_family(4, "Z")
        for fid in ("p1", "p3"):
            poly = fam.boundary[fid].polytope
            for _ in range(12):
                excluded = rng.getrandbits(poly.n_facets)
                self._assert_filtered(poly, fid, excluded)
            self._assert_filtered(poly, fid, (1 << poly.n_facets) - 1)

    def test_nothing_is_cached(self):
        poly = build_delta_Q(6)
        top = poly.faces_down_to(4)
        dims = [dim for dim, _, _ in top]
        assert dims == sorted(dims)
        assert set(dims) == {4, 5, 6}
        assert poly.faces_down_to(7) == ()


def _random_points(rng, count, ambient):
    """Rational points from a small pool, so that prefixes often tie."""
    pool = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 7, 9, 12))) for _ in range(5)]
    return [tuple(rng.choice(pool) for _ in range(ambient)) for _ in range(count)]


class TestIntegerImage:
    TEMPLATES = (simplex(3), product(simplex(1), simplex(2)), simplex(5))

    @staticmethod
    def _assert_image(poly, name=None):
        """The least scale, the image it gives, and the vertex order."""
        assert poly.coord_scale > 0, name
        scale = math.lcm(*(x.denominator for p in poly.vertex_coords for x in p))
        assert poly.coord_scale == scale, name
        assert poly.int_coords == tuple(
            tuple(x * scale for x in p) for p in poly.vertex_coords
        ), name
        assert poly.vertex_coords == tuple(sorted(poly.vertex_coords)), name
        assert all(type(x) is Fraction for p in poly.vertex_coords for x in p), name

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
            self._assert_image(poly)
            checked += 1
        assert checked > 200

    def test_every_construction_keeps_the_least_scale(self):
        """Truncations, facets, products and boundary pieces get their image
        from their parents'; it is the one the constructor would derive."""
        for name, poly in _edge_cases().items():
            self._assert_image(poly, name)
            back = SimplePolytope.from_json_dict(json.loads(json.dumps(poly.to_json_dict())))
            assert back.int_coords == poly.int_coords, name
            assert back.coord_scale == poly.coord_scale, name
            assert back.vertex_facets == poly.vertex_facets, name

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
                    truncate(base, [("cut", cut)])
                continue
            assert truncate(base, [("cut", cut)]).to_json_dict() == expected.to_json_dict()
            built += 1
        assert built > 30

    def test_several_cuts_match_successive_fraction_geometry(self):
        """One pass equals successive Fraction-geometry cuts whenever those
        give pairwise disjoint cut facets, and raises otherwise."""
        rng = random.Random(12)
        bases = [simplex(3), simplex(4), build_delta_Q(4), product(simplex(1), simplex(2))]
        built = raised = 0
        for trial in range(200):
            base = rng.choice(bases)
            cuts = []
            for c in range(rng.randint(2, 3)):
                normal = tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in base.vertex_coords[0]
                )
                levels = sorted({sum(map(operator.mul, normal, p)) for p in base.vertex_coords})
                if len(levels) > 1:
                    # mostly small cuts near the lowest vertex, so that some miss each other
                    j = rng.choice((0, 0, rng.randrange(len(levels) - 1)))
                    step = Fraction(rng.randint(1, 3), 4)
                    offset = levels[j] + (levels[j + 1] - levels[j]) * step
                    cuts.append((f"c{c}", Halfspace(normal, offset)))
            try:
                expected = base
                for fid, cut in cuts:
                    expected = _reference_truncate(expected, cut, fid)
                disjoint = not any(
                    expected.facet_vertices(a) & expected.facet_vertices(b)
                    for (a, _), (b, _) in combinations(cuts, 2)
                )
            except PolytopeError:
                disjoint = False
            if disjoint:
                assert truncate(base, cuts).to_json_dict() == expected.to_json_dict()
                built += 1
            else:
                with pytest.raises(PolytopeError):
                    truncate(base, cuts)
                raised += 1
        assert built > 40 and raised > 40

    def test_delta_q_matches_fraction_geometry(self):
        for n in range(4, 13, 2):
            for r1, r2 in ((Fraction(1, 6), Fraction(1, 4)), (Fraction(1, 10), Fraction(1, 3))):
                expected = simplex(n)
                for fid, cut in zip(CUT_FACETS, delta_q_cuts(n, r1, r2)):
                    expected = _reference_truncate(expected, cut, fid)
                assert build_delta_Q(n, r1, r2).to_json_dict() == expected.to_json_dict()


# entries that are not a plain ASCII "p" or "p/q", valid or not, and plain
# ones that a hand-written reader could get wrong
_ODD_ENTRIES = (
    "-0", "007", "+1", "6/8", " 1/2 ", "1_000", "1.5", "1e2", "-1/-2", "2 / 3",
    "1\n", "٣", "٣/4", "1/0", "-3/0", "", "-", "/2", "1/", "x",
    "98765432109876543210/7", True, 2.5,
)


def _coordinate_entry(rng):
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(_ODD_ENTRIES)
    p = rng.randint(-12, 12)
    return str(p) if roll < 0.55 else f"{p}/{rng.randint(1, 9)}"


def _outcome(build):
    """What a polytope keeps of its coordinates, or what building it raised."""
    try:
        poly = build()
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return poly.int_coords, poly.coord_scale, poly.vertex_facets


def _both_routes(template, points):
    """The outcome from the raw entries, and from entries read by ``Fraction`` first."""
    realize = TestIntegerImage._realize
    raw = _outcome(lambda: realize(template, points))
    read_first = _outcome(
        lambda: realize(template, [tuple(Fraction(c) for c in p) for p in points])
    )
    return raw, read_first


class TestCoordinateStrings:
    """Reading "p" and "p/q" without ``Fraction(str)`` changes no polytope and
    no error: every entry gives what ``Fraction(entry)`` would."""

    def test_raw_entries_match_entries_read_by_fraction(self):
        rng = random.Random(16)
        built = raised = 0
        for trial in range(600):
            template = rng.choice(TestIntegerImage.TEMPLATES)
            ambient = rng.randint(1, 4)
            points = [
                tuple(_coordinate_entry(rng) for _ in range(ambient))
                for _ in range(template.n_vertices)
            ]
            raw, read_first = _both_routes(template, points)
            assert raw == read_first, points
            if isinstance(raw[0], type):
                raised += 1
            else:
                built += 1
        assert built > 100 and raised > 100

    @pytest.mark.parametrize("entry", _ODD_ENTRIES)
    def test_each_odd_entry(self, entry):
        raw, read_first = _both_routes(simplex(2), [(entry, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert raw == read_first

    def test_zero_denominator_message(self):
        with pytest.raises(ZeroDivisionError, match=re.escape("Fraction(1, 0)")):
            TestIntegerImage._realize(simplex(2), [("1/0", 0, 0), (0, 1, 0), (0, 0, 1)])


def _fraction_outcome(entry):
    """What ``Fraction(entry)`` raises, or None."""
    try:
        Fraction(entry)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


# entries that cannot key a table or are read through Fraction(entry)
_UNHASHABLE_AND_ODD = {
    "list": [0],
    "dict": {},
    "none": None,
    "nan": float("nan"),
    "inf": float("inf"),
}


class TestCoordinateTable:
    """A polytope reads each distinct entry once, and still raises exactly
    what reading every entry in vertex order would."""

    @pytest.mark.parametrize("entry", _UNHASHABLE_AND_ODD.values(), ids=_UNHASHABLE_AND_ODD)
    @pytest.mark.parametrize("where", ["among ints", "among strings"])
    def test_odd_entry(self, entry, where):
        if where == "among ints":
            points = [(entry, 0, 0), (0, 1, 0), (0, 0, 1)]
        else:
            points = [("1/2", "0", "0"), ("0", "1", "0"), ("0", "1/3", entry)]
        raw, read_first = _both_routes(simplex(2), points)
        assert raw == read_first == _fraction_outcome(entry)

    @pytest.mark.parametrize(
        "points",
        [
            [(True, "1/2", 0), (0, 1, 0), (0, 0, 1)],
            [(1, "1/2", 0), (0, True, 0), (0, 0, True)],
        ],
        ids=["bool first", "int first"],
    )
    def test_bool_beside_equal_int(self, points):
        raw, read_first = _both_routes(simplex(2), points)
        assert raw == read_first
        assert raw[:2] == (((0, 0, 2), (0, 2, 0), (2, 1, 0)), 2)

    @pytest.mark.parametrize(
        "first, second, expected",
        [
            ("facet", "entry", (UnknownFacet, "vertex references unknown facets ['zz']")),
            ("entry", "facet", (ValueError, "Invalid literal for Fraction: 'x'")),
        ],
    )
    def test_first_error_in_vertex_order(self, first, second, expected):
        """Vertex 0's coordinates are read, then its facets checked, then vertex 1's."""
        s = simplex(2)
        facets = [(f, s.facet_tags[f]) for f in s.facet_ids]
        vertices = [[("1/2", "0", "0"), sorted(fs)] for fs in s.vertex_facets]
        for i, what in enumerate((first, second)):
            if what == "facet":
                vertices[i][1] = vertices[i][1][:1] + ["zz"]
            else:
                vertices[i][0] = ("x", "1", "0")
        with pytest.raises(expected[0]) as info:
            SimplePolytope(2, facets, vertices)
        assert (info.type, str(info.value)) == expected

    def test_each_distinct_entry_read_once(self, monkeypatch):
        data = json.loads(json.dumps(build_family(4, "GF2").to_json_dict()))
        calls = []
        reader = polytope._read_coord
        monkeypatch.setattr(polytope, "_read_coord", lambda c: calls.append(c) or reader(c))
        polys = [data["polytope"]] + [p["polytope"] for p in data["boundary"].values()]
        for d in polys:
            calls.clear()
            SimplePolytope.from_json_dict(d)
            entries = [c for v in d["vertices"] for c in v["coords"]]
            distinct = {c for c in entries if type(c) not in (int, Fraction)}
            assert len(entries) > len(distinct) > 1
            assert sorted(calls) == sorted(distinct)

    @pytest.mark.parametrize("ring", ["z", "z2"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_constructed_files_round_trip(self, tmp_path, k, ring):
        out = tmp_path / "fam.json"
        assert main(["construct", "--k", str(k), "--ring", ring, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        for d in [data["polytope"]] + [p["polytope"] for p in data["boundary"].values()]:
            assert SimplePolytope.from_json_dict(d).to_json_dict() == d

    def test_equivgen_pair_files_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        equivgen = importlib.import_module("equivgen")
        lib = SimpleNamespace(
            charpair=charpair, exactalg=exactalg, family=family, polytope=polytope
        )
        equivgen.generate(lib, 0, tmp_path)
        paths = sorted(tmp_path.glob("*.json"))
        assert len(paths) > 10
        for path in paths:
            d = json.loads(path.read_text())["polytope"]
            assert SimplePolytope.from_json_dict(d).to_json_dict() == d, path.name


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
            truncate(self._unrealized(), [("p", cut)])


# ---------------------------------------------------------------------------
# constructions built from masks against the public constructor
# ---------------------------------------------------------------------------

def _stored(poly):
    """What a polytope stores, vertex order included."""
    return (
        poly.dim,
        poly.facet_ids,
        poly.facet_tags,
        poly.vertex_masks,
        poly.facet_vertex_masks,
        poly._int_coords,
        poly.coord_scale,
    )


def _shuffled(rng, vertices):
    vertices = list(vertices)
    rng.shuffle(vertices)
    return vertices


def _public_simplex(n, rng):
    """``simplex`` through the public constructor, as it was written there."""
    facets = [(f"d{j}", "original") for j in range(n + 1)]
    vertices = [
        ([1 if i == j else 0 for i in range(n + 1)], {f"d{i}" for i in range(n + 1) if i != j})
        for j in range(n + 1)
    ]
    return SimplePolytope(n, facets, _shuffled(rng, vertices))


def _public_delta_q(n, r1, r2, rng):
    """``build_delta_Q`` through the public constructor, with Fraction
    coordinates and facet sets of labels."""
    half = n // 2
    cut_of = ["p1"] * half + ["p3"] + ["p2"] * half
    originals = [f"d{l}" for l in range(n + 1)]
    vertices = []
    for i, cut in enumerate(cut_of):
        t = r1 if i == half else r2
        for j, other in enumerate(cut_of):
            if other != cut:
                coords = [Fraction(0)] * (n + 1)
                coords[i], coords[j] = 1 - t, t
                vertices.append((coords, set(originals) - {originals[i], originals[j]} | {cut}))
    facets = [(d, "original") for d in originals] + [(p, "cut") for p in ("p1", "p2", "p3")]
    return SimplePolytope(n, facets, _shuffled(rng, vertices))


def _public_facet_polytope(poly, fid, rng):
    """``facet_polytope`` through the public constructor, as it was written
    there, reading the parent's facet-set views."""
    fverts = poly.facet_vertices(fid)
    child_facets = [
        (g, poly.facet_tags[g])
        for g in poly.facet_ids
        if g != fid and poly.facet_vertices(g) & fverts
    ]
    keep = {g for g, _ in child_facets}
    points = poly.vertex_coords
    vertices = [(points[i], (poly.vertex_facets[i] - {fid}) & keep) for i in sorted(fverts)]
    return SimplePolytope(poly.dim - 1, child_facets, _shuffled(rng, vertices))


def _public_product(p, q, rng):
    """``product`` through the public constructor, as it was written there."""
    facets = [(f"L.{fid}", p.facet_tags[fid]) for fid in p.facet_ids] + [
        (f"R.{fid}", q.facet_tags[fid]) for fid in q.facet_ids
    ]
    realized = p.has_coords() and q.has_coords()
    vertices = []
    for i in range(p.n_vertices):
        for j in range(q.n_vertices):
            coords = p.vertex_coords[i] + q.vertex_coords[j] if realized else None
            fs = {f"L.{f}" for f in p.vertex_facets[i]} | {f"R.{f}" for f in q.vertex_facets[j]}
            vertices.append((coords, fs))
    return SimplePolytope(p.dim + q.dim, facets, _shuffled(rng, vertices))


def _without_coords(poly):
    facets = [(f, poly.facet_tags[f]) for f in poly.facet_ids]
    return SimplePolytope(poly.dim, facets, [(None, fs) for fs in poly.vertex_facets])


def _label_order_differs(poly):
    return _stored(_without_coords(poly))[3] != poly.vertex_masks


class TestMaskConstructions:
    """Every construction that builds its masks directly stores what the
    public constructor stores for the same vertices given in any order."""

    def test_simplex(self):
        rng = random.Random(26)
        for n in range(1, 8):
            assert _stored(simplex(n)) == _stored(_public_simplex(n, rng)), n

    @pytest.mark.parametrize("params", [("1/6", "1/4"), ("1/10", "1/3")])
    def test_delta_q_and_each_facet(self, params):
        rng = random.Random(26)
        r1, r2 = map(Fraction, params)
        for k in range(2, 7):
            q = build_delta_Q(2 * k, r1, r2)
            assert _stored(q) == _stored(_public_delta_q(2 * k, r1, r2, rng)), k
            bare = _without_coords(q)
            for parent in (q, bare):
                for fid in parent.facet_ids:
                    got = facet_polytope(parent, fid)
                    expected = _public_facet_polytope(parent, fid, rng)
                    assert _stored(got) == _stored(expected), (k, fid, parent.has_coords())

    def test_facet_of_a_facet(self):
        rng = random.Random(26)
        p1 = facet_polytope(build_delta_Q(8), "p1")
        for parent in (p1, _without_coords(p1)):
            for fid in parent.facet_ids:
                got = facet_polytope(parent, fid)
                assert _stored(got) == _stored(_public_facet_polytope(parent, fid, rng)), fid

    def test_product_of_simplices(self):
        rng = random.Random(26)
        for a in range(1, 5):
            for b in range(1, 5):
                realized = (simplex(a), simplex(b))
                bare = tuple(map(_without_coords, realized))
                for p, q in (realized, bare, (realized[0], bare[1]), (bare[0], realized[1])):
                    expected = _public_product(p, q, rng)
                    assert _stored(product(p, q)) == _stored(expected), (a, b)

    def test_product_of_delta_q_facets(self):
        """Realized factors with different scales meet at their lcm; with
        either factor bare, the vertices of a realized one, in coordinate
        order, are not in label order."""
        rng = random.Random(26)
        p = facet_polytope(build_delta_Q(4), "p3")
        q = facet_polytope(build_delta_Q(4, "1/10", "1/3"), "d0")
        assert p.coord_scale != q.coord_scale
        assert _label_order_differs(q)
        for a, b in ((p, q), (q, p), (_without_coords(p), q), (q, _without_coords(p))):
            assert _stored(product(a, b)) == _stored(_public_product(a, b, rng))

    def test_unknown_facet(self):
        with pytest.raises(UnknownFacet):
            facet_polytope(simplex(3), "p1")

    @pytest.mark.parametrize("kind", ["int", "str", "none"])
    def test_a_facet_id_listed_twice_counts_once(self, kind):
        """Summing the bits of d0 twice at A_1 would give d1's bit, and A_1
        would lie on A_0's facets."""
        s = simplex(3)
        facets = [(f, s.facet_tags[f]) for f in s.facet_ids]
        coords = {
            "int": s.int_coords,
            "str": [tuple(map(str, c)) for c in s.int_coords],
            "none": (None,) * 4,
        }[kind]
        listed = [sorted(fs) for fs in s.vertex_facets]
        clean = SimplePolytope(3, facets, list(zip(coords, listed)))
        for v in range(4):
            twice = [fs + [fs[0]] if i == v else fs for i, fs in enumerate(listed)]
            got = SimplePolytope(3, facets, list(zip(coords, twice)))
            assert _stored(got) == _stored(clean), (kind, v)


class TestFaceOrderKey:
    """The bit-reversed sort key of ``faces_down_to`` gives the order of
    ascending vertex lists."""

    @staticmethod
    def _assert_list_order(poly, name):
        faces = poly.faces_down_to(0)
        assert list(faces) == sorted(faces, key=lambda f: (f[0], exactalg.set_bits(f[2]))), name

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_delta_q(self, k):
        self._assert_list_order(build_delta_Q(2 * k), k)

    def test_n8_covers(self):
        fam = build_family(4, "Z")
        for fid, pair in fam.boundary.items():
            self._assert_list_order(pair.polytope, fid)
