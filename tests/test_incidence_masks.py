"""The integer-mask routes against the frozenset code they replaced.

Each ``_reference_*`` function below is the frozenset implementation as
it stood before edges, isomorphisms, vertex maps, vertex indices and
vertex signs were read off ``vertex_masks`` and ``facet_vertex_masks``.
They run on the k = 2..6 families over both rings, their boundary
pieces, and the polytopes of ``test_polytope._edge_cases``.  Edges and
index pairs are compared as id and vertex sets, decoded by ``facesets``.
Its ``faces_by_vertex_subsets`` is the per-vertex subset walk that the
level-by-level ``faces_down_to`` replaced.
"""

import functools
import random
from itertools import islice

import pytest

from facesets import FaceSets, edge_sets, faces_by_vertex_subsets, profile_sets
from test_polytope import _edge_cases
from toric_cobordism import cellular
from toric_cobordism.cellular import (
    ConsistencyError,
    LinearFunctional,
    StrictModeViolation,
    TieError,
    draw_functional,
    vertex_indices,
)
from toric_cobordism.charpair import standard_pair
from toric_cobordism.family import build_family
from toric_cobordism.polytope import PolytopeError, SimplePolytope, build_delta_Q, product, simplex

# bijections compared per search; the largest searches have ~10^6
CAP = 12


@functools.cache
def _cases():
    polys = dict(_edge_cases())
    for k in range(2, 7):
        for ring in ("Z", "GF2"):
            fam = build_family(k, ring)
            polys[f"family {ring} k={k}"] = fam.polytope
            for fid, pair in fam.boundary.items():
                polys[f"boundary {fid} {ring} k={k}"] = pair.polytope
    return polys


def _families():
    for k in range(2, 7):
        for ring in ("Z", "GF2"):
            yield k, ring, build_family(k, ring)


# ---------------------------------------------------------------------------
# the frozenset references
# ---------------------------------------------------------------------------

def _reference_edges(poly):
    found = {}
    for i, fs in enumerate(poly.vertex_facets):
        for f in fs:
            found.setdefault(fs - {f}, []).append(i)
    if any(len(vs) != 2 for vs in found.values()):
        raise PolytopeError("edge with vertex count != 2")
    return tuple(
        FaceSets(1, key, frozenset(vs)) for key, vs in sorted(found.items(), key=lambda kv: kv[1])
    )


def _reference_facet_profile(poly):
    prof = {}
    for fid in poly.facet_ids:
        inter = sorted(
            len(poly.facet_vertices(fid) & poly.facet_vertices(g))
            for g in poly.facet_ids
            if g != fid
        )
        prof[fid] = (len(poly.facet_vertices(fid)), tuple(inter))
    return prof


def _reference_iter_isomorphisms(p, q, accept=None):
    if p.dim != q.dim or p.n_facets != q.n_facets or p.n_vertices != q.n_vertices:
        return
    prof_p = _reference_facet_profile(p)
    prof_q = _reference_facet_profile(q)
    if sorted(prof_p.values()) != sorted(prof_q.values()):
        return
    order = sorted(
        p.facet_ids,
        key=lambda f: (sum(1 for g in p.facet_ids if prof_p[g] == prof_p[f]), f),
    )
    candidates = {f: [g for g in q.facet_ids if prof_q[g] == prof_p[f]] for f in order}
    q_vertex_sets = set(q.vertex_facets)
    depth = {f: k for k, f in enumerate(order)}
    completed = [[] for _ in order]
    for fs in p.vertex_facets:
        if fs:
            completed[max(depth[f] for f in fs)].append(fs)
    assignment = {}
    used = set()

    def backtrack(k):
        if k == len(order):
            yield dict(assignment)
            return
        f = order[k]
        fv = p.facet_vertices(f)
        for g in candidates[f]:
            if g in used:
                continue
            gv = q.facet_vertices(g)
            if any(
                len(fv & p.facet_vertices(f2)) != len(gv & q.facet_vertices(g2))
                for f2, g2 in assignment.items()
            ):
                continue
            assignment[f] = g
            if all(
                frozenset(assignment[x] for x in fs) in q_vertex_sets for fs in completed[k]
            ) and (accept is None or accept(assignment, f)):
                used.add(g)
                yield from backtrack(k + 1)
                used.discard(g)
            del assignment[f]

    yield from backtrack(0)


def _reference_vertex_map(p, q, fmap):
    if p.n_vertices != q.n_vertices:
        return None
    index = {fs: i for i, fs in enumerate(q.vertex_facets)}
    images = tuple(index.get(frozenset(fmap.get(f) for f in fs)) for fs in p.vertex_facets)
    if None in images or len(set(images)) != len(images):
        return None
    return images


def _reference_vertex_indices(poly, functional, strict):
    values = cellular._scaled_values(poly, functional)
    if len(set(values)) != len(values):
        raise TieError("functional does not distinguish the vertices")
    nv = poly.n_vertices
    indegree = [0] * nv
    old_inward = [[] for _ in range(nv)]
    old_edges = []
    for e in _reference_edges(poly):
        a, b = sorted(e.vertices)
        head = a if values[a] > values[b] else b
        indegree[head] += 1
        originals = sum(1 for f in e.facets if poly.facet_tags.get(f) == "original")
        if originals == poly.dim - 1:
            old_edges.append(e.vertices)
            old_inward[head].append(e.vertices)
    if strict:
        per_vertex = [0] * nv
        for e in old_edges:
            for v in e:
                per_vertex[v] += 1
        bad = [v for v, c in enumerate(per_vertex) if c != 1]
        if bad:
            raise StrictModeViolation(f"vertices {bad} do not lie on exactly one old edge")
    pairs = {j: [] for j in range(1, poly.dim + 1)}
    for v in range(nv):
        for e in old_inward[v]:
            pairs[indegree[v]].append((v, e))
    if strict:
        seen = [v for ps in pairs.values() for v, _ in ps]
        if len(seen) != len(set(seen)):
            raise StrictModeViolation("a vertex contributes two index pairs")
    return (
        tuple(indegree),
        {j: tuple(ps) for j, ps in pairs.items()},
        tuple(old_edges),
    )


def _reference_vertex_signs(poly):
    pos = {fid: i for i, fid in enumerate(poly.facet_ids)}
    links = [[] for _ in range(poly.n_vertices)]
    for e in _reference_edges(poly):
        a, b = sorted(e.vertices)
        (ja,) = poly.vertex_facets[a] - e.facets
        (jb,) = poly.vertex_facets[b] - e.facets
        mask = sum(1 << pos[s] for s in e.facets)
        ratio = -cellular._sign(mask, pos[ja]) * cellular._sign(mask, pos[jb])
        links[a].append((b, ratio))
        links[b].append((a, ratio))
    eps = [None] * poly.n_vertices
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


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (PolytopeError, cellular.CellularError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _relabelled(poly, rng, realized):
    """``poly`` with its facets renamed and reordered and its vertices
    listed in another order; without coordinates the vertices are sorted
    by their new facet names, so their order changes too."""
    names = {fid: f"x{i}" for i, fid in enumerate(rng.sample(poly.facet_ids, poly.n_facets))}
    facets = [(names[fid], poly.facet_tags[fid]) for fid in poly.facet_ids]
    rng.shuffle(facets)
    vertices = [
        (c if realized else None, {names[f] for f in fs})
        for c, fs in zip(poly.vertex_coords, poly.vertex_facets)
    ]
    rng.shuffle(vertices)
    return SimplePolytope(poly.dim, facets, vertices)


@functools.cache
def _iso_pairs():
    rng = random.Random(20261019)
    pairs = []
    by_shape = {}
    for name, poly in _cases().items():
        pairs.append((name, poly, _relabelled(poly, rng, realized=len(pairs) % 2 == 0)))
        by_shape.setdefault((poly.dim, poly.n_facets, poly.n_vertices), []).append(poly)
    # same counts, possibly another combinatorial type
    for shape, polys in sorted(by_shape.items()):
        for p, q in zip(polys, polys[1:]):
            pairs.append((f"{shape}", p, q))
    for k in range(2, 7):
        fam = build_family(k, "Z")
        pairs.append((f"p3 ~ CP at k={k}", fam.boundary["p3"].polytope,
                      standard_pair("complex_projective", 2 * k - 1).polytope))
        pairs.append((f"p1 ~ product at k={k}", fam.boundary["p1"].polytope,
                      product(simplex(k - 1), simplex(k))))
        pairs.append((f"p1 ~ p2 at k={k}", fam.boundary["p1"].polytope,
                      fam.boundary["p2"].polytope))
    return pairs


class _PruningAccept:
    """Rejects a fixed random tenth of the (facet, image) pairs and
    records every call it gets."""

    def __init__(self, p, q, seed):
        rng = random.Random(seed)
        self.forbidden = {(f, g) for f in p.facet_ids for g in q.facet_ids if rng.random() < 0.1}
        self.calls = []

    def __call__(self, assignment, f):
        self.calls.append((tuple(assignment.items()), f))
        return (f, assignment[f]) not in self.forbidden


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestMasks:
    def test_masks_match_the_incidence_sets(self):
        for name, poly in _cases().items():
            for fs, m in zip(poly.vertex_facets, poly.vertex_masks):
                assert m == sum(1 << poly.facet_ids.index(f) for f in fs), name
            for fid, m in zip(poly.facet_ids, poly.facet_vertex_masks):
                assert m == sum(1 << v for v in poly.facet_vertices(fid)), name

    def test_not_computed_on_construction(self):
        """The masks are stored; the edges, faces and facet-set view are not built."""
        poly = build_family(3, "Z").polytope
        for attr in ("vertex_masks", "facet_vertex_masks"):
            assert attr in vars(poly)
        for attr in ("edge_masks", "faces", "vertex_facets", "_facet_vertex_sets"):
            assert attr not in vars(poly)

    def test_edges_order_and_contents(self):
        for name, poly in _cases().items():
            assert edge_sets(poly) == _reference_edges(poly), name
            vm = poly.vertex_masks
            assert [(a, b) for a, b, _ in poly.edge_masks] == [
                tuple(sorted(e.vertices)) for e in _reference_edges(poly)
            ], name
            assert all(mask == vm[a] & vm[b] for a, b, mask in poly.edge_masks), name

    def test_planted_three_vertex_edge_raises(self):
        """A vertex on S - {f} + {g} puts a third vertex on the edge S - {f}."""
        planted = 0
        for name, poly in _cases().items():
            if not name.startswith(("family", "boundary")):
                continue
            fs = poly.vertex_facets[0]
            f = sorted(fs)[0]
            for g in poly.facet_ids:
                extra = (fs - {f}) | {g}
                if g not in fs and extra not in poly.vertex_facets:
                    break
            else:
                continue
            facets = [(fid, poly.facet_tags[fid]) for fid in poly.facet_ids]
            vertices = [(None, v) for v in poly.vertex_facets] + [(None, extra)]
            bad = SimplePolytope(poly.dim, facets, vertices)
            with pytest.raises(PolytopeError, match="vertex count != 2"):
                _reference_edges(bad)
            with pytest.raises(PolytopeError, match="vertex count != 2"):
                bad.edge_masks
            planted += 1
        assert planted >= 40


class TestIsomorphismsOnMasks:
    def test_same_bijections_in_the_same_order(self):
        searched = 0
        for name, p, q in _iso_pairs():
            got = list(islice(p.iter_isomorphisms(q), CAP))
            expected = list(islice(_reference_iter_isomorphisms(p, q), CAP))
            # the items in order: insertion order is the search order
            assert [list(m.items()) for m in got] == [list(m.items()) for m in expected], name
            searched += bool(got)
        assert searched > 250

    def test_same_bijections_and_calls_with_a_pruning_accept(self):
        for i, (name, p, q) in enumerate(_iso_pairs()):
            ours, theirs = _PruningAccept(p, q, i), _PruningAccept(p, q, i)
            got = list(islice(p.iter_isomorphisms(q, ours), CAP))
            assert got == list(islice(_reference_iter_isomorphisms(p, q, theirs), CAP)), name
            assert ours.calls == theirs.calls, name

    def test_vertex_map(self):
        rng = random.Random(5)
        for name, p, q in _iso_pairs():
            fmaps = list(islice(p.iter_isomorphisms(q), 3))
            if not fmaps:
                fmaps = [dict(zip(p.facet_ids, q.facet_ids))]
            for fmap in list(fmaps):
                keys = sorted(fmap)
                swapped = dict(fmap)
                if len(keys) >= 2:
                    a, b = rng.sample(keys, 2)
                    swapped[a], swapped[b] = fmap[b], fmap[a]
                    fmaps.append({**fmap, a: fmap[b]})  # two facets onto one
                fmaps.append(swapped)
                if keys:
                    fmaps.append({f: g for f, g in fmap.items() if f != keys[0]})
                    fmaps.append({**fmap, keys[-1]: "nowhere"})
            for fmap in fmaps:
                assert p.vertex_map(q, fmap) == _reference_vertex_map(p, q, fmap), name
            assert p.vertex_map(simplex(1), {}) == _reference_vertex_map(p, simplex(1), {})


class TestVertexIndicesOnMasks:
    def _assert_same(self, poly, func, strict, name):
        expected = _outcome(_reference_vertex_indices, poly, func, strict)
        got = _outcome(functools.partial(vertex_indices, strict=strict), poly, func)
        if isinstance(got, cellular.IndexProfile):
            got = profile_sets(got)
        assert got == expected, name
        return got

    def test_families_match_the_reference(self):
        for k, ring, fam in _families():
            for seed in range(3):
                func = draw_functional(fam.polytope, seed)
                got = self._assert_same(fam.polytope, func, True, (k, ring, seed))
                assert isinstance(got, tuple)

    def test_boundaries_and_edge_cases_match_the_reference(self):
        rng = random.Random(11)
        for name, poly in _cases().items():
            if not poly.has_coords() or poly.dim == 0:
                continue
            ambient = len(poly.int_coords[0])
            func = LinearFunctional(tuple(rng.randint(-10**6, 10**6) for _ in range(ambient)))
            for strict in (False, True):
                self._assert_same(poly, func, strict, (name, strict))

    def test_planted_strict_mode_violation(self):
        """Retagging one original facet as a cut leaves vertices off old edges."""
        for k, ring, fam in _families():
            poly = fam.polytope
            facets = [(f, "cut" if f == "d0" else poly.facet_tags[f]) for f in poly.facet_ids]
            retagged = SimplePolytope(
                poly.dim, facets, list(zip(poly.vertex_coords, poly.vertex_facets))
            )
            func = draw_functional(retagged, 0)
            with pytest.raises(StrictModeViolation) as ours:
                vertex_indices(retagged, func)
            with pytest.raises(StrictModeViolation) as theirs:
                _reference_vertex_indices(retagged, func, True)
            assert str(ours.value) == str(theirs.value)


class TestVertexSignsOnMasks:
    def test_match_the_reference(self):
        for name, poly in _cases().items():
            if poly.dim == 0:
                continue
            assert _outcome(cellular._vertex_signs, poly) == _outcome(
                _reference_vertex_signs, poly
            ), name


class TestCellFloor:
    def test_never_above_the_count(self):
        cases = []
        for k in (2, 3):
            fam = build_family(k, "GF2")
            free = frozenset(fam.polytope.facet_ids) - fam.pair.chi.assigned()
            cases += [(fam.polytope, fam.pair.chi, free), (fam.polytope, fam.pair.chi, ())]
            for pair in fam.boundary.values():
                cases.append((pair.polytope, pair.chi, ()))
        for m in (2, 3, 4):
            pair = standard_pair("real_projective", m)
            cases.append((pair.polytope, pair.chi, ()))
        for poly, chi, excluded in cases:
            mask = sum(1 << poly.facet_ids.index(fid) for fid in excluded)
            for min_dim in range(poly.dim + 1):
                cw = cellular.build_quotient_complex(poly, chi, excluded, min_dim)
                floor = cellular._cell_floor(poly, chi.rank, mask, min_dim)
                assert 0 < floor <= sum(cw.cell_counts())

    def test_closed_projective_space(self):
        # the faces through one vertex of RP^m carry 3^m cells
        for m in (2, 5, 22):
            pair = standard_pair("real_projective", m)
            assert cellular._cell_floor(pair.polytope, m, 0, 0) == 3 ** m


class TestFacesDownToLevels:
    """The level-by-level facet sets give the tuple of the walk over the
    subsets of each vertex's facets, facet masks included."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_delta_q(self, k):
        poly = build_delta_Q(2 * k)
        assert poly.faces_down_to(0) == faces_by_vertex_subsets(poly, 0)

    def test_n8_covers_with_permuted_facet_ids(self):
        rng = random.Random(31)
        for fid, pair in build_family(4, "GF2").boundary.items():
            for realized in (True, False):
                poly = _relabelled(pair.polytope, rng, realized)
                for m in (0, 3, 7):
                    got = poly.faces_down_to(m)
                    assert got == faces_by_vertex_subsets(poly, m), (fid, realized, m)
                excluded = rng.getrandbits(poly.n_facets)
                got = poly.faces_down_to(0, excluded)
                assert got == faces_by_vertex_subsets(poly, 0, excluded), (fid, realized)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_relative_and_min_dim(self, k):
        fam = build_family(k, "GF2")
        poly = fam.polytope
        free = poly.facet_mask(frozenset(poly.facet_ids) - fam.pair.chi.assigned())
        assert free
        for m in range(-1, poly.dim + 2):
            for excluded in (0, free):
                got = poly.faces_down_to(m, excluded)
                assert got == faces_by_vertex_subsets(poly, m, excluded), (m, excluded)

    def test_first_found_facet_set_is_kept(self):
        """Facets a and b both hold vertices 0, 1 and 2, so {a}, {b} and
        {a, b} cut out one vertex mask: the first set, {a}, is kept, and
        {b} once a is excluded."""
        vertices = ["abc", "abd", "abe", "cde", "cdf", "cef", "def"]
        poly = SimplePolytope(3, [(f, "") for f in "abcdef"], [(None, v) for v in vertices])
        a, b = poly.facet_mask("a"), poly.facet_mask("b")
        assert poly.facet_vertex_masks[0] == poly.facet_vertex_masks[1] == 0b111
        for m in range(-1, 5):
            for excluded in (0, a, b, a | b, poly.facet_mask("cf")):
                got = poly.faces_down_to(m, excluded)
                assert got == faces_by_vertex_subsets(poly, m, excluded), (m, excluded)
        faces = {vm: (dim, fm) for dim, fm, vm in poly.faces_down_to(0)}
        assert faces[0b111] == (2, a)
        assert {vm: (dim, fm) for dim, fm, vm in poly.faces_down_to(0, a)}[0b111] == (2, b)
