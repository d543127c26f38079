import dataclasses
import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest

from facesets import edge_sets, face_sets, faces_by_vertex_subsets, profile_sets
from routes import d_squared_holds, dict_rows
from toric_cobordism import cellular
from toric_cobordism.cellular import (
    CellularError,
    ChainComplex,
    ConsistencyError,
    LinearFunctional,
    StrictModeViolation,
    TieError,
    build_quotient_complex,
    chain_complex,
    cover_complex,
    cover_homology,
    draw_functional,
    euler_characteristic,
    euler_sides,
    homology,
    homology_w_rel_boundary,
    distinguished_functional,
    relative_homology_table,
    small_cover_gf2_betti,
    small_cover_orientable_oracle,
    vertex_indices,
)
from toric_cobordism.charpair import (
    CharacteristicFunction,
    CharacteristicPair,
    orientable_small_cover,
    standard_pair,
)
from toric_cobordism.cli import main
from toric_cobordism.exactalg import gf2_basis, gf2_pack, smith_normal_form
from toric_cobordism.family import (
    build_family,
    reflection_count,
    total_space_orientable,
)
from toric_cobordism.polytope import product, simplex


def rp2_pair():
    return CharacteristicPair(
        simplex(2),
        CharacteristicFunction("GF2", 2, {"d0": (1, 0), "d1": (0, 1), "d2": (1, 1)}),
    )


def torus_pair():
    sq = product(simplex(1), simplex(1))
    return CharacteristicPair(
        sq,
        CharacteristicFunction(
            "GF2",
            2,
            {"L.d0": (1, 0), "L.d1": (1, 0), "R.d0": (0, 1), "R.d1": (0, 1)},
        ),
    )


def without_coords(pair):
    data = pair.to_json_dict()
    for v in data["polytope"]["vertices"]:
        v["coords"] = None
    return CharacteristicPair.from_json_dict(data)


def klein_pair():
    sq = product(simplex(1), simplex(1))
    return CharacteristicPair(
        sq,
        CharacteristicFunction(
            "GF2",
            2,
            {"L.d0": (1, 0), "L.d1": (1, 1), "R.d0": (0, 1), "R.d1": (0, 1)},
        ),
    )


CLOSED_PAIRS = [
    rp2_pair,
    torus_pair,
    klein_pair,
    lambda: build_family(2, "GF2").boundary["p3"],
]
CLOSED_IDS = ["rp2", "torus", "klein", "rp3_p3"]


class TestFunctionals:
    def test_deterministic(self):
        poly = build_family(2, "Z").polytope
        assert draw_functional(poly, 3) == draw_functional(poly, 3)

    def test_distinguishes(self):
        poly = build_family(2, "Z").polytope
        for seed in range(5):
            func = draw_functional(poly, seed)
            values = [func.value(c) for c in poly.vertex_coords]
            assert len(set(values)) == len(values)

    def test_tie_detected(self):
        poly = simplex(2)
        constant = LinearFunctional((1, 1, 1))
        with pytest.raises(TieError):
            vertex_indices(poly, constant, strict=False)

    def test_distinguished_functional_max_vertex(self):
        fam = build_family(2, "Z")
        func = distinguished_functional(fam.polytope, 4)
        values = [func.value(c) for c in fam.polytope.vertex_coords]
        top = max(range(len(values)), key=values.__getitem__)
        fs = fam.polytope.vertex_facets[top]
        assert fs == frozenset({"d1", "d2", "d4", "p2"})

    def test_integer_coefficients_print_as_before(self):
        func = draw_functional(build_family(2, "Z").polytope, 0)
        assert all(type(c) is int for c in func.coeffs)
        assert [str(c) for c in func.coeffs] == [str(Fraction(c)) for c in func.coeffs]

    def test_scaled_values_are_the_values_times_the_scale(self):
        """Seeded integer and rational functionals, ``LinearFunctional.value`` the oracle."""
        rng = random.Random(3)
        polys = [build_family(k, "Z").polytope for k in (2, 3)]
        polys += [fam.boundary[fid].polytope for fam in [build_family(3, "Z")] for fid in fam.boundary]
        polys.append(product(simplex(2), simplex(3)))
        for poly in polys:
            ambient = len(poly.vertex_coords[0])
            for trial in range(10):
                coeffs = [rng.randint(-10**6, 10**6) for _ in range(ambient)]
                if trial % 2:
                    coeffs = [Fraction(c, rng.randint(1, 30)) for c in coeffs]
                func = LinearFunctional(tuple(coeffs))
                expected = [poly.coord_scale * func.value(c) for c in poly.vertex_coords]
                assert cellular._scaled_values(poly, func) == expected


def _reference_vertex_indices(poly, functional, strict):
    """``vertex_indices`` on Fraction values, classifying an edge at each use."""
    values = [functional.value(c) for c in poly.vertex_coords]
    if len(set(values)) != len(values):
        raise TieError("functional does not distinguish the vertices")
    edges = edge_sets(poly)
    indegree = [0] * poly.n_vertices
    inward = [[] for _ in range(poly.n_vertices)]
    for e in edges:
        a, b = sorted(e.vertices)
        head = a if values[a] > values[b] else b
        indegree[head] += 1
        inward[head].append(e)

    def is_old(e):
        return sum(1 for f in e.facets if poly.facet_tags.get(f) == "original") == poly.dim - 1

    pairs = {j: [] for j in range(1, poly.dim + 1)}
    for v in range(poly.n_vertices):
        if indegree[v]:
            pairs[indegree[v]] += [(v, e.vertices) for e in inward[v] if is_old(e)]
    if strict:
        per_vertex = [sum(1 for e in edges if is_old(e) and v in e.vertices) for v in range(poly.n_vertices)]
        assert per_vertex == [1] * poly.n_vertices
    return (
        tuple(indegree),
        {j: tuple(ps) for j, ps in pairs.items()},
        tuple(e.vertices for e in edges if is_old(e)),
    )


class TestVertexIndices:
    def test_matches_the_fraction_reference(self):
        rng = random.Random(9)
        cases = [(build_family(k, "Z").polytope, True) for k in (2, 3, 4, 5)]
        cases += [(simplex(4), False), (product(simplex(2), simplex(2)), False)]
        for poly, strict in cases:
            for seed in range(6):
                func = draw_functional(poly, seed)
                if seed % 2:
                    func = LinearFunctional(tuple(Fraction(c, rng.randint(1, 9)) for c in func.coeffs))
                try:
                    expected = _reference_vertex_indices(poly, func, strict)
                except TieError:
                    with pytest.raises(TieError):
                        vertex_indices(poly, func, strict=strict)
                    continue
                prof = vertex_indices(poly, func, strict=strict)
                assert profile_sets(prof) == expected

    def test_simplex_complete_graph(self):
        for n in (2, 3, 4):
            poly = simplex(n)
            func = draw_functional(poly, 0)
            prof = vertex_indices(poly, func, strict=False)
            assert sorted(prof.ind) == list(range(n + 1))

    def test_truncated_n4(self):
        fam = build_family(2, "Z")
        func = draw_functional(fam.polytope, 0)
        prof = vertex_indices(fam.polytope, func)
        assert len(prof.old_edges) == 8
        assert prof.pair_counts()[4] == 1
        assert sum(prof.pair_counts().values()) == 8

    def test_old_edge_count_formula(self):
        # edges of the parent simplex minus those inside the two cut faces
        for k in (2, 3):
            n = 2 * k
            fam = build_family(k, "Z")
            func = draw_functional(fam.polytope, 1)
            prof = vertex_indices(fam.polytope, func)
            half = n // 2
            expected = (n + 1) * n // 2 - 2 * (half * (half - 1) // 2)
            assert len(prof.old_edges) == expected

    def test_index_histogram_seed_independent(self):
        fam = build_family(2, "Z")
        counts = set()
        for seed in range(5):
            prof = vertex_indices(fam.polytope, draw_functional(fam.polytope, seed))
            counts.add(tuple(sorted(prof.index_counts().items())))
        assert len(counts) == 1

    def test_pair_multiset_seed_independent(self):
        for k in (2, 3):
            fam = build_family(k, "Z")
            seen = set()
            for seed in range(5):
                prof = vertex_indices(
                    fam.polytope, draw_functional(fam.polytope, seed)
                )
                seen.add(tuple(sorted(prof.pair_counts().items())))
            assert len(seen) == 1

    def test_strict_rejects_simplex(self):
        poly = simplex(3)
        with pytest.raises(StrictModeViolation):
            vertex_indices(poly, draw_functional(poly, 0), strict=True)


class TestRelativeTableW:
    def test_shape_n4(self):
        fam = build_family(2, "Z")
        table = homology_w_rel_boundary(fam, draw_functional(fam.polytope, 0))
        assert table[0] == (1, ())
        assert table[7] == (1, ())
        for d in range(1, 8):
            if d % 2 == 0:
                assert table[d] == (0, ())
            else:
                assert table[d][1] == ()
        total_odd = sum(table[d][0] for d in range(1, 8, 2))
        assert total_odd == 8

    def test_requires_z_family(self):
        fam = build_family(2, "GF2")
        with pytest.raises(Exception):
            homology_w_rel_boundary(fam, draw_functional(fam.polytope, 0))


class TestQuotientComplex:
    def test_rp2_cell_counts(self):
        pair = rp2_pair()
        cw = build_quotient_complex(pair.polytope, pair.chi)
        assert cw.cell_counts() == (3, 6, 4)
        assert euler_characteristic(chain_complex(cw)) == 1

    def test_absolute_count_formula_n4(self):
        fam = build_family(2, "GF2")
        cw = build_quotient_complex(fam.polytope, fam.pair.chi)
        expect = [0] * (fam.n + 1)
        for face in face_sets(fam.polytope, fam.polytope.faces_down_to(0)):
            vecs = [
                fam.pair.chi.vectors[f]
                for f in face.facets
                if f in fam.pair.chi.vectors
            ]
            rank = _reference_gf2_rank(3, [gf2_pack(v) for v in vecs])
            expect[face.dim] += 2 ** (3 - rank)
        assert list(cw.cell_counts()) == expect

    def test_relative_drops_boundary_faces(self):
        fam = build_family(2, "GF2")
        cw = build_quotient_complex(fam.polytope, fam.pair.chi, ("p1", "p2", "p3"))
        for face in face_sets(fam.polytope, cw.face_list):
            assert not (face.facets & {"p1", "p2", "p3"})


class TestChainComplex:
    def test_rp2_integral(self):
        pair = rp2_pair()
        cw = build_quotient_complex(pair.polytope, pair.chi)
        cc = chain_complex(cw, "Z")
        assert homology(cc) == {0: (1, ()), 1: (0, (2,)), 2: (0, ())}
        assert euler_characteristic(cc) == 1

    def test_rp2_gf2(self):
        assert small_cover_gf2_betti(rp2_pair()) == (1, 1, 1)

    def test_torus(self):
        pair = torus_pair()
        cw = build_quotient_complex(pair.polytope, pair.chi)
        cc = chain_complex(cw, "Z")
        assert homology(cc) == {0: (1, ()), 1: (2, ()), 2: (1, ())}

    def test_klein_bottle(self):
        pair = klein_pair()
        cw = build_quotient_complex(pair.polytope, pair.chi)
        cc = chain_complex(cw, "Z")
        assert homology(cc) == {0: (1, ()), 1: (1, (2,)), 2: (0, ())}

    def test_rp3_from_boundary_piece(self):
        fam = build_family(2, "GF2")
        p3 = fam.boundary["p3"]
        cw = build_quotient_complex(p3.polytope, p3.chi)
        cc = chain_complex(cw, "Z")
        assert euler_characteristic(cc) == 0
        assert homology(cc) == {
            0: (1, ()),
            1: (0, (2,)),
            2: (0, ()),
            3: (1, ()),
        }
        assert small_cover_gf2_betti(p3) == (1, 1, 1, 1)

    def test_top_cells_enter_facets_negatively(self):
        # P carries the ambient orientation and F_j the frame (inward
        # normal n_j, frame of F_j), so the rule gives [P : F_j] = -1.
        pair = rp2_pair()
        cc = chain_complex(build_quotient_complex(pair.polytope, pair.chi), "Z")
        for row in cc.boundaries[2]:
            assert sorted(row.values()) == [-1, -1, -1]

    @pytest.mark.parametrize("pair_factory", CLOSED_PAIRS, ids=CLOSED_IDS)
    @pytest.mark.parametrize("bare", [False, True], ids=["coords", "bare"])
    def test_edge_boundaries_sum_to_zero(self, pair_factory, bare):
        pair = pair_factory()
        if bare:
            pair = without_coords(pair)
        cc = chain_complex(build_quotient_complex(pair.polytope, pair.chi), "Z")
        assert all(sum(row.values()) == 0 for row in cc.boundaries[1])

    @pytest.mark.parametrize("pair_factory", CLOSED_PAIRS, ids=CLOSED_IDS)
    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    def test_same_tables_without_coords(self, pair_factory, ring):
        pair = pair_factory()
        bare = without_coords(pair)
        assert not bare.polytope.has_coords()
        tables = [
            homology(chain_complex(build_quotient_complex(p.polytope, p.chi), ring))
            for p in (pair, bare)
        ]
        assert tables[0] == tables[1]

    def test_euler_poincare_consistency(self):
        for pair in (rp2_pair(), torus_pair(), klein_pair()):
            cw = build_quotient_complex(pair.polytope, pair.chi)
            cc = chain_complex(cw, "Z")
            table = homology(cc)
            chi_cells = euler_characteristic(cc)
            chi_betti = sum(
                (-1) ** d * table[d][0] for d in range(cc.dim + 1)
            )
            assert chi_cells == chi_betti


class TestRelativeOracle:
    def test_n4_top_vanishes(self):
        fam = build_family(2, "GF2")
        table = relative_homology_table(fam)
        assert table[4] == (0, ())
        assert table[0] == (1, ())

    def test_n6_top_is_z(self):
        fam = build_family(3, "GF2")
        table = relative_homology_table(fam, degrees=[6])
        assert table[6] == (1, ())

    def test_orientability_routes_agree(self):
        for k in (2, 3):
            fam = build_family(k, "GF2")
            top = relative_homology_table(fam, degrees=[fam.n])[fam.n]
            d_n = reflection_count(fam.n)[1]
            assert total_space_orientable(fam.n, d_n, top) is (k == 3)
        # parity rule and d_n only at n = 8
        assert total_space_orientable(8, reflection_count(8)[1]) is False

    def test_euler_identity(self):
        for k in (2, 3):
            fam = build_family(k, "GF2")
            func = draw_functional(fam.polytope, 0)
            cc = cover_complex(fam.pair, relative=True)
            lhs, rhs = euler_sides(cc, vertex_indices(fam.polytope, func))
            assert lhs == rhs


class TestCoverHomology:
    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    def test_relative_table_carries_the_basepoint(self, ring):
        fam = build_family(2, "GF2")
        table, cc = cover_homology(fam.pair, ring, relative=True)
        # every vertex lies on a cut facet, so no 0-cell survives
        assert cc.cell_counts == (0, 8, 20, 20, 8)
        assert table[0] == (1, ())
        assert homology(cc)[0] == (0, ())

    def test_z_pair_is_reduced_mod_2(self):
        for k in (2, 3):
            fam_z, fam_2 = build_family(k, "Z"), build_family(k, "GF2")
            for piece in ("p1", "p3"):
                for ring in ("Z", "GF2"):
                    assert cover_homology(fam_z.boundary[piece], ring)[0] == (
                        cover_homology(fam_2.boundary[piece], ring)[0]
                    )
            assert cover_homology(fam_z.pair, relative=True)[0] == (
                cover_homology(fam_2.pair, relative=True)[0]
            )

    def test_closed_pair_has_no_relative_complex(self):
        with pytest.raises(CellularError):
            cover_complex(rp2_pair(), relative=True)


class TestOracleAgreesWithCriterion:
    @pytest.mark.parametrize(
        "pair_factory",
        [
            rp2_pair,
            torus_pair,
            klein_pair,
            lambda: standard_pair("real_projective", 2),
            lambda: standard_pair("real_projective", 3),
            lambda: build_family(2, "GF2").boundary["p1"],
            lambda: build_family(2, "GF2").boundary["p3"],
            lambda: build_family(3, "GF2").boundary["p3"],
        ],
    )
    def test_agreement(self, pair_factory):
        pair = pair_factory()
        assert small_cover_orientable_oracle(pair) == orientable_small_cover(pair)


# -- reference: every boundary eliminated in full and on its own --------------
#
# _reference_invariant_factors is the sparse unit-pivot routine and
# _reference_gf2_rank the dense Gauss-Jordan rank as they stood before
# homology became one top-down sweep; they are kept here unchanged as the
# reference for that sweep.

def _reference_invariant_factors(m, ncols=None):
    rows = {}
    dense_input = True
    for i, row in enumerate(m):
        if isinstance(row, dict):
            dense_input = False
            r = {j: int(x) for j, x in row.items() if x != 0}
        else:
            r = {j: int(x) for j, x in enumerate(row) if x != 0}
        if r:
            rows[i] = r
    if not dense_input and ncols is None:
        raise ValueError("sparse input requires ncols")
    if not rows:
        return ()

    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)

    units = 0
    while True:
        best = None
        best_score = None
        for i, r in rows.items():
            rlen = len(r) - 1
            for j, x in r.items():
                if x in (1, -1):
                    score = rlen * (len(cols[j]) - 1)
                    if best_score is None or score < best_score:
                        best, best_score = (i, j), score
                        if score == 0:
                            break
            if best_score == 0:
                break
        if best is None:
            break
        pi, pj = best
        pval = rows[pi][pj]
        prow = rows.pop(pi)
        for j in prow:
            cols[j].discard(pi)
            if not cols[j]:
                del cols[j]
        targets = list(cols.get(pj, ()))
        for i in targets:
            r = rows[i]
            factor = r[pj] * pval
            for j, x in prow.items():
                if j == pj:
                    continue
                new = r.get(j, 0) - factor * x
                if new == 0:
                    if j in r:
                        del r[j]
                        cols[j].discard(i)
                        if not cols[j]:
                            del cols[j]
                else:
                    if j not in r:
                        cols.setdefault(j, set()).add(i)
                    r[j] = new
            del r[pj]
            cols[pj].discard(i)
            if not rows[i]:
                del rows[i]
        if pj in cols and not cols[pj]:
            del cols[pj]
        units += 1

    factors = [1] * units
    if rows:
        live_cols = sorted({j for r in rows.values() for j in r})
        index = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in range(len(rows))]
        for k, (_, r) in enumerate(sorted(rows.items())):
            for j, x in r.items():
                dense[k][index[j]] = x
        factors.extend(smith_normal_form(dense).invariant_factors)
    return tuple(factors)


def _reference_gf2_rank(ncols, rows):
    rows = [r for r in rows if r]
    rank = 0
    for col in range(ncols):
        bit = 1 << col
        piv = next((k for k in range(rank, len(rows)) if rows[k] & bit), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k] & bit:
                rows[k] ^= rows[rank]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _reference_homology(cc):
    factors = {}
    for d in range(1, cc.dim + 1):
        if not (cc.cell_counts[d] and cc.cell_counts[d - 1]):
            factors[d] = ()
        elif cc.ring == "Z":
            factors[d] = _reference_invariant_factors(
                cc.boundaries[d], ncols=cc.cell_counts[d - 1]
            )
        else:
            bits = [int(row) for row in cc.boundaries[d]]
            factors[d] = (1,) * _reference_gf2_rank(cc.cell_counts[d - 1], bits)
    table = {}
    for d in range(cc.dim + 1):
        below, above = factors.get(d, ()), factors.get(d + 1, ())
        table[d] = (
            cc.cell_counts[d] - len(below) - len(above),
            tuple(f for f in above if f > 1),
        )
    return table


@functools.lru_cache(maxsize=None)
def _family(k, ring="GF2"):
    return build_family(k, ring)


SWEEP_SOURCES = [
    *((f"n{2 * k}-{piece}", k, piece) for k in (2, 3, 4) for piece in ("p1", "p2", "p3")),
    *((f"rel-k{k}", k, None) for k in (2, 3, 4)),
]


class TestEliminationSweep:
    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    @pytest.mark.parametrize(
        "k,piece", [s[1:] for s in SWEEP_SOURCES], ids=[s[0] for s in SWEEP_SOURCES]
    )
    def test_matches_per_degree_reference(self, k, piece, ring):
        fam = _family(k)
        if piece is None:
            cc = cover_complex(fam.pair, ring, relative=True)
        else:
            cc = cover_complex(fam.boundary[piece], ring)
        table = homology(cc)
        assert table == _reference_homology(cc)
        for d in range(cc.dim + 1):
            assert homology(cc, degrees=[d]) == {d: table[d]}

    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    def test_top_degree_touches_only_the_top_matrix(self, ring, monkeypatch):
        cc = cover_complex(_family(3).boundary["p1"], ring)
        seen = []

        def recording(cc, d, skip):
            seen.append(d)
            return eliminate(cc, d, skip)

        eliminate = cellular._eliminate
        monkeypatch.setattr(cellular, "_eliminate", recording)
        homology(cc, degrees=[cc.dim])
        assert seen == [cc.dim]
        seen.clear()
        homology(cc, degrees=[2, 4])
        assert seen == list(range(cc.dim, 1, -1))

    def test_degrees_outside_the_complex(self):
        pair = rp2_pair()
        cc = chain_complex(build_quotient_complex(pair.polytope, pair.chi), "Z")
        assert homology(cc, degrees=[-1, 3, 1]) == {-1: (0, ()), 1: (0, (2,)), 3: (0, ())}
        assert homology(cc, degrees=[]) == {}


# -- reference: cosets from the fully reduced basis ----------------------------
#
# _reference_echelon and _reference_reduce_coset are cellular._echelon and
# cellular._reduce_coset as they stood when build_quotient_complex found
# each face's coset representatives by reducing all 2^rank group elements
# against the fully reduced basis; they are kept here unchanged as the
# reference for the representatives read off the keys of the face bases.

def _reference_echelon(vectors):
    basis = gf2_basis(vectors)
    keys = sorted(basis, reverse=True)
    for i, c in enumerate(keys):
        bit, v = 1 << c, basis[c]
        for low in keys[i + 1:]:
            if basis[low] & bit:
                basis[low] ^= v
    return tuple(sorted(basis.values(), reverse=True))


def _reference_reduce_coset(g, basis):
    for b in basis:
        low = b & -b
        if g & low:
            g ^= b
    return g


class TestCosetRepresentatives:
    @staticmethod
    def _builds(fam):
        """(pair, free facets, min_dim): the closed builds, the relative
        build off the free facets, and a restricted build of each."""
        free = frozenset(fam.polytope.facet_ids) - fam.pair.chi.assigned()
        for pair, drop in ((fam.pair, ()), (fam.pair, free),
                           *((fam.boundary[p], ()) for p in ("p1", "p2", "p3"))):
            for min_dim in (0, pair.polytope.dim - 2):
                yield pair, drop, min_dim

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_every_face_matches_reference(self, k):
        for pair, drop, min_dim in self._builds(_family(k)):
            poly = pair.polytope
            cw = build_quotient_complex(poly, pair.chi, drop, min_dim)
            rank = cw.group_rank
            reps = {}
            for d in cw.cells:
                for fi, g in d:
                    reps.setdefault(fi, []).append(g)
            assert cw.face_list == faces_by_vertex_subsets(poly, min_dim, poly.facet_mask(drop))
            assert len(reps) == len(cw.face_list)
            for fi, face in enumerate(face_sets(poly, cw.face_list)):
                old = _reference_echelon(
                    sum(bit << i for i, bit in enumerate(pair.chi.vectors[fid]))
                    for fid in sorted(face.facets)
                    if fid in pair.chi.vectors
                )
                expected = sorted(
                    {_reference_reduce_coset(g, old) for g in range(1 << rank)}
                )
                assert reps[fi] == expected
                # each vector of the basis is zero at the keys before it
                new = cw.face_basis[fi]
                keys = [b & -b for b in new]
                assert sorted(keys) == sorted(b & -b for b in old)
                assert not any(b & sum(keys[:i]) for i, b in enumerate(new))
                for g in range(1 << rank):
                    assert cellular._reduce_coset(g, new) == _reference_reduce_coset(g, old)


# -- Davis-Januszkiewicz: GF(2) Betti numbers of a small cover are its h-vector
#
# A generic functional's index counts are the h-vector of the polytope,
# so they give the GF(2) Betti numbers of every small cover over it
# without building a cell complex.

class TestHVectorRoute:
    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    @pytest.mark.parametrize("piece", ["p1", "p2", "p3"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_index_counts_are_the_gf2_betti_numbers(self, k, piece, ring):
        pair = _family(k, ring).boundary[piece]
        poly = pair.polytope
        counts = vertex_indices(poly, draw_functional(poly, 3), strict=False).index_counts()
        h_vector = tuple(counts.get(d, 0) for d in range(poly.dim + 1))
        assert h_vector == small_cover_gf2_betti(pair)


# -- the packed GF(2) rows and the integer-keyed assembly ---------------------

def _pack_mod2(row):
    """A dict row reduced mod 2 and bit packed."""
    return sum(1 << c for c, v in row.items() if v % 2)


def _matrix_digest(cc):
    rows = [[sorted(r.items()) for r in m] for m in dict_rows(cc)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _n8_complex(piece, ring):
    fam = _family(4)
    if piece is None:
        return cover_complex(fam.pair, ring, relative=True)
    return cover_complex(fam.boundary[piece], ring)


def _copy_rows(cc):
    """Mutable copies of the rows: dicts over Z, lists of ints over GF(2)."""
    if cc.ring == "GF2":
        return [list(m) for m in cc.boundaries]
    return [[dict(r) for r in m] for m in cc.boundaries]


def _by_hand(cc, rows):
    return ChainComplex(cc.ring, cc.cell_counts, tuple(rows))


def _drop_lowest_entry(rows, d):
    """Clear the lowest set bit of the middle packed row of degree d."""
    r = len(rows[d]) // 2
    rows[d][r] &= rows[d][r] - 1


class TestPackedPath:
    # sha256 of the sorted rows, recorded with the tuple-keyed assembly
    # and the dict-based d o d check; a packed GF(2) row is expanded to
    # its sorted [column, 1] pairs
    @pytest.mark.parametrize(
        "piece,ring,digest",
        [
            ("p1", "GF2", "7c2f6a5a0b218f066c2236950f530ff3ea4125d6cd9509219474e760369bd7f9"),
            ("p3", "Z", "c7830c5e3bc411c321422a25a4db59e5ea2ef951a3c1622317593f22c71b9088"),
            (None, "Z", "35f1c12e97c6f2f23248057c4e04da9250ae3906e7421abb31a276675abb28ad"),
        ],
        ids=["n8-p1-GF2", "n8-p3-Z", "rel-k4-Z"],
    )
    def test_assembled_matrices_are_pinned(self, piece, ring, digest):
        assert _matrix_digest(_n8_complex(piece, ring)) == digest

    def test_packed_rows_are_the_dict_rows(self):
        """The packed rows, expanded, are the reference assembly's dict
        rows, and a row's len is its number of entries."""
        pair = _family(4).boundary["p1"]
        cw = _quotient(pair, False, 0)
        cc = chain_complex(cw, "GF2")
        reference = _reference_rows(cw, "GF2")
        assert dict_rows(cc) == [list(m) for m in reference]
        for mat, ref in zip(cc.boundaries, reference):
            assert [len(row) for row in mat] == [len(row) for row in ref]

    @pytest.mark.parametrize("d", range(1, 8))
    def test_dropped_gf2_entry_is_caught(self, d):
        cc = _n8_complex("p1", "GF2")
        rows = _copy_rows(cc)
        _drop_lowest_entry(rows, d)
        assert not d_squared_holds(_by_hand(cc, rows))

    @pytest.mark.parametrize("d", range(1, 8))
    def test_flipped_z_sign_is_caught(self, d):
        cc = _n8_complex("p3", "Z")
        rows = _copy_rows(cc)
        row = rows[d][len(rows[d]) // 2]
        col = next(iter(row))
        row[col] = -row[col]
        assert not d_squared_holds(_by_hand(cc, rows))

    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    def test_hand_built_complex_gets_the_same_verdict(self, ring):
        cc = _n8_complex(None, ring)
        by_hand = _by_hand(cc, _copy_rows(cc))
        assert d_squared_holds(by_hand)
        assert homology(by_hand) == homology(cc)

    def test_gf2_entries_are_read_mod_2(self):
        """The Z rows of the same complex, negated and with an entry 2
        added, pack mod 2 to the GF(2) rows: odd entries count as 1 and
        even ones as 0."""
        cc = _n8_complex("p1", "GF2")
        z = _n8_complex("p1", "Z")
        rows = [[{c: -v for c, v in r.items()} for r in m] for m in z.boundaries]
        row = rows[3][0]
        row[min(set(range(cc.cell_counts[2])) - set(row))] = 2
        by_hand = _by_hand(cc, [tuple(map(_pack_mod2, m)) for m in rows])
        assert d_squared_holds(by_hand)
        assert by_hand.boundaries == cc.boundaries
        assert homology(by_hand) == homology(cc)


# -- restricted complexes: only the degrees asked for -------------------------

RESTRICTED_SOURCES = [
    *((f"n8-{piece}", 4, piece) for piece in ("p1", "p3")),
    *((f"rel-k{k}", k, None) for k in (2, 3, 4)),
]


def _source_pair(k, piece):
    fam = _family(k)
    return (fam.pair, True) if piece is None else (fam.boundary[piece], False)


class TestRestrictedComplex:
    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    @pytest.mark.parametrize(
        "k,piece", [s[1:] for s in RESTRICTED_SOURCES], ids=[s[0] for s in RESTRICTED_SOURCES]
    )
    def test_one_degree_matches_the_full_table(self, k, piece, ring):
        pair, relative = _source_pair(k, piece)
        full, full_cc = cover_homology(pair, ring, relative=relative)
        assert full_cc.lowest_degree == 0
        for d in range(full_cc.dim + 1):
            table, cc = cover_homology(pair, ring, relative=relative, degrees=[d])
            assert table == {d: full[d]}
            assert cc.lowest_degree == (d - 1 if d >= 3 else 0)

    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    @pytest.mark.parametrize(
        "k,piece", [s[1:] for s in RESTRICTED_SOURCES], ids=[s[0] for s in RESTRICTED_SOURCES]
    )
    def test_built_rows_are_the_full_rows(self, k, piece, ring):
        pair, relative = _source_pair(k, piece)
        full = cover_complex(pair, ring, relative=relative)
        for min_dim in range(1, full.dim + 1):
            cc = cover_complex(pair, ring, relative=relative, min_dim=min_dim)
            assert cc.lowest_degree == min_dim + 1
            assert cc.cell_counts[min_dim:] == full.cell_counts[min_dim:]
            assert not any(cc.cell_counts[:min_dim])
            assert cc.boundaries[min_dim + 1:] == full.boundaries[min_dim + 1:]
            assert not any(cc.boundaries[:min_dim + 1])

    @pytest.mark.parametrize("k,piece", [(3, None), (4, "p3")], ids=["rel-k3", "n8-p3"])
    def test_fault_in_a_built_boundary_is_caught(self, k, piece):
        pair, relative = _source_pair(k, piece)
        for ring in ("Z", "GF2"):
            n = pair.polytope.dim
            cc = cover_homology(pair, ring, relative=relative, degrees=[n])[1]
            assert cc.lowest_degree == n - 1
            assert d_squared_holds(cc)
            for d in (n - 1, n):
                rows = _copy_rows(cc)
                if ring == "Z":
                    row = rows[d][len(rows[d]) // 2]
                    col = next(iter(row))
                    row[col] = -row[col]
                else:
                    _drop_lowest_entry(rows, d)
                planted = dataclasses.replace(cc, boundaries=tuple(rows))
                assert not d_squared_holds(planted)

    def test_unbuilt_degrees_raise(self):
        fam = _family(3)
        n = fam.n
        table, cc = cover_homology(fam.pair, "Z", relative=True, degrees=[n])
        assert table == {n: (1, ())}
        assert homology(cc, degrees=[n - 1, n]) == relative_homology_table(fam, [n - 1, n])
        for d in range(n - 1):
            with pytest.raises(CellularError):
                homology(cc, degrees=[d, n])
        with pytest.raises(CellularError):
            homology(cc)
        with pytest.raises(CellularError):
            euler_characteristic(cc)
        cw = build_quotient_complex(fam.polytope, fam.pair.chi, ("p1", "p2", "p3"), n - 2)
        with pytest.raises(CellularError):
            euler_characteristic(chain_complex(cw))


# -- the stepped coset: one test per boundary entry ---------------------------

def _step_cases():
    """(id, pair, relative, min_dim): the family pairs over both rings,
    the n = 8 covers, and relative and restricted complexes."""
    cases = []
    for ring in ("Z", "GF2"):
        for k in (2, 3, 4):
            pair = _family(k, ring).pair
            cases.append((f"{ring}-k{k}-full", pair, False, 0))
            cases.append((f"{ring}-k{k}-rel", pair, True, 0))
    fam = _family(4)
    for piece in ("p1", "p2", "p3"):
        cases.append((f"n8-{piece}", fam.boundary[piece], False, 0))
    for source, pair, relative in (("rel-k4", fam.pair, True), ("n8-p3", fam.boundary["p3"], False)):
        n = pair.polytope.dim
        for min_dim in (1, 2, n - 2):
            cases.append((f"{source}-min{min_dim}", pair, relative, min_dim))
    return cases


def _quotient(pair, relative, min_dim):
    chi = pair.chi if pair.ring == "GF2" else pair.chi.mod2()
    free = frozenset(pair.polytope.facet_ids) - chi.assigned() if relative else ()
    return build_quotient_complex(pair.polytope, chi, free, min_dim)


STEP_CASES = _step_cases()


# _reference_face_boundaries is cellular._face_boundaries as it stood
# before chain_complex built its step table itself; _reference_rows
# assembles the boundary rows from it with the full _reference_reduce_coset
# reduction of each coset in the subface, which the stepped coset replaced.

def _reference_face_boundaries(cw, lowest_degree):
    poly = cw.polytope
    pos = {fid: i for i, fid in enumerate(poly.facet_ids)}
    eps = cellular._vertex_signs(poly) if lowest_degree <= 1 else None
    faces = face_sets(poly, cw.face_list)
    masks = [sum(1 << pos[s] for s in f.facets) for f in faces]
    index = {mask: i for i, mask in enumerate(masks)}
    boundaries = {}
    for fi, (face, mask) in enumerate(zip(faces, masks)):
        if face.dim < max(1, lowest_degree):
            continue
        subs = []
        for j in range(poly.n_facets):
            if mask >> j & 1 or (gi := index.get(mask | 1 << j)) is None:
                continue
            s = cellular._sign(mask, j)
            if face.dim == 1:
                (v,) = faces[gi].vertices
                s *= eps[v]
            subs.append((gi, s))
        boundaries[fi] = subs
    return boundaries


def _reference_rows(cw, ring):
    lowest = cw.min_dim + 1 if cw.min_dim else 0
    subfaces = _reference_face_boundaries(cw, lowest)
    boundaries = [() for _ in range(max(1, lowest))]
    for d in range(max(1, lowest), cw.polytope.dim + 1):
        lower = {cell: i for i, cell in enumerate(cw.cells[d - 1])}
        boundaries.append([
            {
                lower[gi, _reference_reduce_coset(g, cw.face_basis[gi])]: sign if ring == "Z" else 1
                for gi, sign in subfaces.get(fi, ())
            }
            for fi, g in cw.cells[d]
        ])
    return tuple(boundaries)


# Faces whose steps a test plants a fault in: every degree of the closed
# n = 8 p1 cover (a 7-manifold), and every built degree of the relative
# k = 4 complex restricted to cells of dimension 2 and up.
PLANT_CASES = [("n8-p1", d) for d in range(1, 8)] + [("rel-k4-min2", d) for d in range(3, 9)]


def _step_case(source):
    return _quotient(*next(c[1:] for c in STEP_CASES if c[0] == source))


def _planted_steps(source, d, change, monkeypatch):
    """The quotient complex of ``source``, with ``change`` applied to the
    step list of its first d-face that has steps."""
    cw = _step_case(source)
    face_steps = cellular._face_steps

    def planted(*args):
        steps = face_steps(*args)
        fi = next(fi for fi in sorted(steps) if cw.face_list[fi][0] == d and steps[fi])
        steps[fi] = change(steps[fi])
        return steps

    monkeypatch.setattr(cellular, "_face_steps", planted)
    return cw


def _with_sign(step, sign):
    return (*step[:3], sign)


class TestSteppedCoset:
    @pytest.mark.parametrize(
        "pair,relative,min_dim", [c[1:] for c in STEP_CASES], ids=[c[0] for c in STEP_CASES]
    )
    def test_step_is_the_full_reduction(self, pair, relative, min_dim):
        """Over Z the rows are the reference rows; over GF(2) they are
        the Z rows of the same quotient reduced mod 2."""
        cw = _quotient(pair, relative, min_dim)
        z = chain_complex(cw, "Z")
        assert z.boundaries == _reference_rows(cw, "Z")
        gf2 = chain_complex(cw, "GF2")
        assert gf2.boundaries == tuple(tuple(map(_pack_mod2, m)) for m in z.boundaries)
        for cc in (z, gf2):
            assert sum(len(row) for mat in cc.boundaries for row in mat)

    @pytest.mark.parametrize(
        "pair,relative,min_dim",
        [c[1:] for c in STEP_CASES if c[0] in ("GF2-k3-rel", "n8-p1", "rel-k4-min2")],
        ids=["GF2-k3-rel", "n8-p1", "rel-k4-min2"],
    )
    def test_planted_wrong_step_is_caught(self, pair, relative, min_dim, monkeypatch):
        """r plus a vector of the face's own group steps into the same
        coset, but leaves a bit at a key, so no cell has it."""
        cw = _quotient(pair, relative, min_dim)
        reduce_coset = cellular._reduce_coset

        def planted(g, basis):
            return reduce_coset(g, basis) ^ (basis[0] if basis else 0)

        monkeypatch.setattr(cellular, "_reduce_coset", planted)
        for ring in ("Z", "GF2"):
            with pytest.raises(ConsistencyError, match="boundary cell missing"):
                chain_complex(cw, ring)

    @pytest.mark.parametrize("source,d", PLANT_CASES)
    def test_dropped_step_fails_the_fused_check(self, source, d, monkeypatch):
        """A face of dimension d loses one subface; the one assembly
        pass finds d o d != 0 in degree d, or in degree d + 1 when the
        degree below d was not built, on both rings."""
        for ring in ("Z", "GF2"):
            chain_complex(_step_case(source), ring)
        cw = _planted_steps(source, d, lambda subs: subs[1:], monkeypatch)
        for ring in ("Z", "GF2"):
            with pytest.raises(ConsistencyError, match="d o d != 0"):
                chain_complex(cw, ring)

    @pytest.mark.parametrize("k,piece", [(3, "p1"), (3, "p3"), (4, "p1"), (4, "p3")])
    def test_flipped_facet_vector_bit_is_caught(self, k, piece):
        """A step read off a facet vector with one bit flipped, against
        the bases built from the true vectors, lands on no cell or
        breaks d o d, on both rings."""
        cw = _quotient(_family(k).boundary[piece], False, 0)
        flips = 0
        for j, v in enumerate(cw.facet_vectors):
            for bit in range(cw.group_rank):
                vectors = list(cw.facet_vectors)
                vectors[j] = v ^ 1 << bit
                planted = dataclasses.replace(cw, facet_vectors=tuple(vectors))
                for ring in ("Z", "GF2"):
                    with pytest.raises(ConsistencyError):
                        chain_complex(planted, ring)
                flips += 1
        assert flips == len(cw.facet_vectors) * cw.group_rank

    @pytest.mark.parametrize(
        "pair,relative,min_dim", [c[1:] for c in STEP_CASES], ids=[c[0] for c in STEP_CASES]
    )
    def test_z_rows_keep_the_step_order(self, pair, relative, min_dim):
        """Each Z row lists its columns in the order of its face's steps.
        The unit-pivot elimination takes a row's first +-1 entry as its
        pivot, so this order fixes how much fill the sweep makes."""
        cw = _quotient(pair, relative, min_dim)
        lowest = cw.min_dim + 1 if cw.min_dim else 0
        steps = cellular._face_steps(cw, lowest)
        cc = chain_complex(cw, "Z")
        for d in range(max(1, lowest), cc.dim + 1):
            lower = {cell: i for i, cell in enumerate(cw.cells[d - 1])}
            for (fi, g), row in zip(cw.cells[d], cc.boundaries[d]):
                assert list(row) == [
                    lower[gi, g ^ r if g & low else g] for gi, low, r, _ in steps.get(fi, ())
                ]


class TestInPassZCheck:
    """Faults planted in one face's steps, which the Z assembly pass
    finds by itself: a flipped sign breaks d o d on the face lattice, a
    subface reached twice gives a row with fewer entries than its face
    has steps, and a sign other than +-1 is refused before any row is
    built."""

    @pytest.mark.parametrize("source,d", PLANT_CASES)
    def test_flipped_sign_fails_only_over_z(self, source, d, monkeypatch):
        """GF(2) reads no sign, so its rows, and its check, are unchanged."""
        unplanted = chain_complex(_step_case(source), "GF2")
        cw = _planted_steps(
            source, d, lambda subs: [_with_sign(subs[0], -subs[0][3]), *subs[1:]], monkeypatch
        )
        with pytest.raises(ConsistencyError, match="d o d != 0"):
            chain_complex(cw, "Z")
        assert chain_complex(cw, "GF2") == unplanted

    @pytest.mark.parametrize("source,d", PLANT_CASES)
    def test_duplicated_step_is_caught(self, source, d, monkeypatch):
        """Over Z the row has one entry where its face has two steps.
        Over GF(2) the doubled column cancels in the XOR of the rows one
        degree down, which is seen only where that degree was built: in
        the lowest built degree the row's bit is set twice, to the same
        row."""
        unplanted = chain_complex(_step_case(source), "GF2")
        cw = _planted_steps(source, d, lambda subs: [subs[0], *subs], monkeypatch)
        with pytest.raises(ConsistencyError, match="reached twice"):
            chain_complex(cw, "Z")
        if d > max(1, unplanted.lowest_degree):
            with pytest.raises(ConsistencyError, match="d o d != 0"):
                chain_complex(cw, "GF2")
        else:
            assert chain_complex(cw, "GF2") == unplanted

    @pytest.mark.parametrize("source,d", [("n8-p1", 1), ("n8-p1", 5), ("rel-k4-min2", 3)])
    def test_sign_two_is_refused(self, source, d, monkeypatch):
        cw = _planted_steps(
            source, d, lambda subs: [*subs[:-1], _with_sign(subs[-1], 2)], monkeypatch
        )
        for ring in ("Z", "GF2"):
            with pytest.raises(ConsistencyError, match="not \\+-1"):
                chain_complex(cw, ring)


def _faces_of_dim(cw, d):
    return [fi for fi, (dim, _, _) in enumerate(cw.face_list) if dim == d]


# Hand-built step tables over faces 0 (top), 1 and 2 (one down) and 3 (two
# down), as (subface, low bit, r, sign): the face check reads only the
# subfaces and the signs.
def _lattice(*paths):
    """Face 0 steps to faces 1 and 2 with sign +1; ``paths`` lists, per
    one-down face, the signs of its steps to face 3."""
    return {
        0: [(1, 0, 0, 1), (2, 0, 0, 1)],
        **{gi: [(3, 0, 0, t) for t in signs] for gi, signs in enumerate(paths, 1)},
    }


class TestFaceSigns:
    @pytest.mark.parametrize(
        "pair,relative,min_dim", [c[1:] for c in STEP_CASES], ids=[c[0] for c in STEP_CASES]
    )
    def test_every_step_table_passes(self, pair, relative, min_dim):
        """Every face of every degree above the lowest built boundary."""
        cw = _quotient(pair, relative, min_dim)
        lowest = cw.min_dim + 1 if cw.min_dim else 0
        steps = cellular._face_steps(cw, lowest)
        checked = 0
        for d in range(max(1, lowest) + 1, cw.polytope.dim + 1):
            faces = _faces_of_dim(cw, d)
            cellular._check_face_signs(steps, faces)
            checked += len(faces)
        assert checked

    def test_two_cancelling_paths_pass(self):
        cellular._check_face_signs(_lattice([1], [-1]), [0])

    @pytest.mark.parametrize(
        "paths",
        [([1, 1], [-1, -1]), ([1], [1]), ([1], [])],
        ids=["four-paths", "same-sign", "one-path"],
    )
    def test_other_paths_are_refused(self, paths):
        """Four paths with signs + + - - sum to zero, but a face two down
        is reached along the two orders of two facets only.  (Two paths
        through one face are one row reaching a column twice, which the
        assembly pass refuses before this check.)"""
        with pytest.raises(ConsistencyError, match="d o d != 0"):
            cellular._check_face_signs(_lattice(*paths), [0])

    @pytest.mark.parametrize("d", range(1, 8))
    def test_every_flipped_sign_is_caught(self, d, monkeypatch):
        """For each d-face of the closed n = 8 p1 cover in turn, its first
        step's sign flipped: the Z assembly pass raises, and the dict
        composition of ``routes`` fails on the reference rows with that
        entry flipped in each of the face's cells."""
        cw = _step_case("n8-p1")
        steps = cellular._face_steps(cw, 0)
        subfaces = _reference_face_boundaries(cw, 0)
        reference = _reference_rows(cw, "Z")
        counts = cw.cell_counts()
        assert d_squared_holds(ChainComplex("Z", counts, reference))
        faces = _faces_of_dim(cw, d)
        assert faces
        for fi in faces:
            first = steps[fi][0]
            planted = {**steps, fi: [_with_sign(first, -first[3]), *steps[fi][1:]]}
            monkeypatch.setattr(cellular, "_face_steps", lambda *args: planted)
            with pytest.raises(ConsistencyError, match="d o d != 0"):
                chain_complex(cw, "Z")
            gi = subfaces[fi][0][0]
            rows = list(reference)
            rows[d] = [
                {c: -v if cw.cells[d - 1][c][0] == gi else v for c, v in row.items()}
                if cell[0] == fi else row
                for cell, row in zip(cw.cells[d], reference[d])
            ]
            assert not d_squared_holds(ChainComplex("Z", counts, tuple(rows)))


def _repointed(source, dim):
    """A step change that points a face's first step at the first face of
    dimension ``dim`` of ``source``, keeping its coset step and sign."""
    cw = _step_case(source)
    gi = _faces_of_dim(cw, dim)[0]
    return lambda subs: [(gi, *subs[0][1:]), *subs[1:]]


# (source, d, down): the first step of a d-face pointed at a face of
# dimension d - down, two down only where the complex has such a face
# (rel-k4-min2 keeps no 1-face).
MISSING_CASES = [(s, d, 0) for s, d in PLANT_CASES] + [
    (s, d, 2) for s, d in PLANT_CASES if d >= 2 and (s, d) != ("rel-k4-min2", 3)
]


class TestCosetLists:
    @pytest.mark.parametrize(
        "pair,relative,min_dim", [c[1:] for c in STEP_CASES], ids=[c[0] for c in STEP_CASES]
    )
    def test_lists_give_the_cell_columns(self, pair, relative, min_dim):
        """Read at each face's cosets, the lists one degree below each
        built boundary give the columns 0..count - 1 in cell order, and
        None at every other coset."""
        cw = _quotient(pair, relative, min_dim)
        size = 1 << cw.group_rank
        lowest = cw.min_dim + 1 if cw.min_dim else 0
        for d in range(max(1, lowest), cw.polytope.dim + 1):
            cells = cw.cells[d - 1]
            lists = cellular._coset_lists(cells, _faces_of_dim(cw, d - 1), size)
            assert [lists[fi][g] for fi, g in cells] == list(range(len(cells)))
            cosets = {}
            for fi, g in cells:
                cosets.setdefault(fi, set()).add(g)
            assert lists.keys() == cosets.keys()
            for fi, table in lists.items():
                assert len(table) == size
                assert [g for g in range(size) if table[g] is not None] == sorted(cosets[fi])

    @pytest.mark.parametrize("source,d,down", MISSING_CASES)
    def test_step_outside_the_degree_below_is_missing(self, source, d, down, monkeypatch):
        """A subface with no coset list raises the checked error, not a
        lookup error, on both rings."""
        cw = _planted_steps(source, d, _repointed(source, d - down), monkeypatch)
        for ring in ("Z", "GF2"):
            with pytest.raises(ConsistencyError, match="boundary cell missing from complex"):
                chain_complex(cw, ring)

    @pytest.mark.parametrize("down", [0, 2])
    def test_missing_subface_fails_the_cli_check(self, down, tmp_path, monkeypatch, capsys):
        """The planted step on the closed n = 8 p1 cover read from a pair
        file: the oracle exits 1 with the one error line, on both rings."""
        path = tmp_path / "n8-p1.json"
        path.write_text(json.dumps(_family(4).boundary["p1"].to_json_dict()))
        _planted_steps("n8-p1", 5, _repointed("n8-p1", 5 - down), monkeypatch)
        for ring in ("z", "z2"):
            assert main(["oracle", "--in", str(path), "--ring", ring]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "check failed: boundary cell missing from complex\n"


class TestRepresentativeCheck:
    def test_key_mask_verdict_is_the_reduction_verdict(self):
        rng = random.Random(20261019)
        planted = 0
        for _ in range(200):
            rank = rng.randint(1, 10)
            keyed = gf2_basis(rng.getrandbits(rank) | 1 << rng.randrange(rank)
                              for _ in range(rng.randint(1, rank)))
            basis = tuple(keyed[c] for c in sorted(keyed))
            keys = sum(b & -b for b in basis)
            assert keys == sum(1 << c for c in keyed)
            reps = [g for g in range(1 << rank) if not g & keys]
            # planted: representatives with a bit at a key
            unreduced = [g | 1 << rng.choice(sorted(keyed)) for g in rng.choices(reps, k=3)]
            planted += len(unreduced)
            for g in reps + unreduced:
                assert (not g & keys) == (cellular._reduce_coset(g, basis) == g)
        assert planted > 300


class TestCellCeiling:
    @pytest.mark.parametrize("min_dim", [0, 3])
    def test_ceiling_is_the_cell_count(self, min_dim, monkeypatch):
        fam = _family(3)
        cw = build_quotient_complex(fam.polytope, fam.pair.chi, (), min_dim)
        total = sum(cw.cell_counts())
        monkeypatch.setattr(cellular, "ORACLE_MAX_CELLS", total)
        assert build_quotient_complex(fam.polytope, fam.pair.chi, (), min_dim) == cw
        monkeypatch.setattr(cellular, "ORACLE_MAX_CELLS", total - 1)
        with pytest.raises(CellularError, match=f"would have {total} cells"):
            build_quotient_complex(fam.polytope, fam.pair.chi, (), min_dim)


class TestRestrictedFaces:
    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    def test_restricted_build_leaves_the_faces_cache_empty(self, ring):
        fam = build_family(3, ring)
        poly = fam.pair.polytope
        n = poly.dim
        table, cc = cover_homology(fam.pair, "Z", relative=True, degrees=[n])
        assert cc.lowest_degree == n - 1
