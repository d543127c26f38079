import functools
import random
from fractions import Fraction

import pytest

from toric_cobordism import cellular
from toric_cobordism.cellular import (
    CellularError,
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
    is_orientable_space,
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
from toric_cobordism.exactalg import gf2_basis, smith_normal_form
from toric_cobordism.family import build_family
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
    edges = poly.edges
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
        tuple(e.vertices for e in edges if not is_old(e)),
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
                assert (prof.ind, prof.pairs, prof.old_edges, prof.new_edges) == expected

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
        assert cw.euler_characteristic() == 1

    def test_absolute_count_formula_n4(self):
        fam = build_family(2, "GF2")
        cw = build_quotient_complex(fam.polytope, fam.pair.chi)
        from toric_cobordism.exactalg import gf2_rank

        expect = [0] * (fam.n + 1)
        for face in fam.polytope.faces:
            vecs = [
                fam.pair.chi.vectors[f]
                for f in face.facets
                if f in fam.pair.chi.vectors
            ]
            rank = gf2_rank(vecs) if vecs else 0
            expect[face.dim] += 2 ** (3 - rank)
        assert list(cw.cell_counts()) == expect

    def test_relative_drops_boundary_faces(self):
        fam = build_family(2, "GF2")
        cw = build_quotient_complex(fam.polytope, fam.pair.chi, ("p1", "p2", "p3"))
        for face in cw.face_list:
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
        assert cw.euler_characteristic() == 0
        cc = chain_complex(cw, "Z")
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
        assert is_orientable_space(build_family(2, "GF2")) is False
        assert is_orientable_space(build_family(3, "GF2")) is True
        # formula path only at n = 8
        assert is_orientable_space(build_family(4, "GF2")) is False

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
            bits = [sum(1 << c for c, v in row.items() if v % 2) for row in cc.boundaries[d]]
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
def _gf2_family(k):
    return build_family(k, "GF2")


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
        fam = _gf2_family(k)
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
        cc = cover_complex(_gf2_family(3).boundary["p1"], ring)
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
# reference for the representatives read off the keys of gf2_basis.

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
    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_every_face_matches_reference(self, k):
        fam = _gf2_family(k)
        for pair in (fam.pair, *(fam.boundary[p] for p in ("p1", "p2", "p3"))):
            cw = build_quotient_complex(pair.polytope, pair.chi)
            rank = cw.group_rank
            reps = {}
            for d in cw.cells:
                for fi, g in d:
                    reps.setdefault(fi, []).append(g)
            assert len(cw.face_list) == len(pair.polytope.faces)
            for fi, face in enumerate(cw.face_list):
                old = _reference_echelon(
                    sum(bit << i for i, bit in enumerate(pair.chi.vectors[fid]))
                    for fid in sorted(face.facets)
                    if fid in pair.chi.vectors
                )
                expected = sorted(
                    {_reference_reduce_coset(g, old) for g in range(1 << rank)}
                )
                assert reps[fi] == expected
                new = cw.face_basis[fi]
                assert [b & -b for b in new] == sorted(b & -b for b in old)
                for g in range(1 << rank):
                    assert cellular._reduce_coset(g, new) == _reference_reduce_coset(g, old)
