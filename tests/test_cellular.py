import pytest

from toric_cobordism.cellular import (
    LinearFunctional,
    StrictModeViolation,
    TieError,
    build_quotient_complex,
    chain_complex,
    draw_functional,
    euler_characteristic,
    euler_cross_check,
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


class TestVertexIndices:
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
        assert is_orientable_space(build_family(4, "GF2"), use_oracle=False) is False

    def test_euler_identity(self):
        for k in (2, 3):
            fam = build_family(k, "GF2")
            func = draw_functional(fam.polytope, 0)
            lhs, rhs = euler_cross_check(fam, func)
            assert lhs == rhs


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
