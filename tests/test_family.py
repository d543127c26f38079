from dataclasses import replace
from fractions import Fraction

import pytest

from toric_cobordism import charpair, family
from toric_cobordism.charpair import (
    ValidityReport,
    validate,
    verify_delta_translation,
)
from toric_cobordism.exactalg import (
    det_sign,
    is_direct_summand,
    mat_vec,
    permutation_sign,
)
from toric_cobordism.family import (
    CUT_FACETS,
    FamilyDescriptor,
    FamilyError,
    InvalidKind,
    boundary_translation,
    build_family,
    f_matrix,
    glue_certificate,
    gluing_translation,
    h_matrix,
    hs_matrix,
    mu,
    mu_rows,
    phi_facet_map,
    reflection_count,
    rho,
    xi,
    xi_rows,
)

EVEN_NS = (4, 6, 8, 10)


class TestXi:
    def test_table_n4(self):
        assert xi_rows(4) == (
            (1, 0, 0),
            (1, 1, 0),
            (0, 1, 0),
            (0, 0, 1),
            (0, 1, 1),
        )

    def test_n6_middle_row(self):
        assert xi_rows(6)[2] == (1, 1, 1, 0, 0)

    def test_last_row_shape(self):
        for n in EVEN_NS:
            row = xi_rows(n)[n]
            half = n // 2
            assert row == tuple(0 if i < half - 1 else 1 for i in range(n - 1))

    def test_rejects_odd_or_small(self):
        for n in (2, 3, 5):
            with pytest.raises(FamilyError):
                xi_rows(n)

    def test_dependency_circuits(self):
        for n in EVEN_NS:
            rows = xi_rows(n)
            half = n // 2
            first = [rows[j] for j in range(half + 1)]
            second = [rows[j] for j in range(half, n + 1)]
            assert not is_direct_summand(first, n - 1)
            assert not is_direct_summand(second, n - 1)

    def test_drop_one_gives_summand(self):
        for n in EVEN_NS:
            rows = xi_rows(n)
            half = n // 2
            for omit in range(half + 1):
                sub = [rows[j] for j in range(half + 1) if j != omit]
                assert is_direct_summand(sub, n - 1)
            for omit in range(half, n + 1):
                sub = [rows[j] for j in range(half, n + 1) if j != omit]
                assert is_direct_summand(sub, n - 1)


class TestMu:
    def test_mod2_of_xi(self):
        for n in EVEN_NS:
            assert mu(n).vectors == {
                fid: tuple(x % 2 for x in v) for fid, v in xi(n).vectors.items()
            }

    def test_sum_of_three_rows_is_all_ones(self):
        for n in EVEN_NS:
            rows = mu_rows(n)
            half = n // 2
            total = tuple(
                (a + b + c) % 2
                for a, b, c in zip(rows[half - 1], rows[n], rows[half])
            )
            assert total == tuple(1 for _ in range(n - 1))


class TestRho:
    def test_cycle_structure_n4(self):
        assert rho(4) == (3, 4, 2, 0, 1)
        assert permutation_sign(rho(4)) == 1

    def test_involution(self):
        for n in EVEN_NS:
            r = rho(n)
            assert all(r[r[j]] == j for j in range(n + 1))

    def test_parity_counts_transpositions(self):
        # n/2 transpositions, so the sign alternates with n/2
        for n in EVEN_NS:
            assert permutation_sign(rho(n)) == (-1) ** (n // 2)

    def test_h_conjugates_the_table(self):
        for n in EVEN_NS:
            rows, r, h = xi_rows(n), rho(n), h_matrix(n)
            for j in range(n + 1):
                assert mat_vec(h, rows[j]) == rows[r[j]]


class TestMatrices:
    def test_h_determinants(self):
        assert det_sign(h_matrix(4)) == -1
        assert det_sign(h_matrix(6)) == 1
        assert det_sign(h_matrix(8)) == -1
        assert det_sign(h_matrix(10)) == 1

    def test_f_determinant(self):
        for n in EVEN_NS:
            assert det_sign(f_matrix(n)) == -1

    def test_hs_is_h_mod2(self):
        for n in EVEN_NS:
            assert hs_matrix(n) == h_matrix(n)


class TestBuildFamily:
    def test_k2_structure(self):
        fam = build_family(2, "Z")
        assert fam.polytope.n_facets == 8
        assert set(fam.boundary) == set(CUT_FACETS)
        assert validate(fam.pair).ok
        for fid in CUT_FACETS:
            assert validate(fam.boundary[fid]).ok
            assert fam.boundary[fid].is_closed()

    def test_cut_facets_disjoint(self):
        for k in (2, 3):
            fam = build_family(k, "Z")
            for a in CUT_FACETS:
                for b in CUT_FACETS:
                    if a < b:
                        assert not (
                            fam.polytope.facet_vertices(a)
                            & fam.polytope.facet_vertices(b)
                        )

    def test_k_too_small(self):
        with pytest.raises(FamilyError):
            build_family(1, "Z")

    def test_bad_ring(self):
        with pytest.raises(FamilyError):
            build_family(2, "Q")

    def test_json_round_trip(self):
        fam = build_family(2, "GF2")
        back = FamilyDescriptor.from_json_dict(fam.to_json_dict())
        assert back.pair.chi.vectors == fam.pair.chi.vectors
        assert back.to_json_dict() == fam.to_json_dict()


class TestIdentification:
    @pytest.mark.parametrize("k", (2, 3, 4, 5))
    def test_phi_h_on_xi_pairs(self, k):
        fam = build_family(k, "Z")
        t = boundary_translation(fam)
        assert verify_delta_translation(fam.boundary["p1"], fam.boundary["p2"], t)

    @pytest.mark.parametrize("k", (2, 3, 4, 5))
    def test_phi_hs_on_mu_pairs(self, k):
        fam = build_family(k, "GF2")
        t = boundary_translation(fam)
        assert verify_delta_translation(fam.boundary["p1"], fam.boundary["p2"], t)

    @pytest.mark.parametrize("k", (2, 3, 4, 5))
    def test_gluing_is_orientation_reversing(self, k):
        from toric_cobordism.charpair import orientation_effect

        fam = build_family(k, "Z")
        t, target = gluing_translation(fam)
        assert verify_delta_translation(fam.boundary["p1"], target, t)
        assert orientation_effect(t, fam.boundary["p1"], target) == -1

    def test_phi_maps_p1_onto_p2(self):
        fam = build_family(2, "Z")
        assert set(phi_facet_map(4)) == {f"d{j}" for j in range(5)}
        p1 = fam.boundary["p1"].polytope
        p2 = fam.boundary["p2"].polytope
        target_sets = set(p2.vertex_facets)
        for fs in p1.vertex_facets:
            assert frozenset(fam.phi[f] for f in fs) in target_sets


class TestReflectionCount:
    def test_values(self):
        assert reflection_count(4) == (2, 2)
        assert reflection_count(6) == (3, 0)
        assert reflection_count(8) == (4, 2)
        assert reflection_count(10) == (5, 0)

    def test_expansion_identity(self):
        # mu_{n/2-1} = sum of the first n/2-1 auxiliary rows plus row n/2
        for n in EVEN_NS:
            rows = mu_rows(n)
            half = n // 2
            acc = [0] * (n - 1)
            for j in list(range(half - 1)) + [half]:
                acc = [(a + b) % 2 for a, b in zip(acc, rows[j])]
            assert tuple(acc) == rows[half - 1]


class TestCertificates:
    def test_complex_k2(self):
        cert = glue_certificate(2, "complex")
        assert cert.ok
        assert cert.boundary["standard"] == "CP3"
        assert cert.boundary["conjugate"] is True
        assert cert.gluing["orientation_effect"] == -1

    def test_complex_k3_uses_flip(self):
        cert = glue_certificate(3, "complex")
        assert cert.ok
        assert cert.boundary["conjugate"] is False
        assert cert.gluing["orientation_effect"] == -1
        # the composed automorphism is f h, with determinant -1
        assert det_sign(tuple(tuple(r) for r in cert.gluing["delta"])) == -1

    def test_real_k3(self):
        cert = glue_certificate(3, "real")
        assert cert.ok
        assert cert.boundary["standard"] == "RP5"
        assert cert.checks["orientable_cover_p1"]
        assert cert.checks["total_space_orientable"]

    def test_real_even_k_rejected(self):
        with pytest.raises(InvalidKind):
            glue_certificate(2, "real")
        with pytest.raises(InvalidKind):
            glue_certificate(4, "real")

    def test_validity_checks_read_the_construction_reports(self, monkeypatch):
        """Each pair is validated once, and its check is that report's verdict."""
        calls = []

        def counting_validate(pair):
            calls.append(pair)
            return validate(pair)

        monkeypatch.setattr(charpair, "validate", counting_validate)
        monkeypatch.setattr(family, "validate", counting_validate)
        cert = glue_certificate(2, "complex")
        assert len(calls) == 4
        assert [cert.checks[f"boundary_valid_{fid}"] for fid in CUT_FACETS] == [True] * 3
        assert cert.checks["pair_valid"]

        def build_with_failed_p2(*args):
            fam = build_family(*args)
            failed = ValidityReport(ok=False, checked_vertices=1, failures=((0, "planted"),))
            return replace(fam, validity={**fam.validity, "p2": failed})

        monkeypatch.setattr(family, "build_family", build_with_failed_p2)
        cert = glue_certificate(2, "complex")
        assert cert.failed_checks() == ["boundary_valid_p2"]

    def test_descriptor_keeps_its_reports_outside_the_json(self):
        fam = build_family(2, "Z")
        assert set(fam.validity) == {"pair", *CUT_FACETS}
        assert all(report.ok for report in fam.validity.values())
        assert "validity" not in fam.to_json_dict()
        assert FamilyDescriptor.from_json_dict(fam.to_json_dict()).validity == {}

    def test_custom_parameters(self):
        cert = glue_certificate(
            2, "complex", r1=Fraction(1, 8), r2=Fraction(1, 5)
        )
        assert cert.ok
