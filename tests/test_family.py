import dataclasses
import json
from fractions import Fraction

import pytest

from toric_cobordism import cellular, charpair, family
from toric_cobordism.charpair import (
    validate,
    validate_pairs,
    verify_delta_translation,
)
from toric_cobordism.cli import main
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
    total_space_orientable,
    xi,
    xi_rows,
)
from toric_cobordism.polytope import SimplePolytope, product, simplex

from test_golden_digests import GOLDEN, _digest, certify_commands

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

    def test_validate_pairs_matches_validate(self):
        """One shared verdict table over every family pair, k = 2..6 on both
        rings, and a pair with a planted repeat, gives each pair's own report."""
        pairs = []
        for k in range(2, 7):
            for ring in ("Z", "GF2"):
                fam = build_family(k, ring)
                pairs += [fam.pair] + [fam.boundary[fid] for fid in CUT_FACETS]
                chi = fam.pair.chi
                planted = charpair.CharacteristicFunction(
                    chi.ring, chi.rank, {**chi.vectors, "d1": chi.vectors["d0"]}
                )
                pairs.append(charpair.CharacteristicPair(fam.polytope, planted))
        reports = validate_pairs(pairs)
        assert reports == [validate(p) for p in pairs]
        assert sum(not r.ok for r in reports) == 10

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

    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_json_round_trip_keeps_the_boundary_pairs(self, k, ring):
        """A pair is its polytope and its vectors, with no orientation datum,
        so the pairs read back equal the built ones field by field."""
        assert [f.name for f in dataclasses.fields(charpair.CharacteristicPair)] == [
            "polytope",
            "chi",
        ]
        fam = build_family(k, ring)
        back = FamilyDescriptor.from_json_dict(fam.to_json_dict())
        assert sorted(back.boundary) == sorted(fam.boundary) == sorted(CUT_FACETS)
        for fid, pair in fam.boundary.items():
            read = back.boundary[fid]
            assert read.chi == pair.chi, (k, ring, fid)
            assert read.polytope.to_json_dict() == pair.polytope.to_json_dict(), (k, ring, fid)
            assert read.polytope.vertex_masks == pair.polytope.vertex_masks, (k, ring, fid)


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
        assert orientation_effect(t) == -1

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

    def test_orientability_needs_every_route_to_agree(self):
        z, zero = (1, ()), (0, ())
        assert total_space_orientable(6, 0) is True
        assert total_space_orientable(6, 0, z) is True
        assert total_space_orientable(8, 2) is False
        assert total_space_orientable(4, 2, zero) is False
        assert total_space_orientable(6, 2) is None
        assert total_space_orientable(6, None) is None
        assert total_space_orientable(6, 0, zero) is None
        assert total_space_orientable(4, 2, z) is None


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

    @pytest.mark.parametrize("k", range(2, 9))
    def test_complex_orientation_effect_is_det_delta(self, k):
        """The effect is read off delta alone; the polytope factor is declared."""
        cert = glue_certificate(k, "complex")
        assert cert.ok
        delta = tuple(tuple(r) for r in cert.gluing["delta"])
        assert cert.gluing["orientation_effect"] == det_sign(delta) == -1
        assert cert.gluing["orientation_source"] == "computed"
        assert any("polytope factor" in a for a in cert.assumptions)

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

    def test_each_claim_is_checked_once(self, monkeypatch):
        """Four pairs validated, none in the build.  Two translations are
        verified when the gluing is (phi, h) onto p2 itself (4 | n): (phi,
        h) once, for both ``p1_p2_isomorphic`` and ``gluing_verifies``, and
        the p3 witness.  Three when the gluing composes the flip (n = 4l + 2).

        A real certificate validates the same four pairs and counts
        reflections once.
        """
        calls = {"validate": 0, "verify": 0, "reflections": 0}
        validated = []

        def counting(name, func):
            def wrapped(*args):
                calls[name] += 1
                return func(*args)
            return wrapped

        def counting_pairs(pairs):
            # ``validate`` goes through ``charpair.validate_pairs`` too
            calls["validate"] += len(pairs)
            validated.extend(pairs)
            return validate_pairs(pairs)

        def as_json(pairs):
            return sorted(json.dumps(p.to_json_dict(), sort_keys=True) for p in pairs)

        def four_pairs(k, ring):
            fam = build_family(k, ring)
            return as_json([fam.pair] + [fam.boundary[fid] for fid in CUT_FACETS])

        for module in (charpair, family):
            monkeypatch.setattr(module, "validate_pairs", counting_pairs)
            monkeypatch.setattr(
                module,
                "verify_delta_translation",
                counting("verify", verify_delta_translation),
            )
        monkeypatch.setattr(
            family, "reflection_count", counting("reflections", reflection_count)
        )
        build_family(2, "Z")
        assert calls == {"validate": 0, "verify": 0, "reflections": 0}
        for k, verified in ((2, 2), (3, 3)):
            calls.update(validate=0, verify=0)
            validated.clear()
            cert = glue_certificate(k, "complex")
            assert cert.ok
            assert calls == {"validate": 4, "verify": verified, "reflections": 0}
            # each of the four pairs exactly once
            assert as_json(validated) == four_pairs(k, "Z")
        for k in (3, 5):
            calls.update(validate=0, reflections=0)
            validated.clear()
            assert glue_certificate(k, "real").ok
            assert (calls["validate"], calls["reflections"]) == (4, 1)
            assert as_json(validated) == four_pairs(k, "GF2")

    @pytest.mark.parametrize("plant", ["h", "xi", "phi"])
    def test_planted_false_claim_fails_its_checks(self, plant, monkeypatch, capsys):
        """A false claim in the construction prints the certificate and exits 1."""
        def xi_with_d1_repeating_d0(n):
            chi = xi(n)
            return charpair.CharacteristicFunction(
                chi.ring, chi.rank, {**chi.vectors, "d1": chi.vectors["d0"]}
            )

        gluing = ["gluing_orientation_reversing", "gluing_verifies", "p1_p2_isomorphic"]
        plants = {
            "h": ("h_matrix", f_matrix, gluing),
            "xi": (
                "xi",
                xi_with_d1_repeating_d0,
                ["boundary_is_standard", "boundary_valid_p2", "boundary_valid_p3"]
                + gluing
                + ["pair_valid"],
            ),
            "phi": (
                "phi_facet_map",
                lambda n: {f"d{j}": f"d{j}" for j in range(n + 1)},
                gluing,
            ),
        }
        name, replacement, failed = plants[plant]
        monkeypatch.setattr(family, name, replacement)
        capsys.readouterr()
        assert main(["certify", "--kind", "complex", "--k", "2"]) == 1
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["ok"] is False
        assert sorted(c for c, good in data["validation"].items() if not good) == failed
        assert captured.err.splitlines() == [f"check failed: {c}" for c in failed]
        assert data["gluing"]["orientation_effect"] is None

    def test_planted_wrong_product_map_fails_its_check(self, monkeypatch, capsys):
        """A facet map that is no isomorphism onto the product fails
        ``p1_is_simplex_product`` alone."""
        rule = family.product_facet_map

        def swapped(k):
            fmap = rule(k)
            fmap["d0"], fmap[f"d{k}"] = fmap[f"d{k}"], fmap["d0"]
            return fmap

        monkeypatch.setattr(family, "product_facet_map", swapped)
        capsys.readouterr()
        assert main(["certify", "--kind", "complex", "--k", "2"]) == 1
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["ok"] is False
        assert [c for c, good in data["validation"].items() if not good] == [
            "p1_is_simplex_product"
        ]
        assert captured.err.splitlines() == ["check failed: p1_is_simplex_product"]

    @pytest.mark.parametrize("plant", ["mu", "mu_rows", "oracle"])
    def test_planted_false_real_claim_fails_its_checks(self, plant, monkeypatch, capsys):
        """A false real claim prints the certificate and exits 1, never 2."""
        def mu_with_d1_repeating_d0(n):
            chi = mu(n)
            return charpair.CharacteristicFunction(
                chi.ring, chi.rank, {**chi.vectors, "d1": chi.vectors["d0"]}
            )

        def rows_with_last_repeating_first(n):
            rows = mu_rows(n)
            return rows[:n] + (rows[0],)

        def top_group_zero(fam, degrees):
            return {d: (0, ()) for d in degrees}

        invalid = [f"boundary_valid_{fid}" for fid in CUT_FACETS]
        covers = [f"orientable_cover_{fid}" for fid in CUT_FACETS]
        plants = {
            "mu": (
                family,
                "mu",
                mu_with_d1_repeating_d0,
                ["boundary_is_standard"] + invalid + ["gluing_verifies"] + covers
                + ["p1_p2_isomorphic", "p3_cover_betti_all_one", "pair_valid"]
                + ["total_space_orientable"],
            ),
            "mu_rows": (
                family,
                "mu_rows",
                rows_with_last_repeating_first,
                ["d_n_zero", "total_space_orientable"],
            ),
            "oracle": (
                cellular,
                "relative_homology_table",
                top_group_zero,
                ["total_space_orientable"],
            ),
        }
        def oracle_on_invalid_pair(*args, **kwargs):
            raise AssertionError("the oracle ran on a pair that failed validate")

        module, name, replacement, failed = plants[plant]
        monkeypatch.setattr(module, name, replacement)
        if plant == "mu":
            for oracle in ("relative_homology_table", "small_cover_gf2_betti"):
                monkeypatch.setattr(cellular, oracle, oracle_on_invalid_pair)
        capsys.readouterr()
        assert main(["certify", "--kind", "real", "--k", "3"]) == 1
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["ok"] is False
        assert sorted(c for c, good in data["validation"].items() if not good) == failed
        assert captured.err.splitlines() == [f"check failed: {c}" for c in failed]
        if plant == "mu_rows":
            assert data["homology"]["reflection_count"] is None
            assert data["homology"]["d_n"] is None
        if plant == "mu":
            assert data["homology"]["p3_cover_gf2_betti"] is None

    def test_custom_parameters(self):
        cert = glue_certificate(
            2, "complex", r1=Fraction(1, 8), r2=Fraction(1, 5)
        )
        assert cert.ok


class TestRuleWitnesses:
    """The certificate reads p3's simplex type and p1's product type off
    rules; the isomorphism search is their second route."""

    @pytest.mark.parametrize("k", range(2, 13))
    def test_rules_agree_with_the_search(self, k):
        fam = build_family(k)
        p1, p2, p3 = (fam.boundary[fid].polytope for fid in CUT_FACETS)
        assert p3.is_simplex_lattice()
        assert p3.is_combinatorially_isomorphic(simplex(2 * k - 1)) is not None
        reference = product(simplex(k - 1), simplex(k))
        assert p1.vertex_map(reference, family.product_facet_map(k)) is not None
        assert p1.is_combinatorially_isomorphic(reference) is not None
        # negative controls: the pieces p1 and p2 are no simplices, and
        # the rule with L.d0 and R.d0 swapped is no isomorphism
        assert not p1.is_simplex_lattice() and not p2.is_simplex_lattice()
        swapped = family.product_facet_map(k)
        swapped["d0"], swapped[f"d{k}"] = swapped[f"d{k}"], swapped["d0"]
        assert p1.vertex_map(reference, swapped) is None

    def test_certify_runs_no_isomorphism_search(self, monkeypatch):
        """With the search made to raise, every certificate of the golden
        suite is still ok and byte identical."""
        def no_search(self, other, accept=None):
            raise AssertionError("glue_certificate ran an isomorphism search")

        monkeypatch.setattr(SimplePolytope, "iter_isomorphisms", no_search)
        for k in range(2, 7):
            assert glue_certificate(k, "complex").ok
        for k in (3, 5):
            assert glue_certificate(k, "real").ok
        for cmd in certify_commands():
            assert _digest(cmd.split()) == GOLDEN[cmd], cmd
