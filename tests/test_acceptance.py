"""Acceptance gate: one test (or test group) per numbered criterion.

Each criterion is asserted at its stated tolerance, timing included;
the conftest hook prints one PASS/FAIL line per criterion at the end of
the run.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from toric_cobordism import cellular
from toric_cobordism.charpair import (
    CharacteristicFunction,
    CharacteristicPair,
    find_delta_translation,
    orientable_small_cover,
    standard_pair,
    validate,
    verify_delta_translation,
)
from toric_cobordism.exactalg import (
    as_matrix,
    det_sign,
    determinant,
    is_direct_summand,
    mat_mul,
    mat_vec,
    permutation_sign,
    smith_normal_form,
)
from toric_cobordism.family import (
    boundary_translation,
    build_family,
    h_matrix,
    rho,
    xi_rows,
)
from toric_cobordism.polytope import product, simplex

ALL_K = (2, 3, 4, 5)


def test_criterion_01_xi_table():
    xi_rows(4)  # warm any caches; the timed call is below
    start = time.monotonic()
    rows = xi_rows(4)
    elapsed = time.monotonic() - start
    assert rows == ((1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1))
    assert elapsed < 0.001
    from toric_cobordism.family import xi

    table = xi(4)
    assert table.ring == "Z" and table.rank == 3
    assert tuple(table.vectors[f"d{j}"] for j in range(5)) == rows


def test_criterion_02_validity_and_dependencies():
    start = time.monotonic()
    for k in ALL_K:
        n = 2 * k
        half = k
        for ring in ("Z", "GF2"):
            fam = build_family(k, ring)
            report = validate(fam.pair)
            assert report.ok, f"k={k} ring={ring}: {report.failures}"
        rows = xi_rows(n)
        first = [rows[j] for j in range(half + 1)]
        second = [rows[j] for j in range(half, n + 1)]
        assert not is_direct_summand(first, n - 1)
        assert not is_direct_summand(second, n - 1)
        for omit in range(half + 1):
            assert is_direct_summand(
                [rows[j] for j in range(half + 1) if j != omit], n - 1
            )
        for omit in range(half, n + 1):
            assert is_direct_summand(
                [rows[j] for j in range(half, n + 1) if j != omit], n - 1
            )
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("k", ALL_K)
def test_criterion_03_boundary_structure(k):
    start = time.monotonic()
    fam = build_family(k, "Z")
    n = fam.n
    cuts = ("p1", "p2", "p3")
    for a in cuts:
        for b in cuts:
            if a < b:
                assert not (
                    fam.polytope.facet_vertices(a) & fam.polytope.facet_vertices(b)
                )
    p3 = fam.boundary["p3"].polytope
    assert p3.is_combinatorially_isomorphic(simplex(n - 1)) is not None
    reference = product(simplex(k - 1), simplex(k))
    p1 = fam.boundary["p1"].polytope
    p2 = fam.boundary["p2"].polytope
    assert p1.is_combinatorially_isomorphic(reference) is not None
    assert p2.is_combinatorially_isomorphic(reference) is not None
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("k", ALL_K)
def test_criterion_04_identification_translations(k):
    fam_z = build_family(k, "Z")
    t = boundary_translation(fam_z)
    assert verify_delta_translation(fam_z.boundary["p1"], fam_z.boundary["p2"], t)
    fam_2 = build_family(k, "GF2")
    t2 = boundary_translation(fam_2)
    assert verify_delta_translation(fam_2.boundary["p1"], fam_2.boundary["p2"], t2)


@pytest.mark.parametrize("k", ALL_K)
def test_criterion_04_h_determinant(k):
    n = 2 * k
    expected = -1 if n % 4 == 0 else 1
    assert det_sign(h_matrix(n)) == expected


@pytest.mark.parametrize("k", ALL_K)
def test_criterion_04_rho_sign(k):
    # rho(n) swaps the halves {0..n/2-1} and {n/2+1..n} and fixes n/2,
    # so it is a product of n/2 disjoint transpositions and its sign is
    # (-1)^(n/2), odd for k = 3, 5.  The expected sign is read off the
    # cycle structure, a second route beside permutation_sign.  Together
    # with det h = (-1)^(n/2 - 1) the product of the two signs is -1,
    # which is why the real gluing composes h with f exactly when
    # n = 4l + 2 (det h = +1 there).
    n = 2 * k
    half = n // 2
    r = rho(n)
    assert sorted(r) == list(range(n + 1))
    assert all(r[r[j]] == j for j in range(n + 1))
    assert [j for j in range(n + 1) if r[j] == j] == [half]
    assert all(half < r[j] <= n for j in range(half))
    assert permutation_sign(r) == (-1) ** half
    assert permutation_sign(r) * det_sign(h_matrix(n)) == -1


def test_criterion_05_relative_homology_table():
    start = time.monotonic()
    for k in (2, 3, 4):
        n = 2 * k
        fam = build_family(k, "Z")
        multisets = set()
        for seed in range(5):
            func = cellular.draw_functional(fam.polytope, seed)
            profile = cellular.vertex_indices(fam.polytope, func)
            counts = profile.pair_counts()
            assert counts.get(n) == 1
            table = cellular.homology_w_rel_boundary(fam, func)
            assert table[0] == (1, ())
            assert table[2 * n - 1] == (1, ())
            for d in range(1, 2 * n):
                if d % 2 == 0:
                    assert table[d] == (0, ())
                else:
                    assert table[d][1] == ()
            multisets.add(tuple(sorted(counts.items())))
        assert len(multisets) == 1
    assert time.monotonic() - start < 30.0


def test_criterion_06_third_piece_identification():
    start = time.monotonic()
    for k in (2, 3):
        n = 2 * k
        fam_z = build_family(k, "Z")
        std_c = standard_pair("complex_projective", n - 1)
        w = find_delta_translation(fam_z.boundary["p3"], std_c)
        assert w is not None
        assert verify_delta_translation(fam_z.boundary["p3"], std_c, w)
        fam_2 = build_family(k, "GF2")
        std_r = standard_pair("real_projective", n - 1)
        w2 = find_delta_translation(fam_2.boundary["p3"], std_r)
        assert w2 is not None
        assert verify_delta_translation(fam_2.boundary["p3"], std_r, w2)
    assert time.monotonic() - start < 60.0


def test_criterion_07_control_pair():
    rp2 = CharacteristicPair(
        simplex(2),
        CharacteristicFunction("GF2", 2, {"d0": (1, 0), "d1": (0, 1), "d2": (1, 1)}),
    )
    assert orientable_small_cover(rp2) is False


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("piece", ("p1", "p2", "p3"))
def test_criterion_07_boundary_covers(k, piece):
    # The p1 and p2 covers are orientable exactly when n = 4l + 2: at
    # n = 4 they carry e1, e1+e2 and e2 among their facets, so the GF(2)
    # system <y, v> = 1 has no solution.  The p3 cover is RP^(n-1) with
    # n - 1 odd, always orientable.  The brute-force top integral
    # homology of the cover is the second, independent route.
    n = 2 * k
    expected = piece == "p3" or n % 4 == 2
    pair = build_family(k, "GF2").boundary[piece]
    assert orientable_small_cover(pair) is expected
    assert cellular.small_cover_orientable_oracle(pair) is expected


def test_criterion_08_oracle_agreement():
    start = time.monotonic()
    fam4 = build_family(2, "GF2")
    table4 = cellular.relative_homology_table(fam4)
    assert table4[4] == (0, ())
    assert time.monotonic() - start < 10.0

    betti4 = cellular.small_cover_gf2_betti(fam4.boundary["p3"])
    assert betti4 == (1, 1, 1, 1)

    start6 = time.monotonic()
    fam6 = build_family(3, "GF2")
    table6 = cellular.relative_homology_table(fam6, degrees=[6])
    assert table6[6] == (1, ())
    betti6 = cellular.small_cover_gf2_betti(fam6.boundary["p3"])
    assert betti6 == (1, 1, 1, 1, 1, 1)
    assert time.monotonic() - start6 < 600.0

    # d_n = 1 + (-1)^(n/2) matches the parity rule on both sizes
    from toric_cobordism.family import reflection_count

    assert reflection_count(4) == (2, 2)
    assert reflection_count(6) == (3, 0)


def test_criterion_09_property_suites():
    start = time.monotonic()

    # d o d = 0 on every generated complex (the builder also verifies)
    complexes = []
    fam4 = build_family(2, "GF2")
    for fid in ("p1", "p3"):
        pair = fam4.boundary[fid]
        cw = cellular.build_quotient_complex(pair.polytope, pair.chi)
        complexes.append(cellular.chain_complex(cw, "Z"))
    cw_rel = cellular.build_quotient_complex(
        fam4.polytope, fam4.pair.chi, ("p1", "p2", "p3")
    )
    complexes.append(cellular.chain_complex(cw_rel, "Z"))
    complexes.append(cellular.chain_complex(cw_rel, "GF2"))
    for cc in complexes:
        cellular._verify_d_squared(cc)

    # SNF recomposition identities on 1000 seeded random matrices
    rng = random.Random(20240917)
    for _ in range(1000):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = as_matrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        s = smith_normal_form(m)
        assert mat_mul(mat_mul(s.u, m), s.v) == s.d
        assert abs(determinant(s.u)) == 1
        assert abs(determinant(s.v)) == 1
        diag = [s.d[i][i] for i in range(min(nr, nc))]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0

    # validity invariance under sign flips and unimodular basis change
    fam = build_family(2, "Z")
    base = fam.pair.chi.vectors
    for trial in range(100):
        if trial % 2 == 0:
            moved = {
                fid: tuple(-x for x in v) if rng.random() < 0.5 else v
                for fid, v in base.items()
            }
        else:
            u = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
            for _ in range(4):
                i, j = rng.sample(range(3), 2)
                c = rng.randint(-2, 2)
                for col in range(3):
                    u[i][col] += c * u[j][col]
            um = as_matrix(u)
            moved = {fid: mat_vec(um, v) for fid, v in base.items()}
        pair = CharacteristicPair(
            fam.polytope, CharacteristicFunction("Z", 3, moved)
        )
        assert validate(pair).ok
    assert time.monotonic() - start < 120.0


def _run_cli(args):
    # the child imports the package from where this process found it,
    # which pytest's ``pythonpath`` setting does not pass on
    src = os.path.dirname(os.path.dirname(cellular.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "toric_cobordism.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_10_certificates(tmp_path):
    for k in ALL_K:
        out = tmp_path / f"c{k}.json"
        proc = _run_cli(
            ["certify", "--k", str(k), "--kind", "complex", "--out", str(out)]
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["ok"] is True
        assert data["gluing"]["orientation_effect"] == -1

    for k in (3, 5):
        out = tmp_path / f"r{k}.json"
        proc = _run_cli(["certify", "--k", str(k), "--kind", "real", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["ok"] is True

    for k in (2, 4):
        proc = _run_cli(["certify", "--k", str(k), "--kind", "real"])
        assert proc.returncode == 2

    # byte stability across independent processes with a fixed seed
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        proc = _run_cli(
            ["certify", "--k", "3", "--kind", "real", "--seed", "11", "--out", str(path)]
        )
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()
