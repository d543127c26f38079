import random
from itertools import product as iproduct

import pytest

from toric_cobordism.charpair import (
    CharacteristicFunction,
    CharacteristicPair,
    DeltaTranslation,
    InvalidPair,
    MissingVector,
    RingMismatch,
    SearchCapExceeded,
    compose_translations,
    find_delta_translation,
    identity_translation,
    normalize_sign_class,
    orientable_small_cover,
    orientation_effect,
    restrict,
    standard_pair,
    validate,
    validate_pairs,
    verify_delta_translation,
)
from toric_cobordism import charpair, exactalg, family
from toric_cobordism.exactalg import DimensionMismatch, Gf2Matrix, identity_matrix, mat_vec
from toric_cobordism.family import build_family
from toric_cobordism.polytope import SimplePolytope, product, simplex


def gf2_pair(vectors):
    tri = simplex(2)
    return CharacteristicPair(
        tri, CharacteristicFunction("GF2", 2, dict(zip(("d0", "d1", "d2"), vectors)))
    )


RP2 = gf2_pair([(1, 0), (0, 1), (1, 1)])


def square_pair():
    sq = product(simplex(1), simplex(1))
    vectors = {
        "L.d0": (1, 0),
        "L.d1": (1, 0),
        "R.d0": (0, 1),
        "R.d1": (0, 1),
    }
    return CharacteristicPair(sq, CharacteristicFunction("GF2", 2, vectors))


class TestValidate:
    def test_full_family_pair_n4(self):
        fam = build_family(2, "Z")
        report = validate(fam.pair)
        assert report.ok and report.checked_vertices == 16

    def test_gf2_triangle_valid(self):
        assert validate(RP2).ok

    def test_repeated_vector_invalid(self):
        bad = gf2_pair([(1, 0), (0, 1), (1, 0)])
        report = validate(bad)
        assert not report.ok
        # exactly the vertex shared by the two facets carrying (1,0)
        assert len(report.failures) == 1
        vertex = report.failures[0][0]
        assert bad.polytope.vertex_facets[vertex] == frozenset({"d0", "d2"})

    def test_sign_flip_invariance(self):
        rng = random.Random(0)
        fam = build_family(2, "Z")
        base = fam.pair.chi.vectors
        for _ in range(30):
            flipped = {
                fid: tuple(-x for x in v) if rng.random() < 0.5 else v
                for fid, v in base.items()
            }
            pair = CharacteristicPair(
                fam.polytope, CharacteristicFunction("Z", 3, flipped)
            )
            assert validate(pair).ok

    def test_unimodular_change_invariance(self):
        rng = random.Random(1)
        fam = build_family(2, "Z")
        base = fam.pair.chi.vectors
        for _ in range(20):
            # random unimodular: product of elementary shears
            u = [list(r) for r in identity_matrix(3)]
            for _ in range(4):
                i, j = rng.sample(range(3), 2)
                c = rng.randint(-2, 2)
                for k in range(3):
                    u[i][k] += c * u[j][k]
            moved = {
                fid: mat_vec(tuple(map(tuple, u)), v) for fid, v in base.items()
            }
            pair = CharacteristicPair(
                fam.polytope, CharacteristicFunction("Z", 3, moved)
            )
            assert validate(pair).ok

    def test_pairs_sharing_facet_ids_get_their_own_verdicts(self):
        """Each pair below fails at a different single vertex, or nowhere,
        although all of them give vectors to the same facet ids."""
        def over_triangle(ring, d2):
            vectors = {"d0": (1, 0), "d1": (0, 1), "d2": d2}
            return CharacteristicPair(simplex(2), CharacteristicFunction(ring, 2, vectors))

        pairs = [
            over_triangle("Z", (1, 1)),
            over_triangle("Z", (2, 1)),  # fails where d1 meets d2
            over_triangle("Z", (1, 2)),  # fails where d0 meets d2
            over_triangle("Z", (3, 1)),  # fails where d1 meets d2
            over_triangle("GF2", (3, 1)),  # (1, 1) mod 2
        ]
        bad_at = [
            [i for i, fs in enumerate(p.polytope.vertex_facets) if fs == frozenset(pair)]
            for p, pair in zip(pairs[1:3], ({"d1", "d2"}, {"d0", "d2"}))
        ]
        for order in (pairs, pairs[::-1]):
            reports = validate_pairs(order)
            assert reports == [validate(p) for p in order]
        reports = validate_pairs(pairs)
        assert [r.ok for r in reports] == [True, False, False, False, True]
        assert [[v for v, _ in r.failures] for r in reports[1:3]] == bad_at
        assert all(len(r.failures) == 1 for r in reports[1:4])

    def test_unknown_facet_rejected(self):
        with pytest.raises(MissingVector):
            CharacteristicPair(
                simplex(2),
                CharacteristicFunction("GF2", 2, {"zz": (1, 0)}),
            )


class TestOrientability:
    def test_rp2_not_orientable(self):
        assert orientable_small_cover(RP2) is False

    def test_square_orientable(self):
        assert orientable_small_cover(square_pair()) is True

    def test_rp3_orientable(self):
        assert orientable_small_cover(standard_pair("real_projective", 3)) is True

    def test_needs_gf2(self):
        with pytest.raises(RingMismatch):
            orientable_small_cover(standard_pair("complex_projective", 2))

    def test_invalid_boundary_pair_fails_its_cover_check(self, monkeypatch):
        """The criterion alone passes these invalid pieces; the certificate does not."""
        mu = family.mu

        def mu_with_d1_repeating_d0(n):
            chi = mu(n)
            return CharacteristicFunction(
                chi.ring, chi.rank, {**chi.vectors, "d1": chi.vectors["d0"]}
            )

        monkeypatch.setattr(family, "mu", mu_with_d1_repeating_d0)
        fam = build_family(3, "GF2")
        cert = family.glue_certificate(3, "real")
        for fid, pair in fam.boundary.items():
            assert not validate(pair).ok
            assert orientable_small_cover(pair) is True
            assert cert.checks[f"boundary_valid_{fid}"] is False
            assert cert.checks[f"orientable_cover_{fid}"] is False

    def test_group_basis_change_invariance(self):
        rng = random.Random(2)
        from toric_cobordism.exactalg import Gf2Matrix

        for pair in (RP2, square_pair(), standard_pair("real_projective", 3)):
            want = orientable_small_cover(pair)
            m = pair.chi.rank
            for _ in range(10):
                while True:
                    rows = [
                        tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(m)
                    ]
                    g = Gf2Matrix.from_vectors(rows)
                    if g.inverse() is not None:
                        break
                moved = {
                    fid: g.matvec(v) for fid, v in pair.chi.vectors.items()
                }
                changed = CharacteristicPair(
                    pair.polytope, CharacteristicFunction("GF2", m, moved)
                )
                assert orientable_small_cover(changed) == want


class TestRestrict:
    def test_p3_vector_set(self):
        fam = build_family(2, "Z")
        p3 = fam.boundary["p3"]
        from toric_cobordism.family import xi_rows

        rows = xi_rows(4)
        expect = {rows[j] for j in range(5) if j != 2}
        assert set(p3.chi.vectors.values()) == expect

    def test_mu_restrictions_valid(self):
        fam = build_family(2, "GF2")
        for fid in ("p1", "p2", "p3"):
            assert validate(fam.boundary[fid]).ok

    def test_restriction_inherits_parent_vectors(self):
        fam = build_family(2, "Z")
        p1 = restrict(fam.pair, "p1")
        for fid, vec in p1.chi.vectors.items():
            assert vec == fam.pair.chi.vectors[fid]


class TestStandardPairs:
    def test_segment(self):
        p = standard_pair("complex_projective", 1)
        assert set(p.chi.vectors.values()) == {(1,)}

    def test_cp3_reference(self):
        p = standard_pair("complex_projective", 3)
        assert validate(p).ok
        assert p.chi.vectors["d3"] == (1, 1, 1)

    def test_unknown_name(self):
        with pytest.raises(Exception):
            standard_pair("quaternionic", 2)


class TestTranslations:
    def test_identity_translation(self):
        p = standard_pair("complex_projective", 3)
        t = identity_translation(p)
        assert verify_delta_translation(p, p, t)
        assert orientation_effect(t) == 1

    def test_find_self(self):
        for pair in (RP2, standard_pair("complex_projective", 2)):
            t = find_delta_translation(pair, pair)
            assert t is not None and verify_delta_translation(pair, pair, t)

    def test_p3_matches_standard(self):
        fam = build_family(2, "Z")
        std = standard_pair("complex_projective", 3)
        t = find_delta_translation(fam.boundary["p3"], std)
        assert t is not None and verify_delta_translation(
            fam.boundary["p3"], std, t
        )

    def test_p3_search_builds_targets_on_first_use(self, monkeypatch):
        """At k = 6 the first candidate is accepted: one adjugate per side."""
        fam = build_family(6, "Z")
        std = standard_pair("complex_projective", 11)
        calls = []
        adjugate = exactalg.adjugate

        def counting(m):
            calls.append(m)
            return adjugate(m)

        monkeypatch.setattr(exactalg, "adjugate", counting)
        t = find_delta_translation(fam.boundary["p3"], std)
        assert t is not None and verify_delta_translation(fam.boundary["p3"], std, t)
        assert len(calls) <= 2

    def test_p3_matches_real_standard(self):
        fam = build_family(2, "GF2")
        std = standard_pair("real_projective", 3)
        t = find_delta_translation(fam.boundary["p3"], std)
        assert t is not None and verify_delta_translation(
            fam.boundary["p3"], std, t
        )

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            find_delta_translation(RP2, standard_pair("complex_projective", 2))

    def test_composition_verifies(self):
        fam = build_family(2, "Z")
        p3 = fam.boundary["p3"]
        std = standard_pair("complex_projective", 3)
        t1 = find_delta_translation(p3, std)
        t2 = find_delta_translation(std, std)
        comp = compose_translations(t1, t2)
        assert verify_delta_translation(p3, std, comp)

    def test_wrong_delta_fails(self):
        p = standard_pair("complex_projective", 2)
        t = DeltaTranslation(
            "Z", {f: f for f in p.polytope.facet_ids}, ((1, 1), (0, 1))
        )
        assert not verify_delta_translation(p, p, t)

    def test_target_with_an_extra_vertex_fails(self):
        # square a, b, c, d (cyclic) onto the same square plus a vertex on {a, c}
        facets = [(f, "") for f in "abcd"]
        square = [(None, set(fs)) for fs in ("ab", "bc", "cd", "da")]
        vectors = {"a": (1, 0), "b": (0, 1), "c": (1, 0), "d": (0, 1)}
        pairs = [
            CharacteristicPair(
                SimplePolytope(2, facets, vertices),
                CharacteristicFunction("GF2", 2, vectors),
            )
            for vertices in (square, square + [(None, {"a", "c"})])
        ]
        t = identity_translation(pairs[0])
        assert find_delta_translation(*pairs) is None
        assert not verify_delta_translation(*pairs, t)
        assert pairs[0].polytope.vertex_map(pairs[1].polytope, t.facet_map) is None


class TestOrientationEffect:
    def test_first_coordinate_flip(self):
        p = standard_pair("complex_projective", 3)
        f = tuple(
            tuple((-1 if i == 0 else 1) if i == j else 0 for j in range(3))
            for i in range(3)
        )
        t = DeltaTranslation("Z", {f_: f_ for f_ in p.polytope.facet_ids}, f)
        assert orientation_effect(t) == -1

    def test_phi_h_for_n4(self):
        fam = build_family(2, "Z")
        from toric_cobordism.family import boundary_translation

        t = boundary_translation(fam)
        assert orientation_effect(t) == -1

    def test_gf2_rejected(self):
        t = identity_translation(RP2)
        with pytest.raises(RingMismatch):
            orientation_effect(t)

    def test_multiplicative_under_composition(self):
        p = standard_pair("complex_projective", 3)
        f = tuple(
            tuple((-1 if i == 0 else 1) if i == j else 0 for j in range(3))
            for i in range(3)
        )
        t = DeltaTranslation("Z", {f_: f_ for f_ in p.polytope.facet_ids}, f)
        tt = compose_translations(t, t)
        assert orientation_effect(tt) == 1


def _per_entry_normalize_sign_class(vec):
    v = tuple(int(x) for x in vec)
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return tuple(-y for y in v)
    return v


def _per_entry_divide_exact(rows, adj, det):
    cols = tuple(zip(*adj))
    out = []
    for row in rows:
        out_row = []
        for col in cols:
            q, r = divmod(sum(x * y for x, y in zip(row, col)), det)
            if r:
                return None
            out_row.append(q)
        out.append(tuple(out_row))
    return tuple(out)


def _per_entry_signed(w, signs):
    return tuple(tuple(s * x for s, x in zip(signs, row)) for row in w)


def _random_entry(rng):
    # negative entries, and now and then one past a machine word
    x = rng.randint(-6, 6)
    return x * 10**rng.randint(15, 25) if rng.random() < 0.1 else x


class TestSignClasses:
    def test_normalize(self):
        assert normalize_sign_class((-1, 2)) == (1, -2)
        assert normalize_sign_class((0, -3)) == (0, 3)
        assert normalize_sign_class((0, 0)) == (0, 0)

    def test_normalize_matches_per_entry_definition(self):
        class Tagged(int):
            pass

        rng = random.Random(17)
        vectors = [
            (),
            (0, 0, 0),
            (-2, 5, -7),
            (0, -(10**30), 3),
            (True, False),
            (False, True, True),
            (Tagged(-4), Tagged(2)),
            (Tagged(0), Tagged(3)),
        ] + [
            tuple(_random_entry(rng) for _ in range(rng.randint(0, 8)))
            for _ in range(300)
        ]
        for v in vectors:
            got = normalize_sign_class(v)
            assert got == _per_entry_normalize_sign_class(v)
            assert all(type(x) is int for x in got)

    def test_json_round_trip(self):
        p = standard_pair("complex_projective", 3)
        back = CharacteristicPair.from_json_dict(p.to_json_dict())
        assert back.chi.vectors == p.chi.vectors
        assert back.polytope.incidence_key() == p.polytope.incidence_key()


class TestDeltaKernels:
    """The per-bijection kernels of the Z search, on seeded integer
    matrices, against their per-entry definitions."""

    def test_signed_and_divide_exact(self):
        rng = random.Random(29)
        inexact = 0
        for trial in range(400):
            k = 0 if trial == 0 else 1 if trial == 1 else rng.randint(1, 5)
            w = tuple(tuple(_random_entry(rng) for _ in range(k)) for _ in range(k))
            adj = tuple(tuple(_random_entry(rng) for _ in range(k)) for _ in range(k))
            signs = (1,) + tuple(rng.choice((1, -1)) for _ in range(k - 1))
            det = rng.choice((1, -1, 2, -2, 3, 10**20, -(10**20) - 3))
            signed = charpair._signed(w, signs)
            assert signed == _per_entry_signed(w, signs)
            got = charpair._divide_exact(signed, adj, det)
            assert got == _per_entry_divide_exact(signed, adj, det)
            inexact += got is None
            # one exact product divides cleanly
            assert charpair._divide_exact(
                signed, tuple(tuple(det * x for x in row) for row in adj), det
            ) == exactalg.mat_mul(signed, adj)
        assert inexact > 100

    def test_divide_exact_refuses_only_an_inexact_last_entry(self):
        identity = ((1, 0), (0, 1))
        assert charpair._divide_exact(((2, 0), (0, 2)), identity, 2) == identity
        assert charpair._divide_exact(((2, 0), (0, 1)), identity, 2) is None
        assert charpair._divide_exact(((2, 0), (0, 1)), identity, -2) is None


class _Int(int):
    """An int subclass other than bool: accepted as a vector entry."""


class TestVectorEntryTypes:
    """Entries are checked per vector, in order, before the length: any
    bool, float, string or null raises the non-integer error, and int
    subclasses other than bool pass and read as ints."""

    ODD = (True, False, 1.5, 0.0, "1", None, [1])

    @staticmethod
    def _reference_error(rank, vectors):
        # the per-entry rule: isinstance(x, int) and not isinstance(x, bool)
        for fid, vec in vectors.items():
            v = tuple(vec)
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in v):
                return InvalidPair, f"vector on {fid} has a non-integer entry: {list(v)!r}"
            if len(v) != rank:
                return DimensionMismatch, f"vector on {fid} has length {len(v)}, expected {rank}"
        return None

    def test_matches_per_entry_rule(self):
        rng = random.Random(27)
        pool = (0, 1, -1, 3, _Int(1), _Int(-2)) + self.ODD
        raised = accepted = 0
        for _ in range(400):
            rank = rng.randint(1, 4)
            vectors = {
                f"f{i}": [
                    rng.choice(pool) if rng.random() < 0.15 else rng.randint(-2, 2)
                    for _ in range(rank + (rng.random() < 0.1))
                ]
                for i in range(rng.randint(1, 5))
            }
            ring = rng.choice(("Z", "GF2"))
            want = self._reference_error(rank, vectors)
            if want is None:
                chi = CharacteristicFunction(ring, rank, vectors)
                assert all(type(x) is int for v in chi.vectors.values() for x in v)
                accepted += 1
                continue
            with pytest.raises(want[0]) as err:
                CharacteristicFunction(ring, rank, vectors)
            assert str(err.value) == want[1]
            raised += 1
        assert raised > 100 and accepted > 100

    @pytest.mark.parametrize("odd", ODD, ids=repr)
    def test_odd_entry_raises_before_length(self, odd):
        # the odd entry sits in a vector of the wrong length, after a
        # good vector and before another vector of the wrong length
        vectors = {"a": (1, 0), "b": (0, odd, 1), "c": (1,)}
        with pytest.raises(InvalidPair, match="vector on b has a non-integer entry"):
            CharacteristicFunction("Z", 2, vectors)
        with pytest.raises(DimensionMismatch, match="vector on b has length 1"):
            CharacteristicFunction("Z", 2, {"a": (1, 0), "b": (1,), "c": (0, odd)})

    def test_int_subclass_entries_read_as_ints(self):
        for ring in ("Z", "GF2"):
            chi = CharacteristicFunction(ring, 2, {"a": (_Int(-1), _Int(3))})
            plain = CharacteristicFunction(ring, 2, {"a": (-1, 3)})
            assert chi.vectors == plain.vectors


def renamed(pair, rng):
    """pair with permuted facet ids and a seeded unimodular basis change.

    The facets stay listed in the source's order under their new ids.
    """
    rank = pair.chi.rank
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(2 * rank):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((1, -1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    moved, rename = renamed_polytope(pair.polytope, rng)
    vectors = {rename[f]: mat_vec(u, v) for f, v in pair.chi.vectors.items()}
    return CharacteristicPair(
        moved, CharacteristicFunction(pair.ring, rank, vectors)
    )


def renamed_polytope(poly, rng):
    """(poly with permuted facet ids listed in the old order, the renaming)."""
    ids = list(poly.facet_ids)
    rename = dict(zip(ids, rng.sample(ids, len(ids))))
    moved = SimplePolytope(
        poly.dim,
        [(rename[f], poly.facet_tags[f]) for f in ids],
        [
            (coords, {rename[f] for f in fs})
            for coords, fs in zip(poly.vertex_coords, poly.vertex_facets)
        ],
    )
    return moved, rename


def product_pair(k):
    """The standard Z pair over simplex(k-1) x simplex(k), rank 2k-1."""
    left = standard_pair("complex_projective", k - 1).chi.vectors
    right = standard_pair("complex_projective", k).chi.vectors
    vectors = {f"L.{f}": v + (0,) * k for f, v in left.items()}
    vectors.update({f"R.{f}": (0,) * (k - 1) + v for f, v in right.items()})
    return CharacteristicPair(
        product(simplex(k - 1), simplex(k)),
        CharacteristicFunction("Z", 2 * k - 1, vectors),
    )


def scaled(pair, diagonal):
    """pair with coordinate i of every vector multiplied by diagonal[i]."""
    vectors = {
        f: tuple(d * x for d, x in zip(diagonal, v))
        for f, v in pair.chi.vectors.items()
    }
    return CharacteristicPair(
        pair.polytope, CharacteristicFunction(pair.ring, pair.chi.rank, vectors)
    )


# find_delta_translation(p1, p2) of the family boundary pieces, as the
# search with one Fraction solve per sign pattern found them
FAMILY_WITNESSES = {
    2: ({"d0": "d3", "d1": "d4", "d2": "d2", "d3": "d0", "d4": "d1"},
        ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
    3: ({"d0": "d4", "d1": "d5", "d2": "d6", "d3": "d3", "d4": "d0", "d5": "d1", "d6": "d2"},
        ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 1, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))),
}


class TestTranslationSearch:
    @pytest.mark.parametrize("ring", ("Z", "GF2"))
    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_finds_renamed_partner(self, ring, k):
        fam = build_family(k, ring)
        p1 = fam.boundary["p1"]
        target = renamed(fam.boundary["p2"], random.Random(100 * k + len(ring)))
        t = find_delta_translation(p1, target)
        assert t is not None and verify_delta_translation(p1, target, t)

    @pytest.mark.parametrize("k", (2, 3))
    def test_product_pair_is_not_equivalent(self, k):
        p1 = build_family(k, "Z").boundary["p1"]
        target = renamed(product_pair(k), random.Random(k))
        assert find_delta_translation(p1, target) is None

    @pytest.mark.parametrize("k", (2, 3))
    def test_rational_but_not_unimodular(self, k):
        p1 = build_family(k, "Z").boundary["p1"]
        rank = p1.chi.rank
        doubled = scaled(p1, (2,) + (1,) * (rank - 1))
        # delta would be diag(1/2, 1, ...) times a translation of p1
        assert find_delta_translation(doubled, p1) is None
        # delta would be integral with determinant 2
        assert find_delta_translation(p1, doubled) is None

    def test_equal_determinants_but_not_integral(self):
        p1 = build_family(2, "Z").boundary["p1"]
        # both sides have |det| 2, but every rational delta has entries 1/2
        a, b = scaled(p1, (2, 1, 1)), scaled(p1, (1, 2, 1))
        assert find_delta_translation(a, b) is None

    @pytest.mark.parametrize("ring", ("Z", "GF2"))
    @pytest.mark.parametrize("k", (2, 3))
    def test_pinned_family_witness(self, ring, k):
        fam = build_family(k, ring)
        fmap, delta = FAMILY_WITNESSES[k]
        t = find_delta_translation(fam.boundary["p1"], fam.boundary["p2"])
        assert t.to_json_dict() == DeltaTranslation(ring, fmap, delta).to_json_dict()

    @pytest.mark.parametrize("k", (2, 3))
    def test_pinned_product_witness(self, k):
        # block sign changes fix every sign class, so several sign patterns
        # work for the identity bijection: the first one tried must win
        p = product_pair(k)
        t = find_delta_translation(p, p)
        assert t == identity_translation(p)

    @pytest.mark.parametrize("ring", ("Z", "GF2"))
    def test_rank_mismatch(self, ring):
        p1 = build_family(2, ring).boundary["p1"]
        padded = CharacteristicPair(
            p1.polytope,
            CharacteristicFunction(
                ring, 4, {f: v + (0,) for f, v in p1.chi.vectors.items()}
            ),
        )
        assert find_delta_translation(p1, padded) is None
        assert find_delta_translation(padded, p1) is None

    def test_simplex_pair_of_higher_rank(self):
        # the closed-form simplex search needs rank == dimension; this
        # pair goes through the bijection search instead
        tri = CharacteristicPair(
            simplex(2),
            CharacteristicFunction(
                "Z", 3, {"d0": (1, 0, 0), "d1": (0, 1, 0), "d2": (0, 0, 1)}
            ),
        )
        assert find_delta_translation(tri, tri) == identity_translation(tri)
        assert find_delta_translation(tri, standard_pair("complex_projective", 3)) is None

    def test_gf2_basis_independent_mod_2(self):
        # the first three vectors in facet order are independent over Q
        # but sum to zero mod 2, so a basis chosen over Q is no GF(2) basis
        cube = product(product(simplex(1), simplex(1)), simplex(1))
        ids = sorted(cube.facet_ids)
        vectors = [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 0, 0), (0, 0, 1), (0, 0, 1)]
        pair = CharacteristicPair(
            cube, CharacteristicFunction("GF2", 3, dict(zip(ids, vectors)))
        )
        assert validate(pair)
        assert find_delta_translation(pair, pair) == identity_translation(pair)


# _reference_validate_pairs is the vertex loop of validate_pairs as it
# stood before it read vertex masks: each vertex's frozenset of facets
# meets the assigned facets, and every vector set goes whole to the Smith
# normal form (over Z) or the GF(2) rank.  Kept as the reference for the
# mask loop and the unit split; the GF(2) message is today's.

def _reference_validate_pairs(pairs):
    verdicts = {}
    reports = []
    for pair in pairs:
        chi = pair.chi
        assigned = chi.assigned()
        failures = []
        for i, fs in enumerate(pair.polytope.vertex_facets):
            key = fs & assigned
            if not key:
                continue
            vecs = tuple(chi.vectors[f] for f in sorted(key))
            shared = (chi.ring, chi.rank, vecs)
            if shared not in verdicts:
                verdicts[shared] = _reference_basis_failure(chi, list(vecs))
            if verdicts[shared]:
                failures.append((i, verdicts[shared]))
        reports.append(charpair.ValidityReport(
            ok=not failures,
            checked_vertices=pair.polytope.n_vertices,
            failures=tuple(failures),
        ))
    return reports


def _reference_basis_failure(chi, vecs):
    if len(vecs) > chi.rank:
        return f"{len(vecs)} assigned vectors exceed group rank"
    if chi.ring == "Z":
        fs = exactalg.invariant_factors(vecs)
        if len(fs) == len(vecs) and all(f == 1 for f in fs):
            return None
        return "facet vectors at this vertex do not span a direct summand"
    if exactalg.gf2_rank(vecs) == len(vecs):
        return None
    return "facet vectors at this vertex are dependent mod 2"


def _certificate_pairs(pair):
    """A full pair and its restrictions to the three cut facets."""
    return [pair] + [restrict(pair, fid) for fid in family.CUT_FACETS]


class TestValidateMatchesReference:
    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_families(self, k, ring):
        fam = build_family(k, ring)
        pairs = [fam.pair] + [fam.boundary[fid] for fid in family.CUT_FACETS]
        reports = validate_pairs(pairs)
        assert all(r.ok for r in reports)
        assert reports == _reference_validate_pairs(pairs)

    def test_single_vector_mutations(self):
        """One facet's vector replaced by a unit, a multiple of a unit,
        another facet's vector or a random vector; the restrictions inherit
        it, so a failure is shared by the full pair and a boundary piece."""
        rng = random.Random(2510)
        failed = shared = 0
        for trial in range(120):
            k, ring = rng.choice((2, 3, 4)), rng.choice(("Z", "GF2"))
            base = build_family(k, ring).pair
            rank = base.chi.rank
            fid = rng.choice(sorted(base.chi.vectors))
            kind = rng.choice(("unit", "multiple", "copy", "random"))
            if kind == "copy":
                vec = base.chi.vectors[rng.choice(sorted(base.chi.vectors))]
            else:
                vec = [0] * rank
                if kind == "random":
                    vec = [rng.randint(-2, 2) for _ in range(rank)]
                else:
                    vec[rng.randrange(rank)] = 1 if kind == "unit" else rng.choice((2, -3))
            vectors = dict(base.chi.vectors, **{fid: tuple(vec)})
            pair = CharacteristicPair(
                base.polytope, CharacteristicFunction(ring, rank, vectors)
            )
            pairs = _certificate_pairs(pair)
            reports = validate_pairs(pairs)
            assert reports == _reference_validate_pairs(pairs), (trial, fid, vec)
            if not reports[0].ok:
                failed += 1
                shared += any(not r.ok for r in reports[1:])
        assert failed >= 40 and shared >= 20, (failed, shared)


def _per_vertex_reports(pair):
    """``validate`` by ``is_direct_summand`` on each vertex's vectors."""
    chi, failures = pair.chi, []
    for i, fs in enumerate(pair.polytope.vertex_facets):
        vecs = [chi.vectors[f] for f in sorted(fs & chi.assigned())]
        if len(vecs) > chi.rank:
            failures.append((i, f"{len(vecs)} assigned vectors exceed group rank"))
        elif not exactalg.is_direct_summand(vecs, chi.rank):
            failures.append((i, "facet vectors at this vertex do not span a direct summand"))
    return charpair.ValidityReport(not failures, pair.polytope.n_vertices, tuple(failures))


class TestUnitSplit:
    """``validate_pairs`` classifies each pair's units once; on mutations of
    xi it gives what ``is_direct_summand`` gives at every vertex."""

    MUTATIONS = ("shared unit", "negated unit", "two ones", "core row", "two pairs")

    @staticmethod
    def _mutated(base, kind, rng):
        rank, vectors = base.chi.rank, dict(base.chi.vectors)
        fids = sorted(vectors)
        units = [f for f in fids if exactalg.unit_coordinate(vectors[f]) is not None]
        core = [f for f in fids if f not in units]
        fid = rng.choice(core if kind == "core row" else fids)
        vec = [0] * rank
        if kind == "shared unit":
            vec = list(vectors[rng.choice([u for u in units if u != fid])])
        elif kind == "negated unit":
            vec[rng.randrange(rank)] = -1
        elif kind == "two ones":
            a, b = rng.sample(range(rank), 2)
            vec[a], vec[b] = rng.choice((1, -1)), rng.choice((1, -1))
        else:
            vec = list(vectors[fid])
            vec[rng.randrange(rank)] += rng.choice((-1, 1, 2))
        vectors[fid] = tuple(vec)
        return CharacteristicPair(base.polytope, CharacteristicFunction("Z", rank, vectors))

    def test_matches_per_vertex_reference(self):
        rng = random.Random(3611)
        outcomes = {kind: set() for kind in self.MUTATIONS}
        for k in range(2, 7):
            base = build_family(k, "Z").pair
            for trial in range(8):
                for kind in self.MUTATIONS:
                    pair = self._mutated(base, "core row" if kind == "two pairs" else kind, rng)
                    pairs = _certificate_pairs(pair)
                    if kind == "two pairs":
                        # same facet ids, one vector apart: no verdict is shared
                        pairs = _certificate_pairs(base) + pairs
                    got = validate_pairs(pairs)
                    assert got == [_per_vertex_reports(p) for p in pairs], (k, kind, trial)
                    outcomes[kind].add(all(r.ok for r in got))
        # two units on one coordinate always meet at some vertex; every
        # other kind both passes and fails
        assert outcomes == {
            kind: {False} if kind == "shared unit" else {True, False} for kind in self.MUTATIONS
        }

    def test_unit_coordinate(self):
        assert exactalg.unit_coordinate((0, -1, 0)) == 1
        assert exactalg.unit_coordinate((0, 0, 1)) == 2
        for v in ((0, 0, 0), (0, 2, 0), (1, 1, 0), (1, -1, 0)):
            assert exactalg.unit_coordinate(v) is None


# -- reference: the unpruned search -------------------------------------------
#
# _reference_isomorphisms is SimplePolytope.iter_isomorphisms and
# _reference_find_delta_translation the bijection loop of
# find_delta_translation as they stood before the search pruned inside
# the backtrack: every vertex is checked at the leaf, and every bijection
# is tried, with the assigned-set test and a full matvec per vector.
# They are kept here unchanged as the reference for the pruned search,
# with _reference_facet_profile the frozenset facet profile of that time.

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


def _reference_isomorphisms(self, other):
    if (
        self.dim != other.dim
        or self.n_facets != other.n_facets
        or self.n_vertices != other.n_vertices
    ):
        return
    prof_p = _reference_facet_profile(self)
    prof_q = _reference_facet_profile(other)
    if sorted(prof_p.values()) != sorted(prof_q.values()):
        return

    order = sorted(
        self.facet_ids,
        key=lambda f: (
            sum(1 for g in self.facet_ids if prof_p[g] == prof_p[f]),
            f,
        ),
    )
    candidates = {
        f: [g for g in other.facet_ids if prof_q[g] == prof_p[f]] for f in order
    }
    q_vertex_sets = {fs: i for i, fs in enumerate(other.vertex_facets)}

    assignment = {}
    used = set()

    def vertex_map_ok():
        seen = set()
        for fs in self.vertex_facets:
            image = frozenset(assignment[f] for f in fs)
            j = q_vertex_sets.get(image)
            if j is None or j in seen:
                return False
            seen.add(j)
        return True

    def backtrack(k):
        if k == len(order):
            if vertex_map_ok():
                yield dict(assignment)
            return
        f = order[k]
        fv = self.facet_vertices(f)
        for g in candidates[f]:
            if g in used:
                continue
            gv = other.facet_vertices(g)
            ok = True
            for f2, g2 in assignment.items():
                if len(fv & self.facet_vertices(f2)) != len(
                    gv & other.facet_vertices(g2)
                ):
                    ok = False
                    break
            if not ok:
                continue
            assignment[f] = g
            used.add(g)
            yield from backtrack(k + 1)
            del assignment[f]
            used.discard(g)

    yield from backtrack(0)


def _reference_find_delta_translation(pair1, pair2):
    """The bijection loop only: neither pair may take the simplex path."""
    ring = pair1.ring
    basis = charpair._independent_assigned_facets(pair1)
    b = charpair._columns(pair1, basis)
    if ring == "GF2":
        binv = Gf2Matrix.from_vectors(b).inverse()
    else:
        det_b, adj_b = exactalg.adjugate(b)
    patterns = [(1,) + signs for signs in iproduct((1, -1), repeat=len(basis) - 1)]
    assigned1 = pair1.chi.assigned()
    assigned2 = pair2.chi.assigned()

    for fmap in _reference_isomorphisms(pair1.polytope, pair2.polytope):
        if {fmap[f] for f in assigned1} != set(assigned2):
            continue
        w = charpair._columns(pair2, [fmap[f] for f in basis])
        if ring == "GF2":
            candidates = [Gf2Matrix.from_vectors(w).mul(binv).row_tuples()]
        elif abs(exactalg.determinant(w)) != abs(det_b):
            continue
        else:
            candidates = (
                charpair._divide_exact(charpair._signed(w, s), adj_b, det_b)
                for s in patterns
            )
        for delta in candidates:
            if delta is None:
                continue
            t = DeltaTranslation(ring, fmap, delta)
            if charpair._carries_vectors(
                pair1, pair2, t
            ) and verify_delta_translation(pair1, pair2, t):
                return t
    return None


PRUNED_SEARCH_CASES = [
    ("Z", k, "positive", seed) for k in (2, 3) for seed in range(3)
] + [("Z", 4, "positive", seed) for seed in range(2)] + [
    ("GF2", k, "positive", seed) for k in (2, 3, 4, 5) for seed in range(3)
] + [("Z", k, "negative", seed) for k in (2, 3) for seed in range(3)]


class TestPrunedSearchMatchesReference:
    @pytest.mark.parametrize("ring,k,kind,seed", PRUNED_SEARCH_CASES)
    def test_same_witness(self, ring, k, kind, seed):
        p1 = build_family(k, ring).boundary["p1"]
        source = build_family(k, ring).boundary["p2"] if kind == "positive" else product_pair(k)
        target = renamed(source, random.Random(1000 * k + seed))
        expected = _reference_find_delta_translation(p1, target)
        assert (expected is None) == (kind == "negative")
        assert find_delta_translation(p1, target) == expected

    @pytest.mark.parametrize("ring", ("Z", "GF2"))
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ("positive", "negative"))
    def test_same_witness_with_a_free_facet(self, ring, seed, kind):
        # every facet of the cube is like every other, so the search must
        # tell the free facet from the assigned ones by its vector alone
        cube = product(product(simplex(1), simplex(1)), simplex(1))

        def cube_pair(vectors):
            ids = ("L.L.d0", "L.L.d1", "L.R.d0", "L.R.d1", "R.d0")
            pair = CharacteristicPair(
                cube, CharacteristicFunction(ring, 3, dict(zip(ids, vectors)))
            )
            assert validate(pair)
            return pair

        pair = cube_pair([(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1)])
        if kind == "positive":
            source = pair
        else:
            # relations of two facets where pair has relations of three
            source = cube_pair([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)])
        target = renamed(source, random.Random(seed))
        expected = _reference_find_delta_translation(pair, target)
        assert (expected is None) == (kind == "negative")
        assert find_delta_translation(pair, target) == expected

    @pytest.mark.parametrize(
        "poly_factory",
        [
            lambda: build_family(2, "Z").boundary["p1"].polytope,
            lambda: build_family(3, "Z").boundary["p1"].polytope,
            lambda: product(product(simplex(1), simplex(1)), simplex(1)),
            lambda: product(simplex(2), simplex(2)),
        ],
    )
    def test_isomorphisms_in_reference_order(self, poly_factory):
        p = poly_factory()
        q, _ = renamed_polytope(p, random.Random(p.n_facets))
        expected = list(_reference_isomorphisms(p, q))
        assert expected
        assert list(p.iter_isomorphisms(q)) == expected

        # a rule on single (facet, image) choices keeps exactly the
        # bijections that avoid every rejected choice, in the same order
        rejected = {
            (f, g) for f in p.facet_ids for g in q.facet_ids
            if (len(f) + 3 * len(g) + ord(f[-1]) * ord(g[-1])) % 5 == 0
        }
        pruned = list(
            p.iter_isomorphisms(q, lambda a, f: (f, a[f]) not in rejected)
        )
        assert pruned == [
            m for m in expected if not any((f, g) in rejected for f, g in m.items())
        ]
        assert 0 < len(pruned) < len(expected)


# -- reference: the private tracked reduction -------------------------------------
#
# _reference_mod2_relations is charpair._mod2_relations as it stood before
# it ran through exactalg.gf2_basis with tag bits, with its _bits packing
# inlined; it is kept here as the reference for the tagged basis.

def _reference_mod2_relations(pair):
    basis = {}
    relations = []
    for fid in sorted(pair.chi.vectors):
        v = sum((x & 1) << j for j, x in enumerate(pair.chi.vectors[fid]))
        combo = frozenset((fid,))
        while v:
            low = (v & -v).bit_length() - 1
            if low not in basis:
                basis[low] = (v, combo)
                break
            b, b_combo = basis[low]
            v ^= b
            combo ^= b_combo
        else:
            relations.append(tuple(sorted(combo)))
    return relations


class TestMod2Relations:
    @pytest.mark.parametrize("ring", ("Z", "GF2"))
    @pytest.mark.parametrize("k", (2, 3, 4, 5))
    def test_family_pairs_match_reference(self, k, ring):
        fam = build_family(k, ring)
        for pair in (fam.pair, *(fam.boundary[p] for p in ("p1", "p2", "p3"))):
            relations = charpair._mod2_relations(pair)
            assert relations == _reference_mod2_relations(pair)
            assert len(relations) == len(pair.chi.vectors) - exactalg.gf2_rank(
                list(pair.chi.vectors.values())
            )

    def test_repeated_and_summing_vectors(self):
        pair = square_pair()
        assert charpair._mod2_relations(pair) == [("L.d0", "L.d1"), ("R.d0", "R.d1")]
        assert charpair._mod2_relations(RP2) == [("d0", "d1", "d2")]


# -- reference: a rank per candidate ----------------------------------------------
#
# _reference_independent_assigned_facets is charpair._independent_assigned_facets
# as it stood before GF(2) candidates were inserted into one XOR basis: every
# candidate recomputes the rank of all chosen vectors plus itself.

def _reference_independent_assigned_facets(pair):
    rank_of = exactalg.gf2_rank if pair.ring == "GF2" else exactalg.integer_rank
    chosen = []
    for fid in sorted(pair.chi.vectors):
        cand = chosen + [fid]
        if rank_of([pair.chi.vectors[f] for f in cand]) == len(cand):
            chosen = cand
            if len(chosen) == pair.chi.rank:
                return chosen
    return None


class TestIndependentAssignedFacets:
    @pytest.mark.parametrize("ring", ("Z", "GF2"))
    @pytest.mark.parametrize("k", (2, 3, 4, 5, 6))
    def test_family_pairs_match_reference(self, k, ring):
        fam = build_family(k, ring)
        for pair in (fam.pair, *(fam.boundary[p] for p in ("p1", "p2", "p3"))):
            reduced = CharacteristicPair(pair.polytope, pair.chi.mod2())
            for p in (pair, reduced):
                chosen = charpair._independent_assigned_facets(p)
                assert chosen is not None
                assert chosen == _reference_independent_assigned_facets(p)

    def test_random_gf2_pairs_match_reference(self):
        rng = random.Random(18)
        polytopes = [simplex(3), product(simplex(1), simplex(2)), build_family(2, "GF2").polytope]
        found = missed = 0
        for trial in range(200):
            poly = rng.choice(polytopes)
            rank = rng.randint(1, poly.dim + 1)
            ids = rng.sample(poly.facet_ids, rng.randint(0, poly.n_facets))
            vectors = {f: tuple(rng.randint(0, 1) for _ in range(rank)) for f in ids}
            pair = CharacteristicPair(poly, CharacteristicFunction("GF2", rank, vectors))
            chosen = charpair._independent_assigned_facets(pair)
            assert chosen == _reference_independent_assigned_facets(pair), vectors
            found += chosen is not None
            missed += chosen is None
        assert found > 50 and missed > 50


class TestSearchCap:
    @pytest.mark.parametrize("ring", ("Z", "GF2"))
    def test_cap_stops_the_search(self, ring):
        fam = build_family(2, ring)
        p1, p2 = fam.boundary["p1"], fam.boundary["p2"]
        assert find_delta_translation(p1, p2) is not None
        with pytest.raises(SearchCapExceeded):
            find_delta_translation(p1, p2, max_bijections=0)

    @pytest.mark.parametrize("k", (2, 3, 4, 5))
    def test_first_gf2_survivor_is_a_witness(self, k):
        # the cap counts bijections that survive the pruning; over GF(2)
        # the mod-2 relations leave no survivor that fails to translate
        fam = build_family(k, "GF2")
        target = renamed(fam.boundary["p2"], random.Random(k))
        t = find_delta_translation(fam.boundary["p1"], target, max_bijections=1)
        assert t == _reference_find_delta_translation(fam.boundary["p1"], target)
