"""The truncated-simplex family: vector tables, gluing data, certificates.

For even n >= 4 the n-simplex facet ``dj`` carries the integer vector
xi_j from a four-branch table; reducing mod 2 gives the GF(2) table
mu_j.  Cutting the simplex produces the polytope with three extra
facets p1, p2, p3 whose restricted pairs are the boundary pieces.  An
index permutation rho, the coordinate permutation it induces on facets
(phi), and three group automorphisms (h, f, h_s) identify the first two
boundary pieces and pin down orientation bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import __version__, exactalg
from .charpair import (
    RING_GF2,
    RING_Z,
    CharacteristicFunction,
    CharacteristicPair,
    DeltaTranslation,
    ValidityReport,
    compose_translations,
    find_delta_translation,
    json_object,
    orientable_small_cover,
    orientation_effect,
    restrict_with_report,
    standard_pair,
    validate,
    verify_delta_translation,
)
from .exactalg import Gf2Matrix, as_matrix
from .polytope import SimplePolytope, build_delta_Q, product, simplex

CUT_FACETS = ("p1", "p2", "p3")


class FamilyError(ValueError):
    pass


class ExpansionMismatch(FamilyError):
    """The reflection-count expansion does not have the expected support."""


def _check_n(n: int) -> None:
    if n < 4 or n % 2 != 0:
        raise FamilyError("the construction needs even n >= 4")


def xi_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The integer vector table xi_0 .. xi_n in Z^{n-1}.

    Rows j < n/2-1 and n/2 <= j < n are standard basis vectors; row
    n/2-1 is ones in the first n/2 places; row n is ones in the last
    n/2 places.
    """
    _check_n(n)
    half = n // 2
    rows = []
    for j in range(n + 1):
        if j < half - 1:
            vec = tuple(1 if i == j else 0 for i in range(n - 1))  # place j+1
        elif j == half - 1:
            vec = tuple(1 if i < half else 0 for i in range(n - 1))
        elif j < n:
            vec = tuple(1 if i == j - 1 else 0 for i in range(n - 1))  # place j
        else:
            vec = tuple(1 if i >= half - 1 else 0 for i in range(n - 1))
        rows.append(vec)
    return tuple(rows)


def xi(n: int) -> CharacteristicFunction:
    """Integer characteristic function on the facets of the n-simplex."""
    rows = xi_rows(n)
    return CharacteristicFunction(
        RING_Z, n - 1, {f"d{j}": rows[j] for j in range(n + 1)}
    )


def mu_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x % 2 for x in row) for row in xi_rows(n))


def mu(n: int) -> CharacteristicFunction:
    """Mod 2 reduction of the xi table."""
    return xi(n).mod2()


def rho(n: int) -> tuple[int, ...]:
    """Index permutation of {0..n} swapping the two simplex halves."""
    _check_n(n)
    half = n // 2
    out = []
    for j in range(n + 1):
        if j == half - 1:
            out.append(n)
        elif j == half:
            out.append(half)
        elif j == n:
            out.append(half - 1)
        else:
            out.append(n - 1 - j)
    return tuple(out)


def phi_facet_map(n: int) -> dict[str, str]:
    """Facet bijection p1 -> p2 induced by the coordinate permutation."""
    r = rho(n)
    return {f"d{j}": f"d{r[j]}" for j in range(n + 1)}


def h_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Basis reversal alpha_i -> alpha_{n-i} on Z^{n-1}."""
    _check_n(n)
    m = n - 1
    return tuple(
        tuple(1 if i + j == m - 1 else 0 for j in range(m)) for i in range(m)
    )


def f_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Sign flip of the first coordinate of Z^{n-1}."""
    _check_n(n)
    m = n - 1
    return tuple(
        tuple((-1 if i == 0 else 1) if i == j else 0 for j in range(m))
        for i in range(m)
    )


def hs_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Basis reversal over GF(2)."""
    return h_matrix(n)


@dataclass(frozen=True)
class FamilyDescriptor:
    """Everything the construction produces for one k.

    ``validity``, outside the JSON form, keeps the reports that validated
    the full pair (key ``"pair"``) and each boundary pair when it was built.
    """

    k: int
    n: int
    ring: str
    r1: Fraction
    r2: Fraction
    polytope: SimplePolytope
    pair: CharacteristicPair
    boundary: dict[str, CharacteristicPair]
    rho: tuple[int, ...]
    phi: dict[str, str]
    h: tuple[tuple[int, ...], ...]
    f: tuple[tuple[int, ...], ...]
    hs: tuple[tuple[int, ...], ...]
    validity: dict[str, ValidityReport] = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "ring": self.ring,
            "r1": str(self.r1),
            "r2": str(self.r2),
            "version": __version__,
            "polytope": self.polytope.to_json_dict(),
            "vectors": {
                fid: list(v) for fid, v in sorted(self.pair.chi.vectors.items())
            },
            "boundary": {
                fid: pair.to_json_dict() for fid, pair in sorted(self.boundary.items())
            },
            "maps": {
                "rho": list(self.rho),
                "phi": dict(sorted(self.phi.items())),
                "h": [list(r) for r in self.h],
                "f": [list(r) for r in self.f],
                "hs": [list(r) for r in self.hs],
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FamilyDescriptor":
        poly = SimplePolytope.from_json_dict(data["polytope"])
        n = data["n"]
        ring = data["ring"]
        vectors = {fid: tuple(v) for fid, v in json_object(data, "vectors").items()}
        chi = CharacteristicFunction(ring, n - 1, vectors)
        pair = CharacteristicPair(poly, chi)
        boundary = {
            fid: CharacteristicPair.from_json_dict(p)
            for fid, p in json_object(data, "boundary").items()
        }
        fam = cls(
            k=data["k"],
            n=n,
            ring=ring,
            r1=Fraction(data["r1"]),
            r2=Fraction(data["r2"]),
            polytope=poly,
            pair=pair,
            boundary=boundary,
            rho=tuple(data["maps"]["rho"]),
            phi=dict(data["maps"]["phi"]),
            h=as_matrix(data["maps"]["h"]),
            f=as_matrix(data["maps"]["f"]),
            hs=as_matrix(data["maps"]["hs"]),
        )
        return _with_aligned_p2_order(fam)


def _pushforward_order(
    source: SimplePolytope, target: SimplePolytope, fmap: dict[str, str]
) -> tuple[int, ...]:
    """Target vertex order listing the images of source's canonical order."""
    index = {fs: i for i, fs in enumerate(target.vertex_facets)}
    order = []
    for fs in source.vertex_facets:
        image = frozenset(fmap[f] for f in fs)
        order.append(index[image])
    return tuple(order)


def _with_aligned_p2_order(fam: "FamilyDescriptor") -> "FamilyDescriptor":
    """Declare p2's orientation datum as the phi-image of p1's order.

    The construction orients the first two boundary pieces compatibly
    with the coordinate permutation carrying one onto the other, so the
    polytope factor contributes +1 to the orientation effect of that
    gluing and only the group automorphism carries a sign.
    """
    p1 = fam.boundary["p1"]
    p2 = fam.boundary["p2"]
    order = _pushforward_order(p1.polytope, p2.polytope, fam.phi)
    boundary = dict(fam.boundary)
    boundary["p2"] = replace(p2, vertex_order=order)
    return replace(fam, boundary=boundary)


def build_family(
    k: int,
    ring: str = RING_Z,
    r1: Fraction | str = Fraction(1, 6),
    r2: Fraction | str = Fraction(1, 4),
) -> FamilyDescriptor:
    """Construct and validate the full descriptor for one k.

    The full pair on the truncated simplex leaves the three cut facets
    unassigned; the boundary pairs are its validated restrictions.
    """
    if k < 2:
        raise FamilyError("k must be at least 2 (n = 2k >= 4)")
    if ring not in (RING_Z, RING_GF2):
        raise FamilyError(f"unknown ring {ring!r}")
    n = 2 * k
    r1, r2 = Fraction(r1), Fraction(r2)
    poly = build_delta_Q(n, r1, r2)
    chi = xi(n) if ring == RING_Z else mu(n)
    pair = CharacteristicPair(poly, chi)
    report = validate(pair)
    if not report:
        raise FamilyError(
            f"construction pair invalid at vertices {[i for i, _ in report.failures]}"
        )
    for a in CUT_FACETS:
        for b in CUT_FACETS:
            if a < b and poly.facet_vertices(a) & poly.facet_vertices(b):
                raise FamilyError(f"cut facets {a}, {b} are not disjoint")
    boundary, validity = {}, {"pair": report}
    for fid in CUT_FACETS:
        boundary[fid], validity[fid] = restrict_with_report(pair, fid)
    fam = FamilyDescriptor(
        k=k,
        n=n,
        ring=ring,
        r1=r1,
        r2=r2,
        polytope=poly,
        pair=pair,
        boundary=boundary,
        rho=rho(n),
        phi=phi_facet_map(n),
        h=h_matrix(n),
        f=f_matrix(n),
        hs=hs_matrix(n),
        validity=validity,
    )
    return _with_aligned_p2_order(fam)


def boundary_translation(fam: FamilyDescriptor) -> DeltaTranslation:
    """The verified translation carrying the p1 pair onto the p2 pair."""
    delta = fam.h if fam.ring == RING_Z else fam.hs
    t = DeltaTranslation(fam.ring, dict(fam.phi), delta)
    if not verify_delta_translation(fam.boundary["p1"], fam.boundary["p2"], t):
        raise FamilyError("the (phi, h) translation failed to verify")
    return t


def gluing_translation(
    fam: FamilyDescriptor,
) -> tuple[DeltaTranslation, CharacteristicPair]:
    """The boundary identification used for the glued quotient.

    Returns the translation together with its target pair.  Over Z the
    group automorphism is h when 4 | n; when n = 4l + 2 it is f h and
    the target is the f-twisted coordinatization of the second boundary
    pair (same quotient space, group relabelled), which makes the
    identification orientation reversing.  Over GF(2) it is h_s.
    """
    t = boundary_translation(fam)
    target = fam.boundary["p2"]
    if fam.ring == RING_Z and fam.n % 4 != 0:
        flip = DeltaTranslation(
            RING_Z, {f: f for f in target.polytope.facet_ids}, fam.f
        )
        t = compose_translations(t, flip)
        twisted_chi = CharacteristicFunction(
            RING_Z,
            target.chi.rank,
            {
                fid: exactalg.mat_vec(fam.f, v)
                for fid, v in target.chi.vectors.items()
            },
        )
        target = replace(target, chi=twisted_chi)
    return t, target


def reflection_count(n: int) -> tuple[int, int]:
    """Support size of the two dependent-vector expansions, and d_n.

    The auxiliary table zeroes out rows n/2-1 and n of the mu table;
    the remaining rows form a GF(2) basis, the two zeroed rows expand in
    it with support exactly n/2, and the top boundary coefficient of
    the quotient complex is d_n = 1 + (-1)^(n/2).
    """
    _check_n(n)
    half = n // 2
    mus = mu_rows(n)
    span_indices = [j for j in range(n + 1) if j not in (half - 1, n)]
    cols = [mus[j] for j in span_indices]
    mat = Gf2Matrix.from_vectors(list(zip(*cols)))

    expected = {
        half - 1: set(range(half - 1)) | {half},
        n: set(range(half, n)),
    }
    for target_j, expect in expected.items():
        sol = mat.solve(mus[target_j])
        if sol is None:
            raise ExpansionMismatch(f"row {target_j} is not in the auxiliary span")
        support = {span_indices[i] for i, bit in enumerate(sol) if bit}
        if len(support) != half or support != expect:
            raise ExpansionMismatch(
                f"row {target_j} expands with support {sorted(support)},"
                f" expected {sorted(expect)}"
            )
    d_n = 1 + (-1) ** half
    return half, d_n


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    k: int
    n: int
    kind: str
    r1: Fraction
    r2: Fraction
    seed: int
    checks: dict[str, bool]
    gluing: dict
    boundary: dict
    homology: dict
    assumptions: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> list[str]:
        return sorted(name for name, good in self.checks.items() if not good)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "kind": self.kind,
            "params": {"r1": str(self.r1), "r2": str(self.r2)},
            "seed": self.seed,
            "version": __version__,
            "validation": {name: self.checks[name] for name in sorted(self.checks)},
            "gluing": self.gluing,
            "boundary": self.boundary,
            "homology": self.homology,
            "assumptions": list(self.assumptions),
            "ok": self.ok,
        }


class InvalidKind(FamilyError):
    """Requested certificate kind is impossible for this k."""


_COMMON_ASSUMPTIONS = (
    "The boundary orientation induced on each boundary piece agrees with its"
    " orientation as a characteristic-pair quotient; recorded as an input"
    " convention, not checked combinatorially.",
    "The coordinate-permutation map between the first two boundary pieces is"
    " declared orientation preserving on the polytope factor (the second"
    " piece's vertex-order datum is its pushforward), so the group"
    " automorphism alone carries the gluing sign.",
)


def glue_certificate(
    k: int,
    kind: str,
    r1: Fraction | str = Fraction(1, 6),
    r2: Fraction | str = Fraction(1, 4),
    seed: int = 0,
) -> Certificate:
    """End-to-end certificate for one member of the family.

    ``kind`` is ``complex`` (integer vectors, any k >= 2) or ``real``
    (GF(2) vectors, n = 2k congruent to 2 mod 4).  Every checkable claim
    is recomputed; manifold-level statements that have no combinatorial
    shadow are listed under assumptions.
    """
    from . import cellular  # deferred: cellular pulls in no family symbols

    if kind not in ("complex", "real"):
        raise InvalidKind(f"unknown kind {kind!r}")
    n = 2 * k
    if kind == "real" and n % 4 != 2:
        raise InvalidKind(
            "real certificates need n = 2k congruent to 2 mod 4; the total"
            " space is nonorientable when 4 divides n"
        )
    ring = RING_Z if kind == "complex" else RING_GF2
    fam = build_family(k, ring, r1, r2)
    checks: dict[str, bool] = {}
    assumptions = list(_COMMON_ASSUMPTIONS)

    checks["pair_valid"] = fam.validity["pair"].ok
    for fid in CUT_FACETS:
        checks[f"boundary_valid_{fid}"] = fam.validity[fid].ok
    checks["boundary_disjoint"] = all(
        not (fam.polytope.facet_vertices(a) & fam.polytope.facet_vertices(b))
        for a in CUT_FACETS
        for b in CUT_FACETS
        if a < b
    )

    p3_poly = fam.boundary["p3"].polytope
    checks["p3_is_simplex"] = (
        p3_poly.is_combinatorially_isomorphic(simplex(n - 1)) is not None
    )
    reference = product(simplex(k - 1), simplex(k))
    p1_poly = fam.boundary["p1"].polytope
    checks["p1_is_simplex_product"] = (
        p1_poly.is_combinatorially_isomorphic(reference) is not None
    )
    checks["p1_p2_isomorphic"] = verify_delta_translation(
        fam.boundary["p1"], fam.boundary["p2"], boundary_translation(fam)
    )

    glue, glue_target = gluing_translation(fam)
    checks["gluing_verifies"] = verify_delta_translation(
        fam.boundary["p1"], glue_target, glue
    )
    if ring == RING_Z:
        effect = orientation_effect(glue, fam.boundary["p1"], glue_target)
        checks["gluing_orientation_reversing"] = effect == -1
        effect_source = "computed"
        if fam.n % 4 != 0:
            assumptions.append(
                "For n = 4l+2 the gluing composes with the first-coordinate"
                " sign flip; its target is the flipped coordinatization of"
                " the second boundary pair, the same quotient space with the"
                " group relabelled."
            )
    else:
        effect = -1
        effect_source = "assumed"
        assumptions.append(
            "Over GF(2) the group automorphism has no determinant sign; the"
            " gluing is recorded as orientation reversing per the source"
            " construction."
        )
    gluing_dict = {
        "phi": dict(sorted(glue.facet_map.items())),
        "delta": [list(r) for r in glue.delta],
        "orientation_effect": effect,
        "orientation_source": effect_source,
    }

    std_name = "complex_projective" if kind == "complex" else "real_projective"
    std = standard_pair(std_name, n - 1)
    witness = find_delta_translation(fam.boundary["p3"], std)
    checks["boundary_is_standard"] = witness is not None and verify_delta_translation(
        fam.boundary["p3"], std, witness
    )
    conjugate = kind == "complex" and n % 4 == 0
    boundary_dict = {
        "standard": ("CP" if kind == "complex" else "RP") + str(n - 1),
        "conjugate": conjugate,
        "translation": witness.to_json_dict() if witness is not None else None,
    }
    if kind == "complex":
        assumptions.append(
            "The conjugate branch (n divisible by 4) is recorded from the"
            " construction's sign conventions; sign-class vector data cannot"
            " distinguish a pair from its conjugate."
        )

    functional = cellular.draw_functional(fam.polytope, seed)
    homology_dict: dict = {"seed": seed, "functional": [str(c) for c in functional.coeffs]}
    if kind == "complex":
        table = cellular.homology_w_rel_boundary(fam, functional)
        homology_dict["relative_table"] = cellular.table_to_json(table)
        checks["top_relative_homology_Z"] = table[2 * n - 1] == (1, ())
        checks["table_concentrated_odd"] = all(
            table[d] == (0, ())
            for d in range(1, 2 * n)
            if d % 2 == 0
        )
    else:
        count, d_n = reflection_count(n)
        homology_dict["reflection_count"] = count
        homology_dict["d_n"] = d_n
        checks["d_n_zero"] = d_n == 0
        for fid in CUT_FACETS:
            checks[f"orientable_cover_{fid}"] = orientable_small_cover(
                fam.boundary[fid]
            )
        checks["total_space_orientable"] = cellular.is_orientable_space(fam)
        if n <= cellular.ORACLE_MAX_N:
            betti = cellular.small_cover_gf2_betti(fam.boundary["p3"])
            homology_dict["p3_cover_gf2_betti"] = list(betti)
            checks["p3_cover_betti_all_one"] = all(b == 1 for b in betti)

    return Certificate(
        k=k,
        n=n,
        kind=kind,
        r1=Fraction(r1),
        r2=Fraction(r2),
        seed=seed,
        checks=checks,
        gluing=gluing_dict,
        boundary=boundary_dict,
        homology=homology_dict,
        assumptions=tuple(assumptions),
    )
