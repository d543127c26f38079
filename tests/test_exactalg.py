import random
from collections import Counter

import pytest

from toric_cobordism.cellular import cover_complex
from toric_cobordism.exactalg import (
    DimensionMismatch,
    Gf2Matrix,
    adjugate,
    as_matrix,
    det_sign,
    determinant,
    gf2_basis,
    gf2_pack,
    gf2_rank,
    identity_matrix,
    invariant_factors,
    is_direct_summand,
    mat_mul,
    mat_vec,
    permutation_sign,
    smith_normal_form,
    solve_gf2,
    unit_pivot_elimination,
)
from toric_cobordism import charpair
from toric_cobordism.family import build_family


def reversal(m):
    return [[1 if i + j == m - 1 else 0 for j in range(m)] for i in range(m)]


class TestSmith:
    def test_identity(self):
        s = smith_normal_form(identity_matrix(3))
        assert s.rank == 3
        assert s.d == identity_matrix(3)

    def test_dependent_rows_rank_two(self):
        # the first three table vectors for n=4: row0 + row2 == row1
        s = smith_normal_form([(1, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert s.rank == 2
        assert s.invariant_factors == (1, 1)

    def test_recomposition_random(self):
        rng = random.Random(12345)
        for _ in range(200):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = as_matrix(
                [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            )
            s = smith_normal_form(m)
            assert mat_mul(mat_mul(s.u, m), s.v) == s.d
            assert abs(determinant(s.u)) == 1
            assert abs(determinant(s.v)) == 1
            diag = [s.d[i][i] for i in range(min(nr, nc))]
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if b != 0:
                    assert a != 0 and b % a == 0
            assert tuple(x for x in diag if x) == invariant_factors(m)

    def test_sparse_matches_dense(self):
        rng = random.Random(99)
        for _ in range(50):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [
                {j: rng.randint(-4, 4) for j in range(nc) if rng.random() < 0.5}
                for _ in range(nr)
            ]
            dense = [[rows[i].get(j, 0) for j in range(nc)] for i in range(nr)]
            want = smith_normal_form(dense).invariant_factors if any(
                any(r) for r in dense
            ) else ()
            assert unit_pivot_elimination(rows, nc)[0] == want
            assert invariant_factors(dense) == want

    def test_torsion_example(self):
        s = smith_normal_form([[2, 0], [0, 3]])
        assert s.invariant_factors == (1, 6)

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            smith_normal_form([])


class TestDirectSummand:
    def test_unimodular_triple(self):
        assert is_direct_summand([(1, 0, 0), (1, 1, 0), (0, 0, 1)], 3)

    def test_index_two_sublattice(self):
        assert not is_direct_summand([(2, 0), (0, 1)], 2)

    def test_dependent_triple(self):
        assert not is_direct_summand([(1, 0, 0), (1, 1, 0), (0, 1, 0)], 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_direct_summand([(1, 0)], 3)

    def test_invariance_under_reordering_and_negation(self):
        rng = random.Random(7)
        vectors = [(1, 2, 0), (0, 1, 1)]
        assert is_direct_summand(vectors, 3)
        for _ in range(20):
            perm = vectors[:]
            rng.shuffle(perm)
            flipped = [
                tuple(-x for x in v) if rng.random() < 0.5 else v for v in perm
            ]
            assert is_direct_summand(flipped, 3)

    def test_invariance_under_unimodular_change(self):
        u = ((1, 1, 0), (0, 1, 0), (1, 0, 1))
        assert abs(determinant(u)) == 1
        vectors = [(1, 0, 0), (0, 0, 1)]
        moved = [tuple(sum(u[i][j] * v[j] for j in range(3)) for i in range(3)) for v in vectors]
        assert is_direct_summand(vectors, 3) == is_direct_summand(moved, 3)

    def test_unit_split_matches_smith_route(self):
        """Splitting off unit vectors never changes a verdict of the
        Smith normal form taken over every vector."""
        rng = random.Random(25)
        seen = Counter()
        for _ in range(12_000):
            r = rng.randint(1, 6)
            hub = rng.randrange(r)  # a coordinate many vectors meet
            all_units = rng.random() < 0.2
            vectors = []
            for _ in range(rng.randint(0, r + 1)):
                kind = "unit" if all_units else rng.choice(
                    ("unit", "unit", "multiple", "zero", "dense", "meets hub")
                )
                c = hub if rng.random() < 0.4 else rng.randrange(r)
                v = [0] * r
                if kind == "unit":
                    v[c] = rng.choice((1, -1))
                elif kind == "multiple":
                    v[c] = rng.choice((2, -2, 3, -3))
                elif kind == "dense":
                    v = [rng.randint(-2, 2) for _ in range(r)]
                elif kind == "meets hub":
                    v = [rng.randint(-1, 1) for _ in range(r)]
                    v[hub] = rng.choice((1, -1, 2))
                vectors.append(tuple(v))
            expected = _summand_by_smith(vectors, r)
            assert is_direct_summand(vectors, r) == expected, (vectors, r)
            seen[expected] += 1
            units = [v.index(1) if 1 in v else v.index(-1) for v in vectors if sum(map(abs, v)) == 1]
            if len(set(units)) < len(units):
                seen["duplicate unit"] += 1
            if any(v[c] and sum(map(abs, v)) > 1 for c in units for v in vectors):
                seen["unit beside a vector nonzero there"] += 1
            if any(max(map(abs, v)) >= 2 and v.count(0) == r - 1 for v in vectors):
                seen["multiple of a unit"] += 1
            if any(not any(v) for v in vectors):
                seen["zero vector"] += 1
            if vectors and len(units) == len(vectors):
                seen["all units"] += 1
        for case in (True, False, "duplicate unit", "unit beside a vector nonzero there",
                     "multiple of a unit", "zero vector", "all units"):
            assert seen[case] >= 200, (case, seen)


def _summand_by_smith(vectors, ambient_rank):
    """``is_direct_summand`` as it stood before unit vectors were split
    off: the invariant factors of all the vectors at once."""
    if not vectors:
        return True
    if len(vectors) > ambient_rank:
        return False
    fs = invariant_factors(vectors)
    return len(fs) == len(vectors) and all(f == 1 for f in fs)


class TestGf2:
    def test_identity_all_ones(self):
        assert solve_gf2(identity_matrix(4), [1, 1, 1, 1]) == (1, 1, 1, 1)

    def test_no_solution(self):
        rows = [(1, 0), (0, 1), (1, 1)]
        assert solve_gf2(rows, [1, 1, 1]) is None
        # exhaustive confirmation over GF(2)^2
        for x0 in (0, 1):
            for x1 in (0, 1):
                images = [(x0), (x1), (x0 + x1) % 2]
                assert images != [1, 1, 1]

    def test_repeated_rows(self):
        rows = [(1, 0), (0, 1), (1, 0), (0, 1)]
        assert solve_gf2(rows, [1, 1, 1, 1]) == (1, 1)

    def test_solution_always_verifies(self):
        rng = random.Random(3)
        for _ in range(100):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [
                tuple(rng.randint(0, 1) for _ in range(nc)) for _ in range(nr)
            ]
            b = [rng.randint(0, 1) for _ in range(nr)]
            x = solve_gf2(rows, b)
            if x is not None:
                for row, bv in zip(rows, b):
                    assert sum(r * v for r, v in zip(row, x)) % 2 == bv
            elif nc <= 10:
                for cand in range(1 << nc):
                    xs = [(cand >> j) & 1 for j in range(nc)]
                    assert any(
                        sum(r * v for r, v in zip(row, xs)) % 2 != bv
                        for row, bv in zip(rows, b)
                    )

    def test_rank_and_inverse(self):
        m = Gf2Matrix.from_vectors([(1, 1, 0), (0, 1, 1), (0, 0, 1)])
        assert m.rank() == 3
        inv = m.inverse()
        assert inv is not None
        assert m.mul(inv).row_tuples() == tuple(
            tuple(1 if i == j else 0 for j in range(3)) for i in range(3)
        )
        assert gf2_rank([(1, 1), (1, 1)]) == 1


def _sparse_matrices(seed=99, count=50):
    # the seeded matrices of TestSmith.test_sparse_matches_dense
    rng = random.Random(seed)
    for _ in range(count):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        yield [
            {j: rng.randint(-4, 4) for j in range(nc) if rng.random() < 0.5}
            for _ in range(nr)
        ], nc


def _gf2_matrices():
    # the seeded matrices of TestGf2.test_solution_always_verifies
    rng = random.Random(3)
    for _ in range(100):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [tuple(rng.randint(0, 1) for _ in range(nc)) for _ in range(nr)]
        [rng.randint(0, 1) for _ in range(nr)]  # that test's right-hand side
        yield rows, nc


def _snf_factors(rows, nc):
    """Nonzero invariant factors of sparse rows, from the full Smith
    normal form of their dense matrix."""
    dense = [[row.get(j, 0) for j in range(nc)] for row in rows]
    if not any(any(row) for row in dense):
        return ()
    return smith_normal_form(dense).invariant_factors


class TestUnitPivotElimination:
    def test_no_skip_matches_invariant_factors(self):
        for rows, nc in _sparse_matrices():
            before = [dict(row) for row in rows]
            factors, _ = unit_pivot_elimination(rows, nc)
            assert rows == before
            assert factors == _snf_factors(rows, nc)

    def test_pivot_block_is_unimodular(self):
        # The row lattice, projected onto the pivot columns, is all of
        # Z^pivots: the pivot block of the row combinations is unimodular.
        seen = 0
        for rows, nc in _sparse_matrices():
            _, pivots = unit_pivot_elimination(rows, nc)
            if not pivots:
                continue
            seen += 1
            cols = sorted(pivots)
            block = [[row.get(j, 0) for j in cols] for row in rows]
            assert smith_normal_form(block).invariant_factors == (1,) * len(cols)
        assert seen > 20

    def test_skipped_rows_are_left_out(self):
        for rows, nc in _sparse_matrices(seed=7):
            skip = set(range(0, len(rows), 2))
            kept = [row for i, row in enumerate(rows) if i not in skip]
            factors, _ = unit_pivot_elimination(rows, nc, skip)
            assert factors == _snf_factors(kept, nc)

    def test_column_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            unit_pivot_elimination([{0: 1, 3: 1}], 3)

    def test_row_gaining_a_unit_is_pivoted(self):
        # The first pivot leaves the second row as {0: -1}; without a
        # second look at that row the dense finish would find its factor
        # 1, so only the pivot count tells the two apart.
        factors, pivots = unit_pivot_elimination([{1: 1, 0: 2}, {1: 2, 0: 3}], 2)
        assert factors == (1, 1)
        assert len(pivots) == 2

    def test_core_row_meeting_a_later_key_is_reduced_again(self):
        # The first row has no unit entry and joins the core; the second
        # then opens key 1, and only reducing the core row on it again
        # leaves it zero.  Left in the core it would add a factor 2.
        factors, pivots = unit_pivot_elimination([{0: 2, 1: 2}, {1: 1, 0: 1}], 2)
        assert factors == (1,)
        assert pivots == frozenset({1})

    # Degrees 7..1 of the top-down Z sweep over an n = 8 small cover:
    # (unit factors, factors > 1, unit pivots), recorded before the
    # pivot order changed.  An order that leaves unit entries to the
    # dense finish keeps the factors but lowers the pivot counts.
    # The p2 cover and the relative complexes of the k = 3, 4 families
    # (degrees 2k..1) were added later, their factors recorded by
    # _reference_invariant_factors in tests/test_cellular.py, with one
    # pivot per unit factor.
    COVER_SWEEPS = {
        "p1": (
            (127, (2,), 127), (447, (2,), 447), (702, (2, 2), 702), (638, (2, 2), 638),
            (358, (2,), 358), (119, (2, 2), 119), (19, (), 19),
        ),
        "p3": (
            (127, (), 127), (384, (2,), 384), (511, (), 511), (384, (2,), 384),
            (175, (), 175), (48, (2,), 48), (7, (), 7),
        ),
        "p2": (
            (127, (2,), 127), (447, (2,), 447), (702, (2, 2), 702), (638, (2, 2), 638),
            (358, (2,), 358), (119, (2, 2), 119), (19, (), 19),
        ),
        "rel-k3": (
            (31, (), 31), (79, (2, 2), 79), (86, (2,), 86), (50, (2, 2, 2), 50),
            (13, (), 13), (0, (), 0),
        ),
        "rel-k4": (
            (127, (2,), 127), (447, (2,), 447), (702, (2, 2), 702), (638, (2, 2), 638),
            (365, (2,), 365), (127, (2, 2, 2), 127), (22, (), 22), (0, (), 0),
        ),
    }

    @pytest.mark.parametrize("piece", sorted(COVER_SWEEPS))
    def test_cover_sweep_pivots(self, piece):
        if piece.startswith("rel-k"):
            cc = cover_complex(build_family(int(piece[5:]), "GF2").pair, "Z", relative=True)
        else:
            cc = cover_complex(build_family(4, "GF2").boundary[piece], "Z")
        skip = frozenset()
        seen = []
        for d in range(cc.dim, 0, -1):
            factors, skip = unit_pivot_elimination(cc.boundaries[d], cc.cell_counts[d - 1], skip)
            seen.append((factors, len(skip)))
        assert seen == [
            ((1,) * ones + rest, pivots) for ones, rest, pivots in self.COVER_SWEEPS[piece]
        ]


class TestGf2Basis:
    @staticmethod
    def _bits(rows):
        return [sum(bit << j for j, bit in enumerate(row)) for row in rows]

    def test_rank_matches_image_size(self):
        # rank r <=> the column map x -> A x has 2^r images
        for rows, nc in _gf2_matrices():
            images = {
                tuple(sum(r * ((x >> j) & 1) for j, r in enumerate(row)) % 2 for row in rows)
                for x in range(1 << nc)
            }
            rank = len(gf2_basis(self._bits(rows)))
            assert 1 << rank == len(images)
            assert rank == gf2_rank(rows)

    def test_keys_are_unit_triangular_pivots_in_the_row_space(self):
        for rows, nc in _gf2_matrices():
            basis = gf2_basis(self._bits(rows))
            for key, v in basis.items():
                assert v & ((1 << (key + 1)) - 1) == 1 << key
                target = [(v >> j) & 1 for j in range(nc)]
                assert solve_gf2(list(zip(*rows)), target) is not None


# -- reference: Gauss-Jordan over GF(2) -----------------------------------------
#
# _reference_solve and _reference_inverse are Gf2Matrix.solve and
# Gf2Matrix.inverse as they stood before both ran through gf2_basis;
# they are kept here unchanged as the reference for that route.

def _reference_solve(self, b):
    if len(b) != self.nrows:
        raise DimensionMismatch("rhs length != number of rows")
    bbit = 1 << self.ncols
    aug = [r | (bbit if int(bv) % 2 else 0) for r, bv in zip(self.rows, b)]
    pivots = []
    rank = 0
    for col in range(self.ncols):
        bit = 1 << col
        piv = next((k for k in range(rank, len(aug)) if aug[k] & bit), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        for k in range(len(aug)):
            if k != rank and aug[k] & bit:
                aug[k] ^= aug[rank]
        pivots.append(col)
        rank += 1
    if any(row == bbit for row in aug):
        return None
    x = [0] * self.ncols
    for k, col in enumerate(pivots):
        if aug[k] & bbit:
            x[col] = 1
    xbits = sum(bit << j for j, bit in enumerate(x))
    for r, bv in zip(self.rows, b):
        if bin(r & xbits).count("1") % 2 != int(bv) % 2:
            raise AssertionError("GF(2) solver produced a bad solution")
    return tuple(x)


def _reference_inverse(self):
    if self.nrows != self.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = self.ncols
    aug = [r | (1 << (n + i)) for i, r in enumerate(self.rows)]
    rank = 0
    for col in range(n):
        bit = 1 << col
        piv = next((k for k in range(rank, n) if aug[k] & bit), None)
        if piv is None:
            return None
        aug[rank], aug[piv] = aug[piv], aug[rank]
        for k in range(n):
            if k != rank and aug[k] & bit:
                aug[k] ^= aug[rank]
        rank += 1
    inv_rows = [row >> n for row in aug]
    return Gf2Matrix(n, inv_rows)


def _seeded_systems(count=3000, seed=8):
    """(A, b) over GF(2): random, rank-deficient by repeated or summed
    rows and columns, and with b in the column span or not."""
    rng = random.Random(seed)
    for i in range(count):
        nr, nc = rng.randint(0, 7), rng.randint(0, 7)
        rows = [rng.getrandbits(nc) if nc else 0 for _ in range(nr)]
        if i % 3 == 1 and nr >= 2:
            rows[-1] = rows[0] ^ (rows[1] if i % 2 else 0)
        if i % 3 == 2 and nc >= 2:
            a, c = rng.sample(range(nc), 2)
            rows = [r & ~(1 << c) | ((r >> a) & 1) << c for r in rows]
        m = Gf2Matrix(nc, rows)
        if i % 2:
            b = m.matvec([rng.randint(0, 1) for _ in range(nc)])
        else:
            b = tuple(rng.randint(0, 1) for _ in range(nr))
        yield m, b


def _brute_force_inverse(m):
    """Column i is the one x with m x = e_i, found among all 2^n vectors."""
    n = m.ncols
    preimage = {}
    for x in range(1 << n):
        preimage.setdefault(m.matvec([(x >> j) & 1 for j in range(n)]), x)
    if len(preimage) < 1 << n:
        return None
    unit = [tuple(int(i == r) for r in range(n)) for i in range(n)]
    cols = [preimage[e] for e in unit]
    return tuple(tuple((cols[i] >> r) & 1 for i in range(n)) for r in range(n))


class TestGf2SolveOnTheBasis:
    def test_pack(self):
        assert gf2_pack((1, 0, 1, 1)) == 0b1101
        assert gf2_pack((3, -1, 2, 0)) == 0b11
        assert gf2_pack(()) == 0

    def test_solve_matches_gauss_jordan(self):
        outcomes = set()
        for m, b in _seeded_systems():
            x = m.solve(b)
            assert x == _reference_solve(m, b)
            outcomes.add((x is None, m.rank() < min(m.nrows, m.ncols)))
        # solvable and unsolvable systems, of full and deficient rank
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}

    def test_inverse_matches_gauss_jordan_and_brute_force(self):
        rng = random.Random(21)
        singular = 0
        for _ in range(600):
            n = rng.randint(0, 6)
            m = Gf2Matrix(n, [rng.getrandbits(n) if n else 0 for _ in range(n)])
            inv = m.inverse()
            expected = _brute_force_inverse(m)
            assert (inv is None) == (expected is None)
            ref = _reference_inverse(m)
            if inv is None:
                assert ref is None
                singular += 1
                continue
            assert inv.row_tuples() == expected == ref.row_tuples()
            unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            assert m.mul(inv).row_tuples() == inv.mul(m).row_tuples() == unit
        assert 100 < singular < 500

    def test_inverse_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            Gf2Matrix(2, [1, 2, 3]).inverse()


class TestPermutationSign:
    def test_identity(self):
        assert permutation_sign((0, 1, 2, 3)) == 1

    def test_rho_like_double_swap(self):
        # (0 3)(1 4) fixing 2
        assert permutation_sign((3, 4, 2, 0, 1)) == 1

    def test_single_swap(self):
        assert permutation_sign((1, 0, 2)) == -1

    def test_not_bijection(self):
        with pytest.raises(ValueError):
            permutation_sign((0, 0, 1))

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(50):
            m = rng.randint(1, 8)
            p = list(range(m))
            q = list(range(m))
            rng.shuffle(p)
            rng.shuffle(q)
            comp = [p[q[i]] for i in range(m)]
            assert permutation_sign(comp) == permutation_sign(p) * permutation_sign(q)


class TestDeterminant:
    def test_reversal_3x3(self):
        assert det_sign(reversal(3)) == -1

    def test_reversal_5x5(self):
        assert det_sign(reversal(5)) == 1

    def test_identity(self):
        assert det_sign(identity_matrix(4)) == 1

    def test_singular(self):
        assert det_sign([[1, 2], [2, 4]]) == 0

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            det_sign([[1, 2, 3], [4, 5, 6]])

    def test_matches_cofactor_small(self):
        rng = random.Random(5)
        for _ in range(100):
            m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            cof = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            assert determinant(m) == cof


class TestAdjugate:
    @staticmethod
    def cofactor_adjugate(m):
        k = len(m)
        return tuple(
            tuple(
                (-1) ** (i + j)
                * determinant([r[:i] + r[i + 1:] for q, r in enumerate(m) if q != j])
                for j in range(k)
            )
            for i in range(k)
        )

    def test_times_matrix_is_det_identity(self):
        rng = random.Random(4)
        singular = 0
        for _ in range(300):
            k = rng.randint(1, 6)
            m = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
            if k > 1 and rng.random() < 0.3:
                # a row that is a sum of two others, or zero: singular
                m[-1] = [a + b for a, b in zip(m[0], m[1 % (k - 1)])]
            d, adj = adjugate(m)
            singular += d == 0
            assert d == determinant(m)
            if d == 0:
                # a singular matrix has no adjugate from the elimination
                assert adj is None
                continue
            scaled = tuple(tuple(d * x for x in row) for row in identity_matrix(k))
            assert mat_mul(as_matrix(m), adj) == scaled
            assert mat_mul(adj, as_matrix(m)) == scaled
        assert singular > 50

    def test_matches_cofactors(self):
        rng = random.Random(8)
        for _ in range(100):
            k = rng.randint(2, 5)
            m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            d, adj = adjugate(m)
            assert adj == (self.cofactor_adjugate(m) if d else None)

    def test_row_swaps(self):
        assert adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))
        assert adjugate([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == (
            1,
            ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
        )

    def test_empty_and_non_square(self):
        assert adjugate([]) == (1, ())
        with pytest.raises(DimensionMismatch):
            adjugate([[1, 2, 3], [4, 5, 6]])


# ---------------------------------------------------------------------------
# the kernels against their per-entry definitions
# ---------------------------------------------------------------------------

def _per_entry_mat_mul(a, b):
    if not a or not b:
        return ()
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _per_entry_mat_vec(a, x):
    return tuple(sum(c * v for c, v in zip(row, x)) for row in a)


def _per_entry_gf2_pack(vec):
    return sum((int(x) & 1) << j for j, x in enumerate(vec))


def _per_entry_determinant(m):
    """Bareiss elimination updating every row below the pivot."""
    a = [list(map(int, row)) for row in m]
    k = len(a)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for t in range(k - 1):
        if a[t][t] == 0:
            for i in range(t + 1, k):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[t][t]
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                a[i][j] = (a[i][j] * piv - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = piv
    return sign * a[k - 1][k - 1]


def _per_entry_adjugate(m):
    """Fraction-free Gauss-Jordan on [M | I] updating every other row."""
    rows = [list(map(int, row)) for row in m]
    k = len(rows)
    a = [row + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for t in range(k):
        piv = next((i for i in range(t, k) if a[i][t]), None)
        if piv is None:
            return 0, None
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            sign = -sign
        p, pivot_row = a[t][t], a[t]
        for i in range(k):
            if i != t:
                f = a[i][t]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[k:]) for row in a)


def _laplace(m):
    """Cofactor expansion along the row with the fewest nonzero entries."""
    k = len(m)
    if k == 0:
        return 1
    i = min(range(k), key=lambda r: sum(map(bool, m[r])))
    rest = m[:i] + m[i + 1:]
    return sum(
        (-1) ** (i + j) * x * _laplace([r[:j] + r[j + 1:] for r in rest])
        for j, x in enumerate(m[i])
        if x
    )


def _laplace_adjugate(m):
    k = len(m)
    return tuple(
        tuple(
            (-1) ** (i + j)
            * _laplace([r[:i] + r[i + 1:] for q, r in enumerate(m) if q != j])
            for j in range(k)
        )
        for i in range(k)
    )


def _random_entry(rng):
    # negative entries, and now and then one past a machine word
    x = rng.randint(-9, 9)
    return x * 10**rng.randint(15, 25) if rng.random() < 0.1 else x


def _sparse_non_unit(rng, k):
    """A k x k matrix, about half zeros, with no entry +-1, so pivots are
    never +-1 and a row with a zero multiplier must still be rescaled."""
    return [
        [rng.choice((-6, -4, -3, -2, 2, 3, 5, 7)) if rng.random() < 0.5 else 0 for _ in range(k)]
        for _ in range(k)
    ]


def _xi_basis_matrices(k):
    """The basis matrices of the p3 search at k: one per leftover facet,
    on both the p3 pair and the standard pair it is compared with."""
    p3 = build_family(k, "Z").boundary["p3"]
    std = charpair.standard_pair("complex_projective", 2 * k - 1)
    for pair in (p3, std):
        fids = sorted(pair.polytope.facet_ids)
        for g in fids:
            yield [list(r) for r in charpair._columns(pair, [f for f in fids if f != g])]


class TestKernelsMatchPerEntryDefinitions:
    def test_mat_vec_and_mat_mul(self):
        rng = random.Random(2024)
        shapes = [(0, 0, 0), (1, 1, 1)] + [
            tuple(rng.randint(1, 6) for _ in range(3)) for _ in range(200)
        ]
        for nr, nm, nc in shapes:
            a = as_matrix([[_random_entry(rng) for _ in range(nm)] for _ in range(nr)])
            b = as_matrix([[_random_entry(rng) for _ in range(nc)] for _ in range(nm)])
            x = tuple(_random_entry(rng) for _ in range(nm))
            assert mat_mul(a, b) == _per_entry_mat_mul(a, b)
            assert mat_vec(a, x) == _per_entry_mat_vec(a, x)
        assert mat_vec(((), ()), ()) == (0, 0)

    def test_as_matrix(self):
        class Tagged(int):
            pass

        rows = [(True, False, Tagged(-3)), (Tagged(2), -(10**30), 0)]
        got = as_matrix(rows)
        assert got == tuple(tuple(int(x) for x in row) for row in rows)
        assert all(type(x) is int for row in got for x in row)
        assert as_matrix([]) == ()

    def test_gf2_pack(self):
        class Tagged(int):
            pass

        rng = random.Random(7)
        vectors = [
            (),
            (0, 0, 0),
            (-1, 2, 3),
            (-3, 0, 0, -2),
            (True, False, True),
            (Tagged(3), Tagged(-2), Tagged(5)),
            (10**30 + 1, -(10**30) - 1, 10**30),
        ] + [
            tuple(_random_entry(rng) for _ in range(rng.randint(0, 12)))
            for _ in range(300)
        ]
        for v in vectors:
            assert gf2_pack(v) == _per_entry_gf2_pack(v)
            assert gf2_pack(list(v)) == _per_entry_gf2_pack(v)

    def test_determinant_and_adjugate_on_sparse_non_unit_pivots(self):
        rng = random.Random(31)
        singular = invertible = 0
        for _ in range(400):
            m = _sparse_non_unit(rng, rng.randint(0, 6))
            d = _laplace(m)
            assert determinant(m) == _per_entry_determinant(m) == d
            got = adjugate(m)
            assert got == _per_entry_adjugate(m)
            assert got[0] == d
            if d:
                assert got[1] == _laplace_adjugate(m)
            singular += d == 0
            invertible += d != 0 and len(m) >= 3
        assert singular > 20 and invertible > 100

    @pytest.mark.parametrize("k", range(2, 9))
    def test_determinant_and_adjugate_on_the_p3_basis_matrices(self, k):
        for m in _xi_basis_matrices(k):
            d = _laplace(m)
            assert d != 0
            assert determinant(m) == d
            assert adjugate(m) == (d, _laplace_adjugate(m))
