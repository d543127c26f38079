"""Exact integer and GF(2) linear algebra.

All arithmetic is done over arbitrary precision integers or bit packed
GF(2) rows.  No floating point appears anywhere in the package; every
result of this module is exact and deterministic, and all functions are
pure (safe to call concurrently).  The package's bit-mask helpers live
here: ``set_bits`` lists a mask's set bits, ``transpose_bits`` a bit
matrix's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional, Sequence

Matrix = tuple[tuple[int, ...], ...]


class DimensionMismatch(ValueError):
    """Vector or matrix dimensions are incompatible."""


def as_matrix(rows: Iterable[Iterable[int]]) -> Matrix:
    m = tuple(tuple(map(int, row)) for row in rows)
    if m:
        width = len(m[0])
        if any(len(r) != width for r in m):
            raise DimensionMismatch("ragged rows")
    return m


def identity_matrix(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return ()
    if len(a[0]) != len(b):
        raise DimensionMismatch(f"{len(a[0])} columns times {len(b)} rows")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, x: Sequence[int]) -> tuple[int, ...]:
    if a and len(a[0]) != len(x):
        raise DimensionMismatch("matrix/vector size")
    return tuple(sum(map(mul, row, x)) for row in a)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def determinant(m: Iterable[Iterable[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    A row whose multiplier f in the pivot column is 0 is skipped while
    the pivot p equals the previous one, prev: (p x - f y) / prev is then
    the identity.  Under a new pivot the row is still rescaled by p / prev,
    a division that is exact like every Bareiss step.
    """
    a = [list(map(int, row)) for row in m]
    k = len(a)
    if any(len(row) != k for row in a):
        raise DimensionMismatch("non-square matrix")
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
            f = a[i][t]
            if f == 0 and piv == prev:
                continue
            for j in range(t + 1, k):
                a[i][j] = (a[i][j] * piv - f * a[t][j]) // prev
            a[i][t] = 0
        prev = piv
    return sign * a[k - 1][k - 1]


def adjugate(m: Iterable[Iterable[int]]) -> tuple[int, Optional[Matrix]]:
    """(det M, adj M) by fraction-free Gauss-Jordan elimination, or
    (0, None) for a singular M, which has no full set of pivots.

    Bareiss's exact division, applied above and below each pivot of
    [M | I], ends at [d I | E] with d the last pivot and E = d M^-1;
    d = s det M for the sign s of the row swaps, so adj M = s E.  As in
    ``determinant``, a row with f = 0 is skipped while p = prev, where its
    update is the identity, and rescaled by p / prev under a new pivot.
    """
    rows = [list(map(int, row)) for row in m]
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise DimensionMismatch("non-square matrix")
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
                if f == 0 and p == prev:
                    continue
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[k:]) for row in a)


def det_sign(m: Iterable[Iterable[int]]) -> int:
    """Sign of the exact determinant: +1, 0 or -1."""
    d = determinant(m)
    return (d > 0) - (d < 0)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def permutation_sign(p: Sequence[int]) -> int:
    """Sign of a permutation given in one line notation on {0..m-1}.

    Raises ValueError if ``p`` is not a bijection.
    """
    m = len(p)
    seen = [False] * m
    for x in p:
        if not isinstance(x, int) or not 0 <= x < m or seen[x]:
            raise ValueError("not a bijection on 0..m-1")
        seen[x] = True
    sign = 1
    visited = [False] * m
    for start in range(m):
        if visited[start]:
            continue
        length = 0
        j = start
        while not visited[j]:
            visited[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D diagonal.

    The diagonal of ``d`` is nonnegative and each entry divides the next;
    ``rank`` is the number of nonzero diagonal entries.
    """

    d: Matrix
    u: Matrix
    v: Matrix
    rank: int

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(
            self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))
            if self.d[i][i] != 0
        )


def smith_normal_form(m: Iterable[Iterable[int]]) -> SmithDecomposition:
    """Full Smith decomposition of a nonempty integer matrix.

    Pivots are chosen with smallest nonzero absolute value, which keeps
    intermediate entries small on the dense matrices this package
    produces.
    """
    a = [list(map(int, row)) for row in m]
    if not a or not a[0]:
        raise DimensionMismatch("empty matrix")
    nr, nc = len(a), len(a[0])
    if any(len(row) != nc for row in a):
        raise DimensionMismatch("ragged rows")
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] += q * row[src]
        arow, srow = a[dst], a[src]
        for j in range(nc):
            arow[j] += q * srow[j]
        urow, usrc = u[dst], u[src]
        for j in range(nr):
            urow[j] += q * usrc[j]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # locate pivot: smallest nonzero absolute value in the submatrix
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (piv is None or abs(x) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])

        while True:
            # clear the pivot column
            restart = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        # remainder is strictly smaller: promote it
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility: pivot must divide every remaining entry
            done = True
            for i in range(t + 1, nr):
                row = a[i]
                for j in range(t + 1, nc):
                    if row[j] % a[t][t] != 0:
                        add_row(t, i, 1)
                        done = False
                        break
                if not done:
                    break
            if done:
                break
        if a[t][t] < 0:
            for j in range(nc):
                a[t][j] = -a[t][j]
            for j in range(nr):
                u[t][j] = -u[t][j]
        t += 1

    rank = sum(1 for i in range(limit) if a[i][i] != 0)
    return SmithDecomposition(
        d=as_matrix(a), u=as_matrix(u), v=as_matrix(v), rank=rank
    )


def invariant_factors(m: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors of dense integer rows, without transforms.

    The rows go through the same elimination as ``unit_pivot_elimination``
    with no rows skipped; they are built here, so the elimination works
    on them without a copy.
    """
    rows = ({j: int(x) for j, x in enumerate(row) if x} for row in m)
    return _eliminate_units([r for r in rows if r])[0]


def unit_pivot_elimination(
    matrix: Sequence[dict[int, int]], ncols: int, skip: Iterable[int] = ()
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Invariant factors of sparse integer rows, and the unit pivot columns.

    Row ``i`` of ``matrix`` maps column -> int and is not modified; rows
    whose index is in ``skip`` are left out, and so are zero entries.
    Each row is reduced against the unit pivots found so far (see
    ``_eliminate_units``); the rows left with no +-1 entry form a core
    that the dense Smith normal form finishes.  Suitable for the large
    sparse boundary matrices of chain complexes.

    The second result holds the columns of the unit pivots.  Their
    pivot block, taken over the combinations of rows the elimination
    formed, is unit triangular, hence unimodular.
    """
    skipped = frozenset(skip)
    rows = []
    for i, row in enumerate(matrix):
        if i not in skipped:
            r = dict(row)
            if 0 in r.values():
                r = {j: x for j, x in row.items() if x}
            if r:
                rows.append(r)
    if rows and (
        min(map(min, rows)) < 0 or max(map(max, rows)) >= ncols
    ):
        raise DimensionMismatch(f"a column lies outside 0..{ncols - 1}")
    return _eliminate_units(rows)


def _eliminate_units(
    rows: list[dict[int, int]]
) -> tuple[tuple[int, ...], frozenset[int]]:
    """The elimination behind both routines above; consumes ``rows``.

    The integer form of ``gf2_basis``: unit pivots keyed by column.  The
    rows are taken in order, and each is reduced until it has no entry
    at a key: its entry x at key c takes away x * u times the pivot row
    of c, u being that pivot's +-1.  Then a row left empty is dropped, a
    row with a +-1 entry becomes the pivot of the column of its first
    such entry, and any other row joins the core.  A core row that
    meets a key opened after it was reduced is reduced again, until no
    core row meets a key.  A pivot row is kept without its pivot entry.

    The pivot is the first +-1 entry in insertion order: on the n = 8
    p1 cover's Z sweep that makes 20,420 pivot-row entry updates, the
    least or greatest such column about 1.7 times as many and the last
    one over 260 million, so row builders keep their entries' order.

    Each pivot row is zero at every key opened before it, so the pivot
    block, in opening order, is triangular with +-1 on the diagonal:
    unimodular.  It also fixes the reduced row, whatever the order of
    the subtractions.  The core is zero on every key, so it is the Schur
    complement, and its dense Smith normal form gives the other factors.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    core: list[dict[int, int]] = []
    while rows:
        for r in rows:
            while hits := r.keys() & pivots.keys():
                for c in hits:
                    x = r.pop(c, 0)
                    if x:
                        unit, prow = pivots[c]
                        f = x * unit
                        for j, y in prow.items():
                            new = r.get(j, 0) - f * y
                            if new:
                                r[j] = new
                            else:
                                del r[j]
            for c, x in r.items():
                if x == 1 or x == -1:
                    del r[c]
                    pivots[c] = (x, r)
                    break
            else:
                if r:
                    core.append(r)
        rows = [r for r in core if not pivots.keys().isdisjoint(r)]
        if rows:
            core = [r for r in core if pivots.keys().isdisjoint(r)]

    factors = [1] * len(pivots)
    if core:
        # dense finish on the (small) nonunit core
        live_cols = sorted({j for r in core for j in r})
        index = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in core]
        for k, r in enumerate(core):
            for j, x in r.items():
                dense[k][index[j]] = x
        factors.extend(smith_normal_form(dense).invariant_factors)
    return tuple(factors), frozenset(pivots)


def integer_rank(m: Iterable[Iterable[int]]) -> int:
    return len(invariant_factors(m))


def unit_coordinate(v: Sequence[int]) -> Optional[int]:
    """The coordinate c with v = +-e_c, or None when v is no unit vector."""
    if v.count(0) == len(v) - 1 and (1 in v or -1 in v):
        return v.index(1) if 1 in v else v.index(-1)
    return None


def is_direct_summand(vectors: Sequence[Sequence[int]], ambient_rank: int, units: int = 0) -> bool:
    """True iff the vectors, with e_c for each set bit c of ``units``,
    span a direct summand of Z^ambient_rank of rank equal to their number
    (all invariant factors 1).

    A unit vector +-e_c is split off together with coordinate c first:
    Z^r / <e_c : c in C> is Z^(r-|C|) on the other coordinates, so the
    span of m vectors is a summand of rank m iff the image of the rest,
    the core, is a summand of rank m - |C| there.  Two units on one
    coordinate leave the rank short.  The Smith normal form decides
    the core with the coordinates C deleted.
    """
    for v in vectors:
        if len(v) != ambient_rank:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient rank {ambient_rank}"
            )
    if len(vectors) + units.bit_count() > ambient_rank:
        return False
    core = []
    for v in vectors:
        c = unit_coordinate(v)
        if c is None:
            core.append(v)
        elif units >> c & 1:
            return False
        else:
            units |= 1 << c
    if not core:
        return True
    kept = [j for j in range(ambient_rank) if not units >> j & 1]
    fs = invariant_factors([[v[j] for j in kept] for v in core])
    return len(fs) == len(core) and all(f == 1 for f in fs)


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------

def gf2_pack(vec: Sequence[int]) -> int:
    """``vec`` reduced mod 2, bit packed (bit j = entry j)."""
    bits = 0
    for x in reversed(vec):
        bits = bits << 1 | int(x) & 1
    return bits


def set_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def transpose_bits(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The columns of a bit matrix: bit i of entry j is bit j of ``rows[i]``.

    The rows' binary digit strings, last row first, are transposed by
    ``zip``, so column j reads as an integer with row 0 lowest.
    """
    if not rows:
        return (0,) * width
    top = 1 << width
    digits = [bin(r | top)[3:] for r in reversed(rows)]
    return tuple(int("".join(col), 2) for col in zip(*digits))[::-1]


def gf2_basis(rows: Iterable[int], basis: Optional[dict[int, int]] = None) -> dict[int, int]:
    """XOR basis of the span of bit packed GF(2) rows, keyed by lowest set bit.

    Each row is reduced by the basis vectors whose key is its lowest set
    bit until it vanishes or opens a new key.  The keys are the pivot
    columns: the basis vector of key c is zero below bit c, so the block
    on the pivot columns is unit triangular.  ``len`` is the rank.

    Every GF(2) elimination of the package is this one.  A tag bit above
    the row width on each row records which rows a basis vector sums: a
    row that depends on the rows before it opens a key on its tags.

    A given ``basis`` is extended in place by the rows.
    """
    if basis is None:
        basis = {}
    for v in rows:
        while v:
            low = (v & -v).bit_length() - 1
            b = basis.get(low)
            if b is None:
                basis[low] = v
                break
            v ^= b
    return basis


def _gf2_tagged_basis(vectors: Sequence[int], width: int) -> dict[int, int]:
    """``gf2_basis`` of vectors of ``width`` bits, vector j tagged with
    bit width + j.  The keys below ``width`` are the vectors independent
    of the vectors before them, the pivots Gauss-Jordan picks."""
    return gf2_basis(v | (1 << (width + j)) for j, v in enumerate(vectors))


def _gf2_combination(basis: dict[int, int], b: int, width: int) -> Optional[int]:
    """The pivot vectors of a tagged basis that sum to b, bit packed by
    tag, or None if b is not in their span: b is reduced on the keys
    below ``width`` and the tag bits left over name the vectors."""
    v = b
    while v & ((1 << width) - 1):
        p = basis.get((v & -v).bit_length() - 1)
        if p is None:
            return None
        v ^= p
    return v >> width


class Gf2Matrix:
    """Dense GF(2) matrix with bit packed rows (bit j = column j)."""

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int, rows: Iterable[int]):
        self.ncols = ncols
        mask = (1 << ncols) - 1
        self.rows = [int(r) & mask for r in rows]

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[int]]) -> "Gf2Matrix":
        vecs = [tuple(v) for v in vectors]
        if not vecs:
            raise DimensionMismatch("cannot infer width of empty matrix")
        ncols = len(vecs[0])
        if any(len(v) != ncols for v in vecs):
            raise DimensionMismatch("ragged GF(2) rows")
        return cls(ncols, map(gf2_pack, vecs))

    def row_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple((r >> j) & 1 for j in range(self.ncols)) for r in self.rows
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        return len(gf2_basis(self.rows))

    def solve(self, b: Sequence[int]) -> Optional[tuple[int, ...]]:
        """One solution x of A x = b over GF(2), or None.

        Free variables are set to zero; the returned solution is
        re-checked by multiplication before being returned.
        """
        if len(b) != self.nrows:
            raise DimensionMismatch("rhs length != number of rows")
        # x names the columns that sum to b, zero off the pivot columns
        columns = _gf2_tagged_basis(transpose_bits(self.rows, self.ncols), self.nrows)
        xbits = _gf2_combination(columns, gf2_pack(b), self.nrows)
        if xbits is None:
            return None
        for r, bv in zip(self.rows, b):
            if bin(r & xbits).count("1") % 2 != int(bv) % 2:
                raise AssertionError("GF(2) solver produced a bad solution")
        return tuple((xbits >> j) & 1 for j in range(self.ncols))

    def inverse(self) -> Optional["Gf2Matrix"]:
        """A^-1, or None when A is singular.

        Row i of A^-1 names the rows of A that sum to e_i, solved for
        every i on one tagged basis of the rows (the columns of A^T).
        """
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.ncols
        rows = _gf2_tagged_basis(self.rows, n)
        inv = [_gf2_combination(rows, 1 << i, n) for i in range(n)]
        if None in inv:
            return None
        return Gf2Matrix(n, inv)

    def mul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("GF(2) product size mismatch")
        out = []
        for r in self.rows:
            acc = 0
            for j in set_bits(r):
                acc ^= other.rows[j]
            out.append(acc)
        return Gf2Matrix(other.ncols, out)

    def matvec(self, x: Sequence[int]) -> tuple[int, ...]:
        xbits = gf2_pack(x)
        return tuple(bin(r & xbits).count("1") % 2 for r in self.rows)


def solve_gf2(a: Iterable[Sequence[int]], b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Solve A x = b over GF(2); returns a solution tuple or None."""
    return Gf2Matrix.from_vectors(a).solve(b)


def gf2_rank(vectors: Iterable[Sequence[int]]) -> int:
    return Gf2Matrix.from_vectors(vectors).rank()
