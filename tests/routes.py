"""The second route for d o d: plain dict composition of built rows.

``cellular.chain_complex`` checks d o d = 0 in its one assembly pass,
by packed parity and one signed d o d on the face lattice.  This route
shares none of that: it expands every boundary row into a dict
{column: entry} (a packed GF(2) row read off its binary digits) and
composes each row with the rows one degree down, entry by entry.

Run it on a complex from the command line with ``tests`` on the path::

    PYTHONPATH=src:tests python -c "from routes import d_squared_holds; ..."
"""

from __future__ import annotations


def expanded(row: int) -> dict[int, int]:
    """A packed GF(2) row as the dict {column: 1}, read off its binary
    digits: column c is the c-th digit from the right."""
    digits = bin(row)[:1:-1]
    out = {}
    c = digits.find("1")
    while c >= 0:
        out[c] = 1
        c = digits.find("1", c + 1)
    return out


def dict_rows(cc) -> list[list[dict[int, int]]]:
    """The boundary rows as dicts, read not copied, the GF(2) ones
    expanded to {column: 1}."""
    if cc.ring == "GF2":
        return [[expanded(r) for r in m] for m in cc.boundaries]
    return [list(m) for m in cc.boundaries]


def d_squared_holds(cc) -> bool:
    """True iff every composition of two built boundaries vanishes: the
    sums over Z, reduced mod 2 over GF(2)."""
    mod = 2 if cc.ring == "GF2" else 0
    rows = dict_rows(cc)
    for d in range(max(2, cc.lowest_degree + 1), cc.dim + 1):
        for row in rows[d]:
            acc: dict[int, int] = {}
            for mid, c1 in row.items():
                for low, c0 in rows[d - 1][mid].items():
                    acc[low] = acc.get(low, 0) + c1 * c0
            if any(v % mod if mod else v for v in acc.values()):
                return False
    return True
