"""Sparse exact linear solving over Q.

Rows are dicts column -> coefficient.  Elimination is fraction-free: each
row is scaled to integers, pivoting is deterministic (lowest column index,
first eligible row), and every pivot row is primitive, so certificates are
reproducible bit for bit.

Rows are reduced one at a time, in input order, against the pivots found
so far (a dict column -> pivot row), and each nonzero result is installed
as the pivot of its leading column.  The echelon is the one a heap of all
the rows keyed by (leading column, row index) gives.  (1) Pivots come only
from lower-index rows: the pivot of column c is the lowest-index row that
comes to lead with c, so row i meets the same pivots either way.  (2) A
row's content is divided out once, at install, but every update divides
only by a positive g0 (below), so each intermediate row is a positive
multiple of the heap's primitive row, and the installed row is the same.
(3) The echelon is sorted by pivot column, the heap's pop order.  The
row's leading column is the top of a lazy heap of its columns: an update
pushes only the columns the pivot adds and pops lost ones as they surface,
so it costs the pivot's length, not the row's.

Cofactor scaling.  To clear the entry rv of row r under the pivot entry pv,
an update divides out g0 = gcd(pv, rv) first and forms
r·(pv/g0) − pivot·(rv/g0).  That is r·pv − pivot·rv divided by the
positive g0, so both have the same primitive part, sign included, and the
echelon is the one plain cross-multiplication gives, with smaller
multipliers.

Singleton pruning.  ``solve`` carries the right-hand side as an extra
column.  A row whose only nonzero entry is in a column c other than that
one forces x_c = 0.  No combination of the other columns reaches that row,
so c is a pivot column, and the row vanishes on every other column, so
dropping the row and column c leaves the linear relations among the other
columns as they were.  Hence the pivot columns other than c stay the same,
the right-hand side column is a pivot exactly when it was before, and the
one solution supported on the pivot columns (the solution with free
variables at zero) is unchanged, with x_c = 0.  Dropping a column can
leave another row with one entry, so ``solve`` repeats until none is left:
the first phase of structured Gaussian elimination (LaMacchia & Odlyzko,
CRYPTO '90).  A row whose one entry is in the right-hand side column stays,
as it is the infeasible case.  ``nullspace`` is not pruned, because its
basis is indexed by the free columns.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd


def _scale_to_int(row: dict[int, Fraction]) -> dict[int, int]:
    lcm = 1
    for q in row.values():
        d = q.denominator
        lcm = lcm // gcd(lcm, d) * d
    out = {c: q.numerator * (lcm // q.denominator) for c, q in row.items() if q}
    g = 0
    for v in out.values():
        g = gcd(g, abs(v))
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _eliminate(rows: list[dict[int, Fraction]]) -> list[tuple[int, dict[int, int]]]:
    """Forward elimination; returns echelon rows as (pivot_col, row)."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _scale_to_int(row)
        cols = list(r)  # a heap of r's columns, and of some it has lost
        heapq.heapify(cols)
        while r:
            col = cols[0]
            while col not in r:
                heapq.heappop(cols)
                col = cols[0]
            pivot = pivots.get(col)
            if pivot is None:
                g = gcd(*r.values())
                pivots[col] = {c: v // g for c, v in r.items()} if g > 1 else r
                break
            pv, rv = pivot[col], r[col]
            g0 = gcd(pv, rv)
            scale = pv // g0
            if scale != 1:
                for c in r:
                    r[c] *= scale
            rv //= g0
            for c, v in pivot.items():
                if c in r:
                    val = r[c] - v * rv
                    if val:
                        r[c] = val
                    else:
                        del r[c]
                else:
                    r[c] = -v * rv
                    heapq.heappush(cols, c)
    return sorted(pivots.items())


def _back_substitute(
    echelon: list[tuple[int, dict[int, int]]], vec: list[Fraction]
) -> list[Fraction]:
    """Fill in the pivot entries of vec, whose other entries are fixed, so
    that every echelon row vanishes on it; returns vec."""
    for col, row in reversed(echelon):
        acc = Fraction(0)
        for c, v in row.items():
            x = vec[c]
            if x and c != col:
                acc -= v * x
        vec[col] = acc / row[col]
    return vec


def _prune_singletons(aug: list[dict[int, Fraction]], rhs_col: int) -> list[dict[int, Fraction]]:
    """Drop, in place and until none is left, each row with one nonzero
    entry outside ``rhs_col`` together with that entry's column; returns
    the rows left nonempty."""
    rows_of: dict[int, list[int]] = {}
    for i, r in enumerate(aug):
        for c in r:
            rows_of.setdefault(c, []).append(i)
    stack = [i for i, r in enumerate(aug) if len(r) == 1 and rhs_col not in r]
    while stack:
        r = aug[stack.pop()]
        if not r:  # emptied since it was stacked: its column went with another row
            continue
        (c,) = r
        for i in rows_of.pop(c):
            s = aug[i]
            del s[c]
            if len(s) == 1 and rhs_col not in s:
                stack.append(i)
    return [r for r in aug if r]


def solve(
    rows: list[dict[int, Fraction]],
    rhs: list[Fraction],
    ncols: int,
) -> list[Fraction] | None:
    """One solution of A x = b with free variables set to zero, or None.

    The right-hand side is carried as an extra column, so infeasibility
    shows up as a pivot in that column; otherwise the solution is the
    null vector of [A | b] with that column fixed at -1.  Singleton rows
    are pruned first (see the module docstring).
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    aug = []
    for row, b in zip(rows, rhs):
        r = {c: v for c, v in row.items() if v}
        if b:
            r[ncols] = b
        aug.append(r)
    echelon = _eliminate(_prune_singletons(aug, ncols))
    if any(col == ncols for col, _ in echelon):
        return None
    vec = [Fraction(0)] * ncols + [Fraction(-1)]
    return _back_substitute(echelon, vec)[:ncols]


def nullspace(rows: list[dict[int, Fraction]], ncols: int) -> list[list[Fraction]]:
    """Deterministic basis of the solution space of A x = 0."""
    echelon = _eliminate(rows)
    pivots = {col for col, _ in echelon}
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            basis.append(_back_substitute(echelon, vec))
    return basis
