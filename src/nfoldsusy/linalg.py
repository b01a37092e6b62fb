"""Sparse exact linear solving over Q.

Rows are dicts column -> coefficient.  Elimination is fraction-free: each
row is scaled to integers, pivoting is deterministic (lowest column index,
first eligible row), and each update replaces a row by its primitive
integer combination with the pivot, so certificates are reproducible bit
for bit.

The rows still to be eliminated sit in a heap keyed by (leading column,
original row index).  Its top is the pivot the rule above picks: the lowest
column any row holds is the lowest leading column, and rows keep their
original relative order, so the first row holding that column is the one
with the smallest index among the rows that lead with it.  No other row
holds the pivot column, so each step pops the pivot and then only the rows
that lead with the same column, reduces them and pushes them back under
their new leading columns; the rest of the rows are never touched.

Cofactor scaling.  To clear the entry rv of row r under the pivot entry pv,
an update divides out g0 = gcd(pv, rv) first and forms
r·(pv/g0) − pivot·(rv/g0).  That is r·pv − pivot·rv divided by the
positive g0, so both have the same primitive part, sign included, and the
echelon is the one plain cross-multiplication gives; the multipliers are
smaller and the content left to divide out is usually 1.

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
    heap = []
    for index, row in enumerate(rows):
        row = _scale_to_int(row)
        if row:
            heap.append((min(row), index, row))
    heapq.heapify(heap)
    echelon: list[tuple[int, dict[int, int]]] = []
    while heap:
        pivot_col, _, pivot = heapq.heappop(heap)
        echelon.append((pivot_col, pivot))
        pv = pivot[pivot_col]
        while heap and heap[0][0] == pivot_col:
            _, index, r = heapq.heappop(heap)
            rv = r[pivot_col]
            g0 = gcd(pv, rv)
            scale = pv // g0
            if scale != 1:
                for col in r:
                    r[col] *= scale
            rv //= g0
            for col, v in pivot.items():
                val = r.get(col, 0) - v * rv
                if val:
                    r[col] = val
                else:
                    del r[col]
            if not r:
                continue
            g = gcd(*r.values())
            if g > 1:
                r = {c: v // g for c, v in r.items()}
            heapq.heappush(heap, (min(r), index, r))
    return echelon


def _back_substitute(
    echelon: list[tuple[int, dict[int, int]]], vec: list[Fraction]
) -> list[Fraction]:
    """Fill in the pivot entries of vec, whose other entries are fixed, so
    that every echelon row vanishes on it; returns vec."""
    for col, row in reversed(echelon):
        acc = Fraction(0)
        for c, v in row.items():
            if c != col:
                acc -= v * vec[c]
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
