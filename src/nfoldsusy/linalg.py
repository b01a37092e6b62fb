"""Sparse exact linear solving over Q.

Rows are dicts column -> coefficient.  Elimination is fraction-free: each
row is scaled to integers, pivoting is deterministic (lowest column index,
first eligible row), and updates use integer cross-multiplication followed
by a gcd reduction, so certificates are reproducible bit for bit.

The rows still to be eliminated sit in a heap keyed by (leading column,
original row index).  Its top is the pivot the rule above picks: the lowest
column any row holds is the lowest leading column, and rows keep their
original relative order, so the first row holding that column is the one
with the smallest index among the rows that lead with it.  No other row
holds the pivot column, so each step pops the pivot and then only the rows
that lead with the same column, reduces them and pushes them back under
their new leading columns; the rest of the rows are never touched.
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
            for col in r:
                r[col] *= pv
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


def solve(
    rows: list[dict[int, Fraction]],
    rhs: list[Fraction],
    ncols: int,
) -> list[Fraction] | None:
    """One solution of A x = b with free variables set to zero, or None.

    The right-hand side is carried as an extra column, so infeasibility
    shows up as a pivot in that column; otherwise the solution is the
    null vector of [A | b] with that column fixed at -1.
    """
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[ncols] = b
        aug.append(r)
    echelon = _eliminate(aug)
    if any(col == ncols for col, _ in echelon):
        return None
    vec = [Fraction(0)] * ncols + [Fraction(-1)]
    return _back_substitute(echelon, vec)[:ncols]


def nullspace(rows: list[dict[int, Fraction]], ncols: int) -> list[list[Fraction]]:
    """Deterministic basis of the solution space of A x = 0."""
    echelon = _eliminate([dict(r) for r in rows])
    pivots = {col for col, _ in echelon}
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            basis.append(_back_substitute(echelon, vec))
    return basis
