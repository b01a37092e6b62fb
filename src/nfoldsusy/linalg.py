"""Sparse exact linear solving over Q, by eliminating the columns of A.

Vectors are dicts row -> coefficient, a row any int, rows in int order (a
row no column holds is a zero row).  A column a is data, (lead, offsets,
σ): its lowest row, None when a is zero; its primitive integers σ·a as
(row − lead, int) pairs, lead entry first, none when a is zero; and the
``Fraction`` σ = den / content that ``_scale_to_int`` gives.  Columns with
the same entries at the same distances from their leads share one list and
one σ (``reduction``).  ``_eliminate`` is fraction-free: it reduces each
vector (``_reduce``), in input order, against the pivots found so far (a
dict lead -> offsets, the lead being a pivot's lowest row) and installs a
nonzero result, content divided out, as the pivot of its lead: the pivot
of lead c is the first vector to come to lead with c, and every update
divides only by a positive g0.  To clear the entry rv under the pivot
entry pv, an update forms r·(pv/g0) − pivot·(rv/g0) with g0 = gcd(pv, rv),
and finds the lead again from a lazy heap of the vector's rows, so it
costs the pivot's length.  Certificates are reproducible bit for bit.

Eliminating by columns.  ``factor`` runs ``_eliminate`` over the columns
a_0, a_1, ... of A, and ``_eliminate`` returns the pivots and the log of
every operation.  A column that reduces to zero lies in the span of the
columns before it: a dependent column.  Every other column is installed,
so the pivot columns are A's greedy pivot columns by definition, and the
row order decides only the fill.  ``Factor.solve`` returns the one solution of
A x = b supported on them (the free variables at zero) and
``Factor.nullspace`` the one kernel vector per dependent column f with
x_f = 1 and the other dependent columns at zero.  Both depend on A alone,
so any method that finds solutions of that shape finds the same Fractions.

- *The log.*  One record per column, (updates, lead, g, σ): per update
  (ℓ, s, rv), the lead ℓ of the pivot p_ℓ it cleared and the s and rv of
  r ← s·r − rv·p_ℓ; the lead ℓ the column was installed at, None for a
  dependent column; its content g; and its σ.  With updates k = 1..K and
  W = s_1⋯s_K, a column a_j installed as p_ℓ is

      g·p_ℓ = W·σ·a_j − Σ_k (s_{k+1}⋯s_K)·rv_k·p_{ℓ_k},

  and a dependent column the same with 0 on the left.
- *Install as handed.*  A column whose lead no pivot holds is installed as
  the very offsets list it was handed, with no update and content 1.
- *Forward reduction.*  ``Factor.solve`` takes b as {row: entry} and
  reduces it against the echelon with the same ``_reduce``, lowest row
  first, in integers over one denominator: when that row leads p_ℓ,
  y_ℓ = b_ℓ / p_ℓ[ℓ] and b −= y_ℓ·p_ℓ.  No pivot has an entry at a row
  before its lead, so when that row leads no pivot (a row no column holds
  among them), no combination of the pivots reaches b: infeasible, at
  once, with no zero row kept.
- *The adjoint replay.*  Then b = Σ y_ℓ·p_ℓ, and walking the log backwards
  turns that into x.  A pivot column with final coefficient z_ℓ (each
  pivot its log names was installed before it) takes x_j = z_ℓ·W·σ / g and
  hands −z_ℓ·(s_{k+1}⋯s_K)·rv_k / g to p_{ℓ_k}.  Zero coefficients are
  skipped, and the walk stops when none is left.
- *Nullspace.*  A dependent column's log writes a_f as
  Σ_k (s_{k+1}⋯s_K)·rv_k / (W·σ) · p_{ℓ_k}; the same replay turns minus
  that into x with A x = −a_f, and x + e_f is the basis vector of f.
- *Storage.*  The columns are iterated once, so they can stream from a
  generator (``reduction``).  A pivot installed as handed keeps the list
  its block's columns share, and a record the σ object they share.
  Nothing is written after ``_eliminate``: a factor is read-only.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Any, Iterable, Mapping, Sequence

_ZERO = Fraction(0)
Column = tuple[int | None, list[tuple[int, int]], Fraction]  # (lead, offsets, σ)
Update = tuple[int, int, int]  # (lead, scale, rv)


def _scale_to_int(row: Mapping[Any, Fraction | int]) -> tuple[dict[Any, int], int, int]:
    """The row times den / g, primitive integers, with den and g."""
    ratios = [q.as_integer_ratio() for q in row.values()]  # one call per Fraction
    den = lcm(*[d for _, d in ratios])
    out = {c: p * (den // d) for c, (p, d) in zip(row, ratios) if p}
    g = gcd(*out.values()) or 1
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out, den, g


def _reduce(r: dict[int, int], pivots: Mapping[int, list], updates: list[Update]) -> int | None:
    """Reduce the integer vector r in place against ``pivots`` ({lead:
    offsets}), lowest row first, appending (lead, scale, rv) to ``updates``
    for each update r ← scale·r − rv·p_lead; return the first row of r no
    pivot leads, or None once r is zero.  The pivots are only read."""
    heap = list(r)  # a heap of r's rows, and of some it has lost
    heapq.heapify(heap)
    while r:
        col = heap[0]
        while col not in r:
            heapq.heappop(heap)
            col = heap[0]
        pivot = pivots.get(col)
        if pivot is None:
            return col
        pv, rv = pivot[0][1], r[col]
        g0 = gcd(pv, rv)
        scale = pv // g0
        if scale != 1:
            for c in r:
                r[c] *= scale
        rv //= g0
        updates.append((col, scale, rv))
        for d, v in pivot:
            c = col + d
            if c in r:
                val = r[c] - v * rv
                if val:
                    r[c] = val
                else:
                    del r[c]
            else:
                r[c] = -v * rv
                heapq.heappush(heap, c)
    return None


def _eliminate(columns: Iterable[Column]) -> tuple[dict[int, list], list[tuple]]:
    """Forward elimination; returns the pivots, {lead: offsets} as installed,
    and the log, one record (updates, lead, g, σ) per column."""
    pivots: dict[int, list] = {}
    log = []
    for lead, offsets, sigma in columns:
        updates, g = [], 1
        if lead is None or lead in pivots:
            r = {lead + d: v for d, v in offsets}
            lead = _reduce(r, pivots, updates)
            if lead is not None:
                g = gcd(*r.values())
                pivots[lead] = sorted((c - lead, v // g) for c, v in r.items())  # lead first
        else:
            pivots[lead] = offsets  # no pivot holds its lead: installed as handed
        log.append((updates or (), lead, g, sigma))
    return pivots, log


def _unwind(updates: Sequence[Update], w: Fraction, z: dict[int, Fraction]) -> Fraction:
    """Walk a column's updates backwards with weight w on its end: hand
    −w·(the later scales)·rv to each pivot it cleared, in z, and return the
    weight w·W."""
    for lead, scale, rv in reversed(updates):
        z[lead] = z.get(lead, _ZERO) - w * rv
        if scale != 1:
            w *= scale
    return w


class Factor:
    """A matrix A factored by its columns: ``solve`` answers A x = b for any
    b and ``nullspace`` spans A x = 0 (module docstring).  Reads as its
    column-echelon vectors, new dicts row -> int, in installation order, so
    the traced ``solve`` and ``nullspace`` can size it (ROADMAP item 1).

    ``_log`` holds one record (updates, lead, g, σ) per column (module
    docstring), and ``_echelon`` the pivots {lead: offsets} as installed;
    neither is written after construction, so a factor is safe to share."""

    __slots__ = ("ncols", "_log", "_echelon")

    def __init__(self, columns: Iterable[Column]):
        self._echelon, self._log = _eliminate(columns)
        self.ncols = len(self._log)

    def __len__(self) -> int:
        return len(self._echelon)

    def __iter__(self):
        return ({lead + d: v for d, v in p} for lead, p in self._echelon.items())

    def solve(self, rhs: Mapping[int, Fraction]) -> list[Fraction] | None:
        """The solution of A x = b with free variables at zero, or None; b
        is given as {row: entry}."""
        # forward reduction, in integers: r = d·(b − Σ y_ℓ·p_ℓ)
        r, den, g = _scale_to_int(rhs)
        steps: list[Update] = []
        if _reduce(r, self._echelon, steps) is not None:
            return None
        d, y = Fraction(den, g), {}
        for lead, scale, rv in steps:
            if scale != 1:
                d *= scale
            y[lead] = rv / d
        x = self._replay(y, self.ncols)
        return [x.get(c, _ZERO) for c in range(self.ncols)]

    def nullspace(self) -> list[list[Fraction]]:
        """One basis vector of A x = 0 per dependent column f, with x_f = 1
        and every other dependent column at zero, in column order."""
        basis = []
        for f, (updates, lead, _, sigma) in enumerate(self._log):
            if lead is None:
                z: dict[int, Fraction] = {}
                _unwind(updates, 1 / (prod(scale for _, scale, _ in updates) * sigma), z)
                x = self._replay(z, f)
                x[f] = Fraction(1)
                basis.append([x.get(c, _ZERO) for c in range(self.ncols)])
        return basis

    def _replay(self, z: dict[int, Fraction], stop: int) -> dict[int, Fraction]:
        """The x on the pivot columns before ``stop`` with A x = Σ z[ℓ]·p_ℓ,
        by the adjoint replay of the log (module docstring); empties z."""
        log, x, j = self._log, {}, stop
        while z:
            j -= 1
            updates, lead, g, sigma = log[j]
            w = z.pop(lead, None)  # z holds no None: a dependent column takes nothing
            if w:
                x[j] = _unwind(updates, w / g, z) * sigma
        return x


def factor(columns: Iterable[Column]) -> Factor:
    """Eliminate A, given by its columns as data (lead, offsets, σ), in one
    pass, once for any number of right-hand sides."""
    return Factor(columns)


def solve(factor: Factor, rhs: Mapping[int, Fraction], ncols: int) -> list[Fraction] | None:
    """``factor.solve(rhs)``: a layer name ``perfbench/layers.py`` traces, by
    positional arguments, until it wraps ``linalg.factor`` (ROADMAP item 1)."""
    return factor.solve(rhs)


def nullspace(factor: Factor, ncols: int) -> list[list[Fraction]]:
    """``factor.nullspace()``: a traced layer name, as ``solve`` is."""
    return factor.nullspace()
