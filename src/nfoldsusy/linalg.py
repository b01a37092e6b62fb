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

Factor once, solve per right-hand side.  ``factor`` works on A alone and
``Factor.solve`` takes each b against it; ``solve`` is the two in a row.
What ``solve`` returns is the one solution of A x = b supported on A's
greedy pivot columns (those not in the span of the columns before them),
that is, with the free variables at zero.  That set depends on A alone, so
any method that finds a solution supported on it finds the same Fractions,
whatever b it was factored with or without.

- *Singleton pruning, on A alone.*  List the pruned rows i_1, i_2, ... and
  their columns c_1, c_2, ... in pruning order: row i_s has one nonzero
  entry a_s outside the columns pruned before it, in c_s.  In a relation
  among the columns, row i_1 forces the weight of c_1 to zero, then row
  i_2 that of c_2, and so on.  So every c_s is a greedy pivot column
  whatever b is, and a relation among the other columns is one among the
  rows left over, where the pruned rows vanish: a column left over is a
  greedy pivot column of A exactly when it is one of the rows left over.
  Dropping a row and its column can leave another row with one entry, so
  ``factor`` repeats until none is left: the first phase of structured
  Gaussian elimination (LaMacchia & Odlyzko, CRYPTO '90).  When b arrives,
  x_{c_s} = b_{i_s} / a_s in pruning order, each b_{i_s} as the earlier
  forced values left it: the entry a_kc·x_c leaves b_k of every row k that
  holds an entry in column c.  A row that pruning emptied is a zero row
  of A, so its entry of b must be zero by then.
- *The log.*  The rows left over are eliminated as above, and the row
  operations are kept: per row its integer scaling σ, each update (pivot
  column, scale, rv) and how the row ended, as the pivot of a column with
  its content divided out, or as zero.  ``Factor.solve`` replays them on
  the right-hand side alone, which is the rhs column the elimination of
  [A | b] would carry, and skips a row whose entry of b and whose pivots'
  right sides are all zero.  A row that A reduced to zero but whose right
  side ends nonzero makes b infeasible.  Otherwise back-substitution on
  the echelon, skipping rows that meet no nonzero entry, gives the
  solution with the free variables at zero.
- *Storage.*  A factor keeps only what ``solve`` reads: the pruning order
  with its entries, the entries each pruned column took from other rows,
  the log and the echelon, all in flat 32-bit machine arrays (in lists
  when an entry of A is no int or an integer outgrows them), and it does
  not copy the rows it is given.

``nullspace`` calls the same elimination with no log and no pruning,
because its basis is indexed by the free columns.
"""

from __future__ import annotations

import heapq
from array import array
from collections import defaultdict
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, MutableSequence, Sequence

_ZERO = Fraction(0)


def _scale_to_int(row: dict[int, Fraction]) -> dict[int, int]:
    lcm = 1
    for q in row.values():
        d = q.denominator
        lcm = lcm // gcd(lcm, d) * d
    out = {c: q.numerator * (lcm // q.denominator) for c, q in row.items() if q}
    g = gcd(*out.values())
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _eliminate(
    rows: Iterable[dict[int, Fraction]], log: tuple[MutableSequence[int], ...] | None = None
) -> list[tuple[int, dict[int, int]]]:
    """Forward elimination; returns echelon rows as (pivot_col, row).  With
    a log (ops, ends), records the row operations in it (``Factor``)."""
    pivots: dict[int, dict[int, int]] = {}
    if log is not None:
        ops, ends = log
        record, end_row = ops.extend, ends.extend
    for row in rows:
        r = _scale_to_int(row)
        if log is not None:
            c0 = next(iter(r), None)
            sigma = (1, 1) if c0 is None or r[c0] == row[c0] else (
                Fraction(r[c0]) / row[c0]).as_integer_ratio()
        cols = list(r)  # a heap of r's columns, and of some it has lost
        heapq.heapify(cols)
        end = -1, 1
        while r:
            col = cols[0]
            while col not in r:
                heapq.heappop(cols)
                col = cols[0]
            pivot = pivots.get(col)
            if pivot is None:
                g = gcd(*r.values())
                pivots[col] = {c: v // g for c, v in r.items()} if g > 1 else r
                end = col, g
                break
            pv, rv = pivot[col], r[col]
            g0 = gcd(pv, rv)
            scale = pv // g0
            if scale != 1:
                for c in r:
                    r[c] *= scale
            rv //= g0
            if log is not None:
                record((col, scale, rv))
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
        if log is not None:
            end_row((len(ops), *end, *sigma))
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


class Factor:
    """A factored coefficient matrix A: ``solve`` answers A x = b for any b
    (module docstring).  Reads as the sequence of its echelon rows, dicts
    column -> int, so it can stand where the rows of a system are measured.

    Everything is flat.  Pruning: ``_forced`` holds (row, column) per
    pruned row and ``_forced_at`` its entry; ``_taken`` the (row, entry)
    pairs each pruned column took from other rows, up to ``_taken_ends``;
    ``_emptied`` the rows pruning emptied.  The log: ``_order`` holds the
    rows eliminated, in order; ``_ops`` three integers per update (pivot
    column, scale, rv); ``_ends`` five per row (the end of its updates in
    ``_ops``, the column it ended as the pivot of or -1 for zero, that
    pivot's content, and the numerator and denominator of its integer
    scaling σ).  The echelon: ``_cols``/``_vals`` from ``_starts``, each
    row's pivot entry first."""

    __slots__ = ("nrows", "ncols", "_forced", "_forced_at", "_taken", "_taken_ends",
                 "_emptied", "_order", "_ops", "_ends", "_starts", "_cols", "_vals")

    def __init__(self, rows: Sequence[dict[int, Fraction]], ncols: int,
                 typecode: str | None):
        def new():
            return [] if typecode is None else array(typecode)

        self.nrows, self.ncols = len(rows), ncols
        self._forced, self._forced_at, self._taken, self._taken_ends = new(), new(), new(), new()
        self._emptied, self._order, self._ops, self._ends = new(), new(), new(), new()
        touched = self._prune(rows)
        forced = set(self._forced[1::2])
        echelon = _eliminate(
            (({c: v for c, v in rows[i].items() if c not in forced} if touched[i] else rows[i])
             for i in self._order),
            (self._ops, self._ends),
        )
        self._starts, self._cols, self._vals = new(), new(), new()
        for col, row in echelon:
            self._starts.append(len(self._cols))
            self._cols.append(col)
            self._vals.append(row.pop(col))
            self._cols.extend(row)
            self._vals.extend(row.values())
        self._starts.append(len(self._cols))

    def _prune(self, rows) -> bytearray:
        """Singleton pruning on A alone, leaving the rows as they are; fills
        in the pruning fields and returns, per row, 1 if it lost entries."""
        count = []
        rows_of: defaultdict[int, list[int]] = defaultdict(list)
        for i, r in enumerate(rows):
            cols = [c for c, v in r.items() if v] if 0 in r.values() else r
            count.append(len(cols))
            for c in cols:
                rows_of[c].append(i)
        pruned, touched = bytearray(len(rows)), bytearray(len(rows))
        stack = [i for i, k in enumerate(count) if k == 1]
        while stack:
            i = stack.pop()
            if count[i] != 1:  # emptied since it was stacked
                continue
            row = rows[i]
            c = next(c for c in row if row[c] and c in rows_of)
            for k in rows_of.pop(c):
                count[k] -= 1
                if k != i:
                    self._taken.extend((k, rows[k][c]))
                    touched[k] = 1
                    if count[k] == 1:
                        stack.append(k)
            self._forced.extend((i, c))
            self._forced_at.append(row[c])
            self._taken_ends.append(len(self._taken))
            pruned[i] = 1
        for i, k in enumerate(count):
            if k:
                self._order.append(i)
            elif not pruned[i]:
                self._emptied.append(i)
        return touched

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __iter__(self):
        starts, cols, vals = self._starts, self._cols, self._vals
        for t in range(len(self)):
            lo, hi = starts[t], starts[t + 1]
            yield dict(zip(cols[lo:hi], vals[lo:hi]))

    def solve(self, rhs: Mapping[int, Fraction] | Sequence[Fraction]) -> list[Fraction] | None:
        """The solution of A x = b with free variables at zero, or None; b
        is given densely or as {row index: entry}."""
        if not isinstance(rhs, Mapping):
            if len(rhs) != self.nrows:
                raise ValueError(f"{self.nrows} rows but {len(rhs)} right-hand sides")
            rhs = dict(enumerate(rhs))
        b = {i: Fraction(q) for i, q in rhs.items() if q}
        x: dict[int, Fraction] = {}
        # forced values, in pruning order
        forced, taken, start = self._forced, self._taken, 0
        for s, end in enumerate(self._taken_ends):
            v = b.pop(forced[2 * s], None)
            if v:
                c = forced[2 * s + 1]
                xc = x[c] = v / self._forced_at[s]
                for u in range(start, end, 2):
                    k = taken[u]
                    b[k] = b.get(k, _ZERO) - taken[u + 1] * xc
            start = end
        if any(b.get(i) for i in self._emptied):
            return None
        # the log, replayed on the right-hand side
        rho: dict[int, Fraction] = {}
        ops, start, steps = self._ops, 0, iter(self._ends)
        for i, end, col, g, num, den in zip(self._order, *[steps] * 5):
            r = b.get(i)
            if r or rho and not rho.keys().isdisjoint(ops[start:end:3]):
                r = r * num / den if r else _ZERO
                for u in range(start, end, 3):
                    if r:
                        r *= ops[u + 1]
                    p = rho.get(ops[u])
                    if p:
                        r -= p * ops[u + 2]
                if r:
                    if col < 0:
                        return None
                    rho[col] = r / g
            start = end
        # back-substitution, skipping rows that meet no nonzero entry
        starts, cols, vals = self._starts, self._cols, self._vals
        for t in range(len(self) - 1, -1, -1):
            lo, hi = starts[t], starts[t + 1]
            col = cols[lo]
            acc = rho.get(col, _ZERO)
            if not x.keys().isdisjoint(cols[lo + 1:hi]):
                for u in range(lo + 1, hi):
                    xc = x.get(cols[u])
                    if xc:
                        acc -= vals[u] * xc
            if acc:
                x[col] = acc / vals[lo]
        return [x.get(c, _ZERO) for c in range(self.ncols)]


def factor(rows: Sequence[dict[int, Fraction]], ncols: int) -> Factor:
    """Prune and eliminate A = rows once, for any number of right-hand
    sides.  The factor is kept in 32-bit machine arrays, or in lists when
    an entry of A is no int or an integer outgrows them."""
    try:
        return Factor(rows, ncols, "i")
    except (OverflowError, TypeError):
        return Factor(rows, ncols, None)


def solve(
    rows: Sequence[dict[int, Fraction]] | Factor,
    rhs: Mapping[int, Fraction] | Sequence[Fraction],
    ncols: int,
) -> list[Fraction] | None:
    """One solution of A x = b with free variables set to zero, or None.
    ``rows`` is A, with ``ncols`` columns, or its ``Factor``."""
    return (rows if isinstance(rows, Factor) else factor(rows, ncols)).solve(rhs)


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
