"""Exactness of the sparse elimination against a straightforward reference."""

import heapq
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from nfoldsusy import DiffPoly, format_poly, ideal_membership, linalg, pipeline
from nfoldsusy.diffring import Family, Generator
from nfoldsusy.linalg import _eliminate, _reduce, _scale_to_int, factor, nullspace, solve


def _oracle_scale_to_int(row):
    lcm = 1
    for q in row.values():
        d = q.denominator
        lcm = lcm // gcd(lcm, d) * d
    out = {c: int(q * lcm) for c, q in row.items() if q}
    g = 0
    for v in out.values():
        g = gcd(g, abs(v))
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _oracle_eliminate(rows):
    """Reference elimination: rescans every remaining row at each pivot for
    the lowest column, takes the first row holding it, and reduces every
    row that holds it."""
    work = [_oracle_scale_to_int(r) for r in rows]
    work = [r for r in work if r]
    echelon = []
    while work:
        pivot_col = min(min(r) for r in work)
        idx = next(i for i, r in enumerate(work) if pivot_col in r)
        pivot = work.pop(idx)
        echelon.append((pivot_col, pivot))
        pv = pivot[pivot_col]
        reduced = []
        for r in work:
            rv = r.get(pivot_col)
            if rv:
                new = {}
                for col in r.keys() | pivot.keys():
                    val = r.get(col, 0) * pv - pivot.get(col, 0) * rv
                    if val:
                        new[col] = val
                g = 0
                for v in new.values():
                    g = gcd(g, abs(v))
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                if new:
                    reduced.append(new)
            else:
                reduced.append(r)
        work = reduced
    return echelon


def _canonical(echelon):
    return [(col, sorted(row.items())) for col, row in echelon]


def _lazy(scaled):
    """Scaled vectors (vector, den, content) as the columns ``factor``
    takes: (lead, builder, σ = den / content), the lead None for a zero
    vector."""
    return [(min(vector) if vector else None, lambda vector=vector: dict(vector),
             Fraction(den, content)) for vector, den, content in scaled]


def _read(echelon):
    """Pivots {lead: vector or unread builder} as a list (lead, vector)."""
    return [(lead, p() if callable(p) else p) for lead, p in echelon.items()]


def _echelon(vectors):
    """``_eliminate`` on the vectors scaled by ``_scale_to_int``, its log
    thrown away, each pivot read out."""
    nrows = 1 + max((i for v in vectors for i in v), default=0)
    return _read(_eliminate(_lazy([_scale_to_int(v) for v in vectors]), nrows)[0])


def _rebuilt(columns):
    """Columns (lead, builder, σ) as the vectors over Q they stand for,
    each entry v / σ."""
    return [{i: v / sigma for i, v in build().items()} for _, build, sigma in columns]


def _random_system(rng):
    """A sparse rational matrix with zero rows, explicit zero entries,
    duplicate and scaled rows, and combinations that cancel to zero."""
    ncols = rng.randint(1, 10)
    rows = []
    for _ in range(rng.randint(0, 12)):
        row = {}
        for c in range(ncols):
            if rng.random() < 0.3:
                row[c] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        rows.append(row)
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("zero", "explicit-zero", "duplicate", "scaled", "combination"))
        if kind == "zero":
            rows.append({})
        elif kind == "explicit-zero":
            rows.append({rng.randrange(ncols): Fraction(0)})
        elif rows and kind == "duplicate":
            rows.append(dict(rng.choice(rows)))
        elif rows and kind == "scaled":
            s = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
            rows.append({c: s * v for c, v in rng.choice(rows).items()})
        elif len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            s, t = Fraction(rng.randint(1, 4)), Fraction(-rng.randint(1, 4), 3)
            rows.append({c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()})
    rng.shuffle(rows)
    return rows, ncols


def _apply(rows, x):
    return [sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows]


def _random_rhs(rng, rows, ncols):
    """Either A x0 for a random x0, which is feasible, or random entries."""
    if rng.random() < 0.5:
        return _apply(rows, [Fraction(rng.randint(-3, 3)) for _ in range(ncols)])
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in rows]


def _columns(rows, ncols):
    """The columns of A = rows, as {row index: entry}, explicit zeros
    dropped, each scaled by ``_scale_to_int`` as ``factor`` takes it."""
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            if v:
                columns[c][i] = v
    return _lazy([_scale_to_int(column) for column in columns])


def _factor(rows, ncols):
    return factor(_columns(rows, ncols), len(rows))


@pytest.mark.parametrize("seed", range(10))
def test_echelon_matches_the_rescanning_oracle(seed):
    rng = random.Random(seed)
    for _ in range(30):
        rows, _ = _random_system(rng)
        assert _canonical(_echelon(rows)) == _canonical(_oracle_eliminate(rows))


def test_echelon_on_degenerate_inputs():
    half = Fraction(1, 2)
    cases = [
        [],
        [{}, {0: Fraction(0)}],
        [{1: half, 3: Fraction(2)}] * 3,
        [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)}, {1: half}],
        [{2: Fraction(3)}, {0: Fraction(1), 2: Fraction(1)}, {0: Fraction(-1), 2: Fraction(2)}],
    ]
    for rows in cases:
        assert _canonical(_echelon(rows)) == _canonical(_oracle_eliminate(rows))
    assert _echelon(cases[1]) == []
    assert [col for col, _ in _echelon(cases[2])] == [1]
    assert [col for col, _ in _echelon(cases[3])] == [0, 1]


def test_elimination_leaves_the_input_rows_alone():
    rows = [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(3)}]
    copies = [dict(r) for r in rows]
    _echelon(rows)
    assert rows == copies


def _oracle_solve(rows, rhs, ncols):
    """None when the unpruned oracle echelon of [A | b] pivots in the rhs
    column; otherwise back-substitution on that echelon with the free
    variables at zero."""
    aug = [{**r, ncols: b} if b else dict(r) for r, b in zip(rows, rhs)]
    echelon = _oracle_eliminate(aug)
    if any(col == ncols for col, _ in echelon):
        return None
    vec = [Fraction(0)] * ncols + [Fraction(-1)]
    for col, row in reversed(echelon):
        vec[col] = -sum((v * vec[c] for c, v in row.items() if c != col), Fraction(0)) / row[col]
    return vec[:ncols]


def test_solve_is_none_exactly_when_the_oracle_pivots_in_the_rhs_column():
    rng = random.Random(7)
    infeasible = feasible = 0
    for _ in range(400):
        rows, ncols = _random_system(rng)
        rhs = _random_rhs(rng, rows, ncols)
        x = solve(_factor(rows, ncols), dict(enumerate(rhs)), ncols)
        assert x == _oracle_solve(rows, rhs, ncols)
        if x is None:
            infeasible += 1
        else:
            feasible += 1
            assert _apply(rows, x) == rhs
    assert infeasible > 50 and feasible > 50


def _q(row):
    return {c: Fraction(v) for c, v in row.items()}


_HAND_MADE = [
    # a chain: each row shares one column with the next; x_3 is 5
    ([{2: 1, 3: 1}, {1: 1, 2: 3}, {0: 1, 1: 2}, {0: 4}], [5, 0, 0, 0], 4,
     [{2: 1, 3: 4}, {1: 1, 2: 2}, {0: 1, 1: 3}, {0: 1}]),
    # one column over two rows, and a rhs off it: infeasible
    ([{0: 2}, {0: 1}], [3, 0], 1, [{0: 2, 1: 1}]),
    # explicit zeros are dropped, and a row of them reaches no column; the
    # second column depends on the first
    ([{0: 1, 1: 1}, {0: 2, 1: 2}, {0: 0, 1: 0}], [4, 8, 0], 2,
     [{0: 1, 1: 2}, {0: 1, 1: 2}]),
    # an empty row, and the zero rhs
    ([{0: 1, 1: 1}, {1: 3}, {}], [0, 0, 0], 2, [{0: 1}, {0: 1, 1: 3}]),
    # full rank, with a row of three entries
    ([{0: 2}, {0: 1, 1: 1, 2: 1}, {1: 1, 2: 2}], [4, 5, 3], 3,
     [{0: 2, 1: 1}, {1: 1, 2: 1}, {1: 1, 2: 2}]),
    # two rows no pivot leads, whose rhs entries the pivots clear ...
    ([{0: 1}, {0: 3}, {1: 1, 2: 1}, {1: 2, 2: 2}], [2, 6, 1, 2], 3,
     [{0: 1, 1: 3}, {2: 1, 3: 2}, {2: 1, 3: 2}]),
    # ... or do not: infeasible
    ([{0: 1}, {0: 3}, {1: 1, 2: 1}, {1: 2, 2: 2}], [2, 7, 1, 2], 3,
     [{0: 1, 1: 3}, {2: 1, 3: 2}, {2: 1, 3: 2}]),
]


@pytest.mark.parametrize(
    "rows, rhs, ncols, columns",
    _HAND_MADE,
    # the ids these systems have had since they were built for singleton pruning
    ids=[f"rows{i}-rhs{i}-{case[2]}-pruned{i}" for i, case in enumerate(_HAND_MADE)],
)
def test_singleton_pruning_on_hand_made_systems(monkeypatch, rows, rhs, ncols, columns):
    """The vectors that reach elimination are A's columns, in column order,
    with explicit zeros dropped, and the answer is the oracle's on [A | b]."""
    rows = [_q(r) for r in rows]
    rhs = [Fraction(b) for b in rhs]
    seen = []

    def spy(vectors, nrows):
        vectors = list(vectors)
        seen.append(_rebuilt(vectors))
        return _eliminate(vectors, nrows)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    want = _oracle_solve(rows, rhs, ncols)
    assert solve(_factor(rows, ncols), dict(enumerate(rhs)), ncols) == want
    assert seen == [[_q(c) for c in columns]]


def _kinds(f):
    """The rows that lead a pivot of a factor, and those no pivot leads."""
    led = {min(vector) for vector in f}
    return led, set(range(f.nrows)) - led


def _integral(rows):
    """The rows times the lcm of all their denominators, as ints."""
    scale = lcm(*(v.denominator for r in rows for v in r.values()))
    return [{c: int(v * scale) for c, v in r.items()} for r in rows]


@pytest.mark.parametrize("ints", [False, True], ids=["fractions", "ints"])
@pytest.mark.parametrize("seed", range(5))
def test_one_factor_answers_many_right_hand_sides(seed, ints):
    """Each factor takes right-hand sides of every kind, given on every row
    or on the nonzero rows only, and each answer equals the oracle's on
    [A | b].  A right-hand side is perturbed on a row that leads a pivot
    or on one that no pivot leads."""
    rng = random.Random(3000 + seed)
    seen = dict.fromkeys(("feasible", "infeasible", "leading", "unled"), 0)
    for _ in range(60):
        rows, ncols = _random_system(rng)
        for i in rng.sample(range(len(rows)), min(len(rows), 2)):
            rows[i] = {rng.randrange(ncols): Fraction(rng.randint(1, 5))}  # one entry
        if ints:
            rows = _integral(rows)
        f = _factor(rows, ncols)
        leading, unled = _kinds(f)
        for _ in range(8):
            rhs = _random_rhs(rng, rows, ncols)
            kind = rng.choice(("leading", "unled", "as is"))
            targets = sorted(leading if kind == "leading" else unled)
            if kind != "as is" and targets:
                rhs[rng.choice(targets)] += Fraction(rng.randint(1, 3))
                seen[kind] += 1
            want = _oracle_solve(rows, rhs, ncols)
            seen["infeasible" if want is None else "feasible"] += 1
            got = f.solve(dict(enumerate(rhs)))
            assert got == want
            assert got is None or all(type(x) is Fraction for x in got)
            assert f.solve({i: b for i, b in enumerate(rhs) if b}) == want
    assert min(seen.values()) > 30, seen


class _Passes:
    """Columns that count the passes made over them."""

    def __init__(self, columns):
        self.columns, self.passes = columns, 0

    def __iter__(self):
        self.passes += 1
        return iter(self.columns)


@pytest.mark.parametrize(
    "rows",
    [
        # an entry of A is 2**31
        [{0: 2**31, 1: 1}, {0: 1, 1: 3, 2: 1}, {0: 5}, {1: 2, 2: 2}],
        # the entries fit, but eliminating the second column outgrows them
        [{0: 2**20 + 1, 1: 3}, {0: 3, 1: 2**20 + 7}, {0: 1, 1: 1}],
    ],
)
def test_a_factor_of_entries_past_32_bits_in_one_pass(monkeypatch, rows):
    """One pass over the columns and one elimination, and the solutions
    and the kernel are the oracle's."""
    eliminated = []

    def spy(vectors, nrows):
        eliminated.append(1)
        return _eliminate(vectors, nrows)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    columns = _Passes(_columns(rows, 3))
    f = factor(columns, len(rows))
    assert columns.passes == 1 and eliminated == [1]
    assert nullspace(f, 3) == _reference_nullspace(rows, 3)
    rng = random.Random(5)
    answers = set()
    for _ in range(20):
        rhs = _random_rhs(rng, rows, 3)
        want = _oracle_solve(rows, rhs, 3)
        answers.add(want is None)
        assert f.solve(dict(enumerate(rhs))) == want
    assert answers == {True, False}


def test_iterating_a_factor_hands_out_copies():
    """The vectors a factor reads as are copies: changing one changes no
    later answer of the factor."""
    rows = [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(3)}, {1: Fraction(1)}]
    rhs = [Fraction(3), Fraction(4), Fraction(1)]
    f = _factor(rows, 2)
    for vector in f:
        for i in vector:
            vector[i] += 7
        vector[len(rows)] = 1
    assert f.solve(dict(enumerate(rhs))) == _oracle_solve(rows, rhs, 2) == [1, 1]
    assert list(f) == [vector for _, vector in _read(_eliminate(_columns(rows, 2), len(rows))[0])]


def test_solve_rejects_a_rhs_row_outside_the_system():
    """A row index below 0 or at or past the row count is refused, not
    read as another row or as no row at all."""
    with pytest.raises(ValueError):
        solve(_factor([{0: Fraction(1), 1: Fraction(1)}], 2), {-1: Fraction(5)}, 2)
    identity = [{0: Fraction(1)}, {1: Fraction(1)}]
    for row in (2, -1):
        with pytest.raises(ValueError):
            solve(_factor(identity, 2), {row: Fraction(1)}, 2)


def test_indices_outside_a_are_refused():
    """A row outside 0..nrows-1 in a column handed to ``factor`` is refused
    with the index named, not installed as a lead, read as another row or
    left to an IndexError: a lead as its column comes, any other index as
    its vector is built, by the elimination, a solve or the iteration."""
    one = Fraction(1)
    for bad in (-1, 5):  # a bad lead
        with pytest.raises(ValueError, match=f"row {bad} "):
            factor(_lazy([_scale_to_int({bad: one})]), 2)
    with pytest.raises(ValueError, match="row 5 "):  # built: its lead is taken
        factor(_lazy([_scale_to_int({0: one}), _scale_to_int({0: one, 5: one})]), 2)
    with pytest.raises(ValueError, match="row -1 "):  # a builder below its lead
        factor([*_lazy([_scale_to_int({0: one})]), (0, lambda: {-1: 1, 0: 1}, one)], 2)
    f = factor(_lazy([_scale_to_int({0: one, 5: one})]), 2)  # installed unread
    with pytest.raises(ValueError, match="row 5 "):
        f.solve({0: one})
    with pytest.raises(ValueError, match="row 5 "):
        list(f)


def test_nullspace_vectors_satisfy_the_homogeneous_system():
    rng = random.Random(11)
    deficient = 0
    for _ in range(300):
        rows, ncols = _random_system(rng)
        basis = nullspace(_factor(rows, ncols), ncols)
        rank = len(_oracle_eliminate(rows))
        assert len(basis) == ncols - rank
        deficient += rank < min(len(rows), ncols)
        for vec in basis:
            assert all(v == 0 for v in _apply(rows, vec))
    assert deficient > 50


def _logs(f):
    """The log of a factor, one record (updates, lead, g, σ) per column,
    the lead None when dependent, each column's updates as a list."""
    return [(list(updates), *end) for updates, *end in f._log]


@pytest.mark.parametrize("seed", range(5))
def test_leaving_out_dependent_columns_keeps_the_echelon_logs_and_solutions(seed):
    """A dependent column installs no pivot, so a factor of the columns
    without any subset of the dependent ones has the same echelon, the same
    log for every column it keeps, and, wherever b is reachable, the
    solution of the full factor on the kept columns, which is zero on the
    dropped ones.  Both factors agree with the rescanning oracle."""
    rng = random.Random(4000 + seed)
    dropped_any = feasible = 0
    for _ in range(60):
        rows, ncols = _random_system(rng)
        columns = _columns(rows, ncols)
        full = factor(columns, len(rows))
        logs = _logs(full)
        dependent = [c for c, (_, lead, _, _) in enumerate(logs) if lead is None]
        drop = set(rng.sample(dependent, rng.randint(min(1, len(dependent)), len(dependent))))
        kept = [c for c in range(ncols) if c not in drop]
        part = factor([columns[c] for c in kept], len(rows))
        dropped_any += bool(drop)
        assert list(part) == list(full) == [vec for _, vec in _oracle_eliminate(_rebuilt(columns))]
        assert _logs(part) == [logs[c] for c in kept]
        part_rows = [{i: r[c] for i, c in enumerate(kept) if c in r} for r in rows]
        for _ in range(4):
            rhs = _random_rhs(rng, rows, ncols)
            x, y = full.solve(dict(enumerate(rhs))), part.solve(dict(enumerate(rhs)))
            assert x == _oracle_solve(rows, rhs, ncols)
            assert y == _oracle_solve(part_rows, rhs, len(kept))
            assert (x is None) == (y is None)
            if x is not None:
                feasible += 1
                assert y == [x[c] for c in kept] and not any(x[c] for c in drop)
    assert dropped_any > 25 and feasible > 100


def _counted(columns, calls):
    """The columns with each builder counting its calls in ``calls``."""
    def counting(j, build):
        def run():
            calls[j] += 1
            return build()
        return run
    return [(lead, counting(j, build), sigma) for j, (lead, build, sigma) in enumerate(columns)]


def _eager(columns, nrows):
    """The reference elimination for the laziness: every column built and
    reduced (``_reduce``), each nonzero result installed with its content
    divided out.  Returns the pivots by lead and the log, as ``_logs``."""
    pivots, log = {}, []
    for _, build, sigma in columns:
        r, updates, g = build(), [], 1
        col = _reduce(r, pivots, updates, nrows)
        if col is not None:
            g = gcd(*r.values())
            pivots[col] = {c: v // g for c, v in r.items()}
        log.append((updates, col, g, sigma))
    return dict(sorted(pivots.items())), log


@pytest.mark.parametrize("seed", range(5))
def test_lazy_columns_factor_as_the_eager_elimination(seed):
    """Columns handed unread give the log, the echelon, the solutions and
    the kernel of building and reducing every column, with dependent and
    zero columns among them.  Each builder runs at most once: in the
    elimination when its column is zero or its lead is taken, or when a
    reduction, there or in a solve, reaches its unread pivot; iterating
    builds an unread pivot without keeping it, and ``nullspace`` builds
    nothing."""
    rng = random.Random(5000 + seed)
    seen = dict.fromkeys(("zero", "taken", "reached", "solved", "unread"), 0)
    for _ in range(60):
        rows, ncols = _random_system(rng)
        columns = _columns(rows, ncols)
        pivots, log = _eager(columns, len(rows))
        calls = [0] * ncols
        f = factor(_counted(columns, calls), len(rows))
        assert _logs(f) == log
        cleared = {lead for updates, *_ in log for lead, _, _ in updates}
        held, want = set(), []
        for j, (lead, _, _) in enumerate(columns):
            if lead is None or lead in held:
                want.append(1)
                seen["zero" if lead is None else "taken"] += 1
            else:  # installed unread: built once a reduction reaches it
                want.append(int(lead in cleared))
                seen["reached"] += want[-1]
            held.add(log[j][1])
        assert calls == want
        seen["unread"] += want.count(0)
        for _ in range(4):
            rhs = _random_rhs(rng, rows, ncols)
            assert f.solve(dict(enumerate(rhs))) == _oracle_solve(rows, rhs, ncols)
            steps = []
            _reduce(_scale_to_int(dict(enumerate(rhs)))[0], pivots, steps, len(rows))
            reached = {lead for lead, _, _ in steps}
            seen["solved"] += sum(not w and columns[j][0] in reached for j, w in enumerate(want))
            want = [int(w or columns[j][0] in reached) for j, w in enumerate(want)]
            assert calls == want
        assert sum(map(callable, f._echelon.values())) == want.count(0)
        assert list(f) == list(pivots.values())
        assert sum(map(callable, f._echelon.values())) == want.count(0)
        calls[:] = [0] * ncols
        assert f.nullspace() == _reference_nullspace(rows, ncols) and not any(calls)
    assert min(seen.values()) > 40, seen


@pytest.mark.pin
def test_sixfold_probe_certificate_is_pinned():
    n = 6
    cs = pipeline(n, "eliminated", "paper")
    w0 = DiffPoly.generator(n, Generator(Family.W, 0, 0))
    top = DiffPoly.generator(n, Generator(Family.W, n - 1, 0))
    target = (cs.condition(0).derive(2) + cs.condition(n - 2) * w0) * top**2
    dec = ideal_membership(target, cs)
    assert dec is not None
    assert [(key, format_poly(p)) for key, p in dec.multipliers] == [
        ((0, 2), "w5^2"),
        ((4, 0), "w0*w5^2"),
    ]


class _Seen:
    """What one membership decision hands the linear algebra: the blocks
    of every column, kept or not, the labels and the system of the memo's
    entry, the columns ``factor`` gets with nrows and the vectors that
    reach elimination, both rebuilt over Q, and the rhs ``solve`` gets."""

    def __init__(self):
        self.blocks, self.labels, self.systems, self.factored, self.rhs, self.eliminated = (
            [], [], [], [], [], [])


def _decide_cold(monkeypatch, target, cs):
    from nfoldsusy import reduction

    seen = _Seen()
    real_system, real_columns = reduction._membership_system, reduction._multiplier_columns

    def columns_spy(*args):
        labels, blocks = real_columns(*args)
        seen.blocks.append(blocks)
        return labels, blocks

    def system_spy(*args):
        labels, system = real_system(*args)
        seen.labels.append(labels)
        seen.systems.append(system)
        return labels, system

    def factor_spy(columns, nrows):
        columns = list(columns)
        seen.factored.append((_rebuilt(columns), nrows))
        return factor(columns, nrows)

    def solve_spy(rows, rhs, ncols):
        seen.rhs.append(dict(rhs))
        return solve(rows, rhs, ncols)

    def eliminate_spy(vectors, nrows):
        vectors = list(vectors)
        seen.eliminated.append(_rebuilt(vectors))
        return _eliminate(vectors, nrows)

    monkeypatch.setattr(reduction, "_multiplier_columns", columns_spy)
    monkeypatch.setattr(reduction, "_membership_system", system_spy)
    monkeypatch.setattr(reduction, "factor", factor_spy)
    monkeypatch.setattr(reduction, "solve", solve_spy)
    monkeypatch.setattr(linalg, "_eliminate", eliminate_spy)
    real_system.cache_clear()
    return ideal_membership(target, cs), seen


def _full_columns(seen, cs):
    """Every column of the blocks of one cold decision on cs, over Q, the
    ones the Koszul criterion left out of ``factor`` too: s * D^m(I_j),
    for each shift s of the full block, packed against the system's rows.
    The columns ``factor`` got are checked to be the kept ones, in order."""
    [blocks], [(columns, _)], [labels], [system] = (
        seen.blocks, seen.factored, seen.labels, seen.systems)
    full, streamed = [], iter(columns)
    for (j, m), (_, _, shifts), kept in zip(labels, blocks, system.shifts, strict=True):
        kept = set(kept)
        for s in shifts:
            rhs = system.rhs(DiffPoly.monomial(cs.n, s) * cs.condition(j).derive(m))
            full.append({i: Fraction(q) for i, q in rhs.items()})
            if s in kept:
                assert next(streamed) == full[-1]
    assert next(streamed, None) is None
    return full


def _ranks(vectors):
    """Each index the vectors hold, ascending, to its rank: the row it was
    when the rows were numbered densely."""
    return {i: r for r, i in enumerate(sorted(set().union(*vectors)))}


@pytest.mark.pin
def test_sevenfold_probe_matrix_and_certificate_are_pinned(monkeypatch):
    """Digests recorded before the ring kept its monomials pre-keyed.  The
    certificate depends only on the column order (the pivot columns are
    the greedy lowest ones), so the matrix digest is what pins the row
    order, that is, the graded monomial sort.  The digest is of the
    system as one (rows, rhs, ncols) over Q; ``factor`` now gets the
    columns and ``solve`` the rhs as {row: entry}, so the test rebuilds
    the rows from the columns and spreads the rhs, every entry as a
    ``Fraction``, since the ring keeps whole numbers as ``int``s.  The
    columns the Koszul criterion leaves out never reach ``factor``, so the
    matrix is rebuilt from the full blocks (``_full_columns``).  A row index
    is top - key, with gaps where no monomial is a row, so the rows are the
    ranks of the indices the columns hold (``_ranks``)."""
    import hashlib
    import json

    target, cs = _probe(7)
    dec, seen = _decide_cold(monkeypatch, target, cs)
    assert dec is not None
    assert [(key, format_poly(p)) for key, p in dec.multipliers] == [
        ((0, 2), "w6^2"),
        ((5, 0), "w0*w6^2"),
    ]
    cert = json.dumps(dec.to_dict(), sort_keys=True)
    assert hashlib.sha256(cert.encode()).hexdigest() == (
        "21712b1fe9160414a3a608e7e3f0df74b0c1fa1e34b3d1a7696bab9d9720bce6"
    )
    [rhs] = seen.rhs
    columns = _full_columns(seen, cs)
    ncols = len(columns)
    rank = _ranks(columns)
    rows = [{} for _ in rank]
    for c, column in enumerate(columns):
        for i, v in column.items():
            rows[rank[i]][c] = Fraction(v)
    dense = [Fraction(rhs.get(i, 0)) for i in rank]
    matrix = repr(([sorted(r.items()) for r in rows], dense, ncols))
    assert hashlib.sha256(matrix.encode()).hexdigest() == (
        "427654cb0a07f99a39bbf4022454a6eef51f688f44d0c7e1d1c7ddb8edbf226e"
    )


@pytest.mark.parametrize(
    "n, counts",
    [
        (6, ((1330, 687, 50), (1330, 637, 637, 0, 9, 12338))),
        (7, ((2312, 1311, 124), (2312, 1187, 1187, 0, 9, 24672))),
    ],
)
def test_probe_factors_are_eliminated_by_columns(monkeypatch, n, counts):
    """The probe's system, pinned: rows, the columns of its blocks and
    those the Koszul criterion flags; and its factor: rows, columns,
    pivots, dependent columns, updates in the log and nonzeros of the
    echelon.  The rows are counted: the indices the echelon holds, which
    are every index a column holds.  A factor that eliminated the rows would pivot on as many rows
    as columns here and reduce every dependent row to zero.  Every
    dependent column is flagged and left out, so the factor has none and
    the updates are the installed columns' (they were 1720 and 5691 when
    the dependent columns were reduced too)."""
    dec, seen = _decide_cold(monkeypatch, *_probe(n))
    assert dec is not None
    [blocks], [system] = seen.blocks, seen.systems
    ncols = sum(len(shifts) for _, _, shifts in blocks)
    f = system.factor
    [(columns, _)] = seen.factored
    rows = len(_ranks(columns))
    assert (rows, ncols, ncols - f.ncols) == counts[0]
    updates = sum(len(updates) for updates, *_ in f._log)
    assert (len(_ranks(f)), f.ncols, len(f), f.ncols - len(f), updates,
            sum(map(len, f))) == counts[1]


def test_the_cold_sevenfold_probe_log_shares_its_sigmas_and_empty_updates(monkeypatch):
    """The log allocates nothing per column but its record: each column
    holds the σ object its block shares, one per block with kept columns,
    and every column with no update holds the one empty tuple."""
    dec, seen = _decide_cold(monkeypatch, *_probe(7))
    assert dec is not None
    [system] = seen.systems
    log = iter(system.factor._log)
    per_block = [{id(next(log)[3]) for _ in kept} for kept in system.shifts if kept]
    assert next(log, None) is None
    assert all(len(ids) == 1 for ids in per_block)
    assert len(set().union(*per_block)) == len(per_block)
    empty = [updates for updates, *_ in system.factor._log if not updates]
    assert len(empty) > 1000 and {id(updates) for updates in empty} == {id(())}


# -- row-at-a-time elimination against the all-rows heap reference -------------


def _heap_eliminate(rows):
    """Reference elimination: every row in one heap keyed by (leading
    column, row index), each row made primitive after every update."""
    heap = []
    for index, row in enumerate(rows):
        row, _, _ = _scale_to_int(row)
        if row:
            heap.append((min(row), index, row))
    heapq.heapify(heap)
    echelon = []
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


def _reference_back_substitute(echelon, vec):
    """Reference back-substitution: multiplies through every entry of vec."""
    for col, row in reversed(echelon):
        acc = Fraction(0)
        for c, v in row.items():
            if c != col:
                acc -= v * vec[c]
        vec[col] = acc / row[col]
    return vec


def _reference_nullspace(rows, ncols):
    echelon = _heap_eliminate(rows)
    pivots = {col for col, _ in echelon}
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            basis.append(_reference_back_substitute(echelon, vec))
    return basis


def _assert_same_fractions(got, want):
    assert got == want
    assert all(type(x) is Fraction for x in got)


@pytest.mark.parametrize("seed", range(10))
def test_echelon_equals_the_heap_reference_exactly(seed):
    """Same pivots in the same order, same integers, same nullspace."""
    rng = random.Random(1000 + seed)
    for _ in range(100):
        rows, ncols = _random_system(rng)
        if rng.random() < 0.2:  # a block of all-zero rows at a random place
            at = rng.randint(0, len(rows))
            rows[at:at] = [{}, {rng.randrange(ncols): Fraction(0)}]
        assert _echelon(rows) == _heap_eliminate(rows)
        basis = nullspace(_factor(rows, ncols), ncols)
        want = _reference_nullspace(rows, ncols)
        assert len(basis) == len(want)
        for got_vec, want_vec in zip(basis, want):
            _assert_same_fractions(got_vec, want_vec)


def _probe(n):
    cs = pipeline(n, "eliminated", "paper")
    w0 = DiffPoly.generator(n, Generator(Family.W, 0, 0))
    top = DiffPoly.generator(n, Generator(Family.W, n - 1, 0))
    return (cs.condition(0).derive(2) + cs.condition(n - 2) * w0) * top**2, cs


@pytest.mark.parametrize("n", [6, 7])
def test_probe_echelons_equal_the_heap_reference(monkeypatch, n):
    """On the columns ``factor`` is handed, which are what reaches
    elimination, in one pass, and the columns the Koszul criterion left
    out, rebuilt: the factor keeps their echelon."""
    target, cs = _probe(n)
    dec, seen = _decide_cold(monkeypatch, target, cs)
    assert dec is not None
    [(columns, _)] = seen.factored
    assert seen.eliminated == [columns]
    columns = _full_columns(seen, cs)
    echelon = _heap_eliminate(columns)
    assert _echelon(columns) == echelon
    kept = seen.systems[0].factor
    assert list(kept) == [vector for _, vector in echelon]


@pytest.mark.parametrize("seed", range(5))
def test_zero_skipping_back_substitution_equals_the_reference(seed):
    """The adjoint replay, which skips every pivot whose coefficient is zero,
    gives what the reference back-substitution gives on the heap echelon
    of [A | b]: with the vector of a solve (rhs column at -1, the rest
    zero), and with the unit vector of each free column of [A | b]."""
    rng = random.Random(2000 + seed)
    feasible = units = 0
    for _ in range(100):
        rows, ncols = _random_system(rng)
        rhs = _random_rhs(rng, rows, ncols)
        aug = [{**r, ncols: b} if b else dict(r) for r, b in zip(rows, rhs)]
        echelon = _heap_eliminate(aug)
        got = solve(_factor(rows, ncols), dict(enumerate(rhs)), ncols)
        if any(col == ncols for col, _ in echelon):
            assert got is None
        else:
            want = _reference_back_substitute(echelon, [Fraction(0)] * ncols + [Fraction(-1)])
            _assert_same_fractions(got, want[:ncols])
            feasible += 1
        basis = nullspace(_factor(aug, ncols + 1), ncols + 1)
        want_basis = _reference_nullspace(aug, ncols + 1)
        assert len(basis) == len(want_basis)
        for got_vec, want_vec in zip(basis, want_basis):
            _assert_same_fractions(got_vec, want_vec)
        units += len(basis)
    assert feasible > 30 and units > 100
