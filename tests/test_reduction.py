import random
from fractions import Fraction

import pytest

from nfoldsusy import (
    AmbientMismatchError,
    DiffOperator,
    DiffPoly,
    Monomial,
    SearchExhausted,
    antiderivative,
    ideal_membership,
    monomial_basis,
    op_equivalent,
    parse,
    pipeline,
    reduction,
    search_integral,
    transformed_conditions,
)
from nfoldsusy.diffring import monomial_sort_key, u, w
from nfoldsusy.goldens import search_relations
from nfoldsusy.linalg import _scale_to_int, factor
from nfoldsusy.reduction import reduce_by_relations
from nfoldsusy.suites import run_search


def monos(basis):
    return {repr(m) for m in basis}


def test_monomial_basis_weight_one():
    basis = monomial_basis(2, 1, [w(1)])
    assert monos(basis) == {"w1"}


def test_monomial_basis_threefold_weight_two():
    basis = monomial_basis(3, 2, [w(2), u(1)])
    assert {"w2'", "w2^2", "u1"} <= monos(basis)
    assert len(basis) == 3


def test_monomial_basis_fourfold_weight_three():
    basis = monomial_basis(4, 3, [w(3), u(2), u(1)])
    assert {"w3''", "u2'", "u1", "w3*w3'", "w3*u2", "w3^3"} <= monos(basis)


def test_monomial_basis_rejects_weight_zero_generators():
    from nfoldsusy.diffring import alpha

    with pytest.raises(ValueError):
        monomial_basis(2, 2, [alpha(0)])


def test_monomial_basis_deterministic_order():
    a = monomial_basis(4, 3, [w(3), u(2), u(1)])
    b = monomial_basis(4, 3, [u(1), u(2), w(3)])
    assert a == b


def _reference_basis(n, weight, base_gens, cap):
    """The basis enumerator that recursed once per generator and exponent,
    0 included, before the enumeration was pruned."""
    from nfoldsusy.diffring import Generator

    concrete = []
    for base in base_gens:
        if base.is_constant():
            wt = base.weight(n)
            if wt <= 0:
                raise ValueError(f"generator {base} has nonpositive weight")
            if wt <= weight:
                concrete.append((base, wt))
            continue
        for m in range(cap + 1):
            g = Generator(base.family, base.index, m)
            wt = g.weight(n)
            if wt <= 0:
                raise ValueError(f"generator {g} has nonpositive weight")
            if wt > weight:
                break
            concrete.append((g, wt))
    out = []

    def extend(idx, remaining, picked):
        if remaining == 0:
            out.append(Monomial(picked))
            return
        if idx == len(concrete):
            return
        g, wt = concrete[idx]
        for e in range(remaining // wt, -1, -1):
            if e:
                extend(idx + 1, remaining - e * wt, picked + [(g, e)])
            else:
                extend(idx + 1, remaining, picked)

    extend(0, weight, [])
    out.sort(key=monomial_sort_key(n))
    return out


@pytest.mark.pin
def test_pruned_basis_equals_the_recursive_reference():
    """Exponents, weight parts and order of every monomial, for generator
    sets with and without a generator of weight one: with none, the C
    constants (even weights) meet remainders no later generator can make."""
    from nfoldsusy.diffring import alpha, c

    def fields(basis):
        return [(m.exps, m._wn, m._w0) for m in basis]

    for n in range(2, 9):
        for gens in ({w(n - 1), w(0), c(0), c(1)}, {w(n - 2), u(max(n - 3, 1)), c(0), c(1)}):
            gens = tuple(sorted(gens))
            for cap in (0, 3, 12):
                for weight in range(n + 9):
                    got = reduction._basis.__wrapped__(n, weight, gens, cap)
                    assert fields(got) == fields(_reference_basis(n, weight, gens, cap))
        for gens in ((w(n),), (w(n - 1), alpha(0)), (w(n + 1), c(0))):
            for basis in (reduction._basis.__wrapped__, _reference_basis):
                with pytest.raises(ValueError, match="nonpositive weight"):
                    basis(n, 3, gens, 3)


def test_antiderivative_left_inverse():
    p = parse("w1^2*u0 + 1/2*w1*w1'' - 1/4*w1'^2", 2)
    dec = antiderivative(p.derive())
    assert dec is not None and dec.antiderivative == p


def test_antiderivative_of_sixteen_j1_integrand():
    cs = transformed_conditions(2, "paper")
    w1 = DiffPoly.generator(2, w(1))
    dec = antiderivative(w1 * cs.condition(0) * -8)
    assert dec is not None
    assert dec.antiderivative == parse("2*w1*w1'' - w1'^2 + 4*w1^2*u0", 2)


def test_antiderivative_factors_once(monkeypatch):
    from nfoldsusy import linalg

    real, built = linalg.Factor.__init__, []

    def spy(self, columns):
        built.append(self)
        real(self, columns)

    monkeypatch.setattr(linalg.Factor, "__init__", spy)
    p = parse("w1^2*u0 + 1/2*w1*w1'' - 1/4*w1'^2", 2)
    assert antiderivative(p.derive()).antiderivative == p
    assert len(built) == 1


def test_not_a_total_derivative():
    cs = transformed_conditions(2, "paper")
    assert antiderivative(cs.condition(0)) is None
    # a bare generator with no derivative below it
    assert antiderivative(parse("w1", 2)) is None


def test_antiderivative_of_zero_and_of_a_weight_zero_constant():
    """Zero integrates to zero; a nonzero constant has weight 0, one below
    which no basis reaches, so it gets None."""
    dec = antiderivative(DiffPoly.zero(2))
    assert dec is not None and dec.antiderivative.is_zero()
    assert antiderivative(DiffPoly.constant(2, 3)) is None


def test_ideal_membership_trivial_and_weight_obstruction():
    cs = transformed_conditions(2, "paper")
    zero = DiffPoly.zero(2)
    dec = ideal_membership(zero, cs)
    assert dec is not None and not dec.multipliers
    # weight 1 target cannot reach the weight-4 constraint
    assert ideal_membership(parse("w1", 2), cs) is None


def test_ideal_membership_f4_example():
    from nfoldsusy.susy import build_system, derive_conditions, eliminate_potentials

    cs = eliminate_potentials(derive_conditions(build_system(4)))
    target = cs.condition(2) * -4
    dec = ideal_membership(target, cs)
    assert dec is not None
    assert dict(dec.multipliers) == {(2, 0): parse("-4", 4)}


def test_certificates_re_expand():
    cs = transformed_conditions(3, "paper")
    target = (
        parse("u0", 3) * cs.condition(1)
        + parse("2*w2", 3) * cs.condition(0).derive()
    )
    dec = ideal_membership(target, cs)
    assert dec is not None
    assert dec.expansion() == target


def test_op_equivalent_reflexive_and_residue():
    cs = transformed_conditions(2, "paper")
    a = DiffOperator(2, {1: parse("w1", 2)})
    verdict = op_equivalent(a, a, cs)
    assert verdict.equivalent and not verdict.certificates
    b = a + DiffOperator.multiplication(cs.condition(0) * 2)
    verdict = op_equivalent(a, b, cs)
    assert verdict.equivalent
    assert verdict.certificates[0] is not None
    c_op = a + DiffOperator.multiplication(parse("w1^2*u0", 2))
    assert not op_equivalent(a, c_op, cs)


def test_reduce_by_relations():
    rel = parse("u0 - 2*C1", 4)
    p = parse("w3'*u0 + u0^2", 4)
    nf, quotients = reduce_by_relations(p, [rel])
    assert nf == parse("2*C1*w3' + 4*C1^2", 4)
    assert p == nf + quotients[0] * rel


def test_search_integral_twofold():
    found = run_search(2, 1)
    assert found.j_poly == parse("w1^2*u0 + 1/2*w1*w1'' - 1/4*w1'^2", 2)
    op = found.multipliers[0]
    assert set(op.coeffs) == {0}
    ratio = op.coefficient(0).coefficient(parse("w1", 2).leading_monomial())
    assert op.coefficient(0) == parse("w1", 2) * ratio


def test_search_integral_threefold_second():
    found = run_search(3, 2)
    assert found.j_poly * 1 == parse("u0^2 - u1'^2 - 8*u1^3 - 8*C1*u1", 3)
    # derives through the recorded relation multiplier
    cs = transformed_conditions(3, "paper")
    assert found.residual(cs).is_zero()


def test_search_exhausted():
    cs = transformed_conditions(2, "paper")
    # k = 0 asks for weight 3, below the single weight-4 condition, so no
    # multiplier has a weight to take
    with pytest.raises(SearchExhausted, match="no multiplier candidates") as exc:
        search_integral(cs, 0)
    assert exc.value.bounds["candidates"] == 0


def test_the_search_bound_from_the_environment_also_caps_the_antiderivatives(monkeypatch):
    from nfoldsusy import pipeline

    cs = pipeline(2, "transformed", "paper")
    relations = search_relations(2, 1)
    # J_1 needs w1'' in its antiderivative basis, which a bound of 1 excludes
    with pytest.raises(SearchExhausted):
        search_integral(cs, 1, relations=relations, max_deriv=1)
    monkeypatch.setenv("NFOLDSUSY_DERIV_BOUND", "1")
    with pytest.raises(SearchExhausted) as exc:
        search_integral(cs, 1, relations=relations)
    assert exc.value.bounds["max_deriv"] == 1


def test_first_order_policy_also_finds_twofold_integral():
    cs = transformed_conditions(2, "paper")
    found = search_integral(cs, 1, policy="first-order",
                            relations=search_relations(2, 1))
    assert found.j_poly.weight() == 4


def test_antiderivative_integrates_each_parameter_part():
    # parameters are constants of the derivation: alpha0*w2^6*w2' is
    # D(alpha0*w2^7/7)
    p = parse("u1*w2'*C1 + alpha0*w2^6*w2'", 3)
    dec = antiderivative(p.derive())
    assert dec is not None and dec.antiderivative.derive() == p.derive()
    assert antiderivative(parse("alpha0*w2^6*w2'", 3)).antiderivative == parse(
        "1/7*alpha0*w2^7", 3
    )
    two = parse("beta1*w1' + alpha0*w1'", 2)
    assert antiderivative(two).antiderivative == parse("beta1*w1 + alpha0*w1", 2)
    # the beta1 part integrates and the alpha0 part does not
    assert antiderivative(parse("alpha0*w1^2 + beta1*w1'", 2)) is None


def test_inhomogeneous_inputs_raise():
    from nfoldsusy.diffring import InhomogeneousError

    mixed = parse("w1 + w1^2", 2)
    with pytest.raises(InhomogeneousError):
        antiderivative(mixed)
    cs = transformed_conditions(2, "paper")
    with pytest.raises(InhomogeneousError):
        ideal_membership(mixed, cs)


def test_membership_shifts_stop_at_the_derivative_cap(monkeypatch):
    from nfoldsusy import pipeline

    cs = pipeline(3, "eliminated")
    target = (cs.condition(0).derive(2) + cs.condition(1) * parse("w0", 3)) * parse(
        "w2^2", 3
    )
    # The weight alone would derive the conditions up to 9 times, past
    # these caps; the verdict is bounded instead of an error.
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "6")
    dec = ideal_membership(target, cs)
    assert dec is not None
    assert max(m for (_, m), _ in dec.multipliers) <= 6 - 4
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "5")
    assert ideal_membership(target, cs) is None


def test_a_zero_condition_adds_no_column():
    """A zero condition is skipped, so the certificate is the one the
    other conditions give."""
    cs = pipeline(3, "eliminated")
    target = (cs.condition(0).derive(2) + cs.condition(1) * parse("w0", 3)) * parse(
        "w2^2", 3
    )
    plain = ideal_membership(target, cs)
    with_zero = ideal_membership(target, [(9, DiffPoly.zero(3)), *cs.items()])
    assert plain is not None and with_zero is not None
    assert with_zero.to_dict() == plain.to_dict()


# -- the packed system builder against the product-and-sort reference ------------


def _reference_multiplier_columns(n, conditions, weight, top, pool, bound):
    """Reference multiplier system: every column b * D^m(I_j) multiplied out
    as a polynomial, the basis rebuilt for each (j, m)."""
    keys, columns = [], []
    for j, cond in conditions:
        if cond.is_zero():
            continue
        cw = cond.weight()
        derived = cond
        for m in range(min(weight - cw, top(cond)) + 1):
            if m:
                derived = derived.derive()
            for b in monomial_basis(n, weight - cw - m, pool, bound):
                columns.append(DiffPoly.monomial(n, b) * derived)
                keys.append((j, m, b))
    return keys, columns


def _reference_rows(n, columns, target=None):
    """One row per monomial of the columns and the target, the monomials
    sorted by ``monomial_sort_key``, each row filled in column order."""
    monos = set(target.terms) if target is not None else set()
    for col in columns:
        monos.update(col.terms)
    order = sorted(monos, key=monomial_sort_key(n), reverse=True)
    row_index = {mono: i for i, mono in enumerate(order)}
    rows = [{} for _ in order]
    for ci, col in enumerate(columns):
        for mono, q in col.terms.items():
            rows[row_index[mono]][ci] = q
    rhs = [Fraction(0)] * len(order)
    if target is not None:
        for mono, q in target.terms.items():
            rhs[row_index[mono]] = q
    return rows, rhs


def _expand(n, blocks):
    return [DiffPoly.monomial(n, s, c) * p for c, p, shifts in blocks for s in shifts]


def _streaming(mp):
    """Patch ``reduction.factor`` to record the columns each system streams
    into it, one list per system, each column rebuilt over Q from its
    scaled form (lead, offsets, σ), and return the record."""
    streamed = []

    def spy(columns):
        columns = list(columns)
        streamed.append([{lead + d: v / sigma for d, v in offsets}
                         for lead, offsets, sigma in columns])
        return factor(columns)

    mp.setattr(reduction, "factor", spy)
    return streamed


def _system_rows(n, blocks, target=None):
    """The builder's system for polynomial blocks as (rows, dense rhs): the
    streamed columns laid out as rows, the target packed by ``rhs``."""
    with pytest.MonkeyPatch.context() as mp:
        streamed = _streaming(mp)
        system = reduction._System(n, blocks)
    return _as_rows(system, streamed[0], target)


def _ranks(vectors):
    """Each row the vectors hold, ascending, to its rank: a row is
    labelled -key, so the ranks number the rows in descending key order."""
    return {i: r for r, i in enumerate(sorted(set().union(*vectors)))}


def _as_rows(system, columns, target=None):
    """The columns laid out as rows filled in column order, one row per
    index they hold, and the target packed by the system's ``rhs``, spread
    densely."""
    rank = _ranks(columns)
    rows = [{} for _ in rank]
    for c, column in enumerate(columns):
        for i, q in column.items():
            rows[rank[i]][c] = q
    at = {} if target is None else system.rhs(target)
    return rows, [at.get(i, Fraction(0)) for i in rank]


def _assert_same_system(got, want):
    assert [list(r.items()) for r in got[0]] == [list(r.items()) for r in want[0]]
    assert got[1] == want[1]


@pytest.fixture
def checked_builder(monkeypatch):
    """Check every system the reduction layer builds against the reference:
    the column keys, the columns, the rows (the streamed columns laid out
    as rows) with the column order inside each, and the rows' keys, minus
    each row's label; and every target packed against one: as {row:
    entry} against its rows, and when one of its monomials is no row,
    None or a row no column holds, which the reduction refuses.  A column
    the Koszul criterion leaves out must reduce to zero in the reference's
    factor, and the rows are compared without it; its monomials must still
    be rows.
    Returns, per system built, the set of generator families it holds."""
    real_columns, real_system, real_rhs = (
        reduction._multiplier_columns, reduction._System, reduction._System.rhs,
    )
    seen, monomials = [], {}
    streamed = _streaming(monkeypatch)

    def columns(n, conditions, weight, top, pool, cap, bound):
        conditions = list(conditions)
        labels, blocks = real_columns(n, conditions, weight, top, pool, cap, bound)
        ref_keys, ref_columns = _reference_multiplier_columns(
            n, conditions, weight, top, pool, bound
        )
        keys = [(j, m, b) for (j, m), (_, _, basis) in zip(labels, blocks) for b in basis]
        assert keys == ref_keys
        assert _expand(n, blocks) == ref_columns
        return labels, blocks

    def builder(n, blocks, **koszul):
        built = real_system(n, blocks, **koszul)
        expanded = _expand(n, blocks)
        flagged = _flagged(blocks, built)
        if flagged:
            assert flagged <= _dependent(_reference_factor(n, expanded)[0])
        kept = [c for c in range(len(expanded)) if c not in flagged]
        rows, rhs = _reference_rows(n, expanded)
        rows = [{new: r[c] for new, c in enumerate(kept) if c in r} for r in rows]
        _assert_same_system(_as_rows(built, streamed[-1]), (rows, rhs))
        order = sorted({m for p in expanded for m in p.terms}, key=monomial_sort_key(n),
                       reverse=True)
        keys = [-i for i in _ranks(streamed[-1])]
        assert keys == [built.packing.key(m) for m in order]
        monomials[id(built)] = order
        seen.append({g.family for p in expanded for m in p.terms for g in m.generators()})
        return built

    def rhs(system, target):
        got = real_rhs(system, target)
        row_of = {m: -system.packing.key(m) for m in monomials[id(system)]}
        if all(m in row_of for m in target.terms):
            assert got == {row_of[m]: q for m, q in target.terms.items()}
        else:
            assert got is None or not got.keys() <= set(row_of.values())
        return got

    monkeypatch.setattr(reduction, "_multiplier_columns", columns)
    monkeypatch.setattr(reduction, "_System", builder)
    monkeypatch.setattr(real_system, "rhs", rhs)
    reduction._membership_system.cache_clear()
    return seen


def _probe(n, cs):
    w0 = DiffPoly.generator(n, w(0))
    top = DiffPoly.generator(n, w(n - 1))
    return (cs.condition(0).derive(2) + cs.condition(n - 2) * w0) * top**2


def _random_member(n, cs, rng):
    """Four terms m * I_j^(s) of the probe's weight, m drawn from the bases."""
    weight = n + 6
    gens = sorted(set().union(*(p.base_generators() for _, p in cs.items())))
    columns = [
        (j, s, b)
        for j, cond in cs.items()
        for s in range(weight - cond.weight() + 1)
        for b in monomial_basis(n, weight - cond.weight() - s, gens)
    ]
    target = DiffPoly.zero(n)
    for j, s, b in rng.sample(columns, 4):
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        target = target + DiffPoly.monomial(n, b, coeff) * cs.condition(j).derive(s)
    return target


@pytest.mark.parametrize("n", [6, 7])
def test_packed_probe_systems_match_the_reference(checked_builder, n):
    cs = pipeline(n, "eliminated")
    probe = _probe(n, cs)
    member = _random_member(n, cs, random.Random(n))
    assert member
    non_member = probe + DiffPoly.generator(n, w(n - 1)) ** (n + 6)
    assert ideal_membership(probe, cs) is not None
    assert ideal_membership(member, cs) is not None
    assert ideal_membership(non_member, cs) is None
    assert len(checked_builder) == 1  # one system, memoized, for the three targets


def test_packed_transformed_systems_match_the_reference(checked_builder):
    """The goldens suite's memberships, which carry C generators, and
    members at the generic preset, whose conditions carry parameters, with
    a C factor in the target."""
    from nfoldsusy.diffring import Family
    from nfoldsusy.suites import run_suite

    assert all(report.passed for report in run_suite("goldens"))
    assert any(Family.C in fams for fams in checked_builder)
    for n in (2, 3, 4):
        cs = pipeline(n, "transformed", "generic")
        j, cond = min(cs.items(), key=lambda jc: jc[1].weight())
        target = (parse("C1", n) + parse(f"w{n - 1}^4", n)) * cond
        dec = ideal_membership(target, cs)
        assert dec is not None and dec.target == target
    assert {Family.C, Family.PARAM} <= checked_builder[-1]


def test_packed_search_and_antiderivative_systems_match_the_reference(checked_builder):
    assert search_relations(3, 2)
    assert run_search(3, 2).j_poly == parse("u0^2 - u1'^2 - 8*u1^3 - 8*C1*u1", 3)
    cs = pipeline(2, "transformed", "paper")
    found = search_integral(cs, 1, policy="first-order", relations=search_relations(2, 1))
    assert found.j_poly.weight() == 4
    for text, n in (("w1^2*u0 + 1/2*w1*w1'' - 1/4*w1'^2", 2), ("u1*w2'*C1 - 3*w1*w2^4*w2'", 3)):
        p = parse(text, n)
        assert antiderivative(p.derive()).antiderivative == p
    assert antiderivative(parse("w1", 2)) is None
    # the twofold search tests two candidates against one memoized system,
    # and w1, whose basis one weight down is empty, gets an empty system
    # that refuses it while packing
    assert len(checked_builder) == 7


def _ordering_pool(n):
    from nfoldsusy.diffring import alpha, beta, c, gamma, vminus, vplus

    pool = [w(k, d) for k in range(n) for d in range(3)]
    pool += [u(k, d) for k in range(n - 1) for d in range(2)]
    pool += [vplus(0), vplus(1), vminus(2), c(0), c(1), c(3)]
    pool += [alpha(0), alpha(2), beta(1), gamma(0)]
    return pool


def _random_monomials(rng, n, count):
    from nfoldsusy.diffring import alpha

    pool = _ordering_pool(n)
    monos = {
        Monomial.of(w(n - 1), n + 6),
        Monomial.of(alpha(0), 20),
        Monomial([(w(n - 1), n + 6), (alpha(0), 20)]),
        Monomial.unit(),
    }
    while len(monos) < count:
        picks = rng.sample(pool, rng.randint(1, 4))
        monos.add(Monomial((g, rng.choice((1, 1, 2, 3, 7))) for g in picks))
    return sorted(monos, key=lambda m: repr(m))


@pytest.mark.parametrize("n", range(2, 10))
def test_packed_key_order_is_the_graded_order(n):
    """Rows come out in ``monomial_sort_key`` order across mixed weights,
    C and PARAM factors and exponents above the weight, both for target
    monomials alone and for shifted products s * m.  A target is also the
    last column, one unshifted block, so each of its monomials is a row."""
    rng = random.Random(100 + n)
    monos = _random_monomials(rng, n, 60)
    target = DiffPoly(n, {m: i + 1 for i, m in enumerate(monos)})
    rows, rhs = _system_rows(n, [(1, target, reduction._UNSHIFTED)], target)
    assert rows == [{0: q} for q in rhs]
    by_coeff = {i + 1: m for i, m in enumerate(monos)}
    assert [by_coeff[q] for q in rhs] == sorted(monos, key=monomial_sort_key(n), reverse=True)

    blocks = [
        (1, DiffPoly(n, {m: rng.randint(1, 5) for m in rng.sample(monos, 5)}),
         rng.sample(monos, 4))
        for _ in range(6)
    ]
    target = DiffPoly(n, {m: 1 for m in rng.sample(monos, 10)})
    _assert_same_system(
        _system_rows(n, blocks + [(1, target, reduction._UNSHIFTED)], target),
        _reference_rows(n, _expand(n, blocks) + [target], target),
    )


def _reference_factor(n, columns):
    """The factor of polynomial columns, each expanded as ``Fraction``s
    over the rows of ``_reference_rows`` and scaled on its own by
    ``_scale_to_int``, and the number of those rows."""
    order = sorted({m for col in columns for m in col.terms}, key=monomial_sort_key(n),
                   reverse=True)
    row = {m: i for i, m in enumerate(order)}
    handed = []
    for col in columns:
        v, den, content = _scale_to_int({row[m]: Fraction(q) for m, q in col.terms.items()})
        lead = min(v) if v else None
        handed.append((lead, sorted((i - lead, q) for i, q in v.items()), Fraction(den, content)))
    return factor(handed), len(order)


def _dependent(f):
    """The columns of a factor that install no pivot."""
    return {c for c, (_, lead, _, _) in enumerate(f._log) if lead is None}


def _flagged(blocks, system):
    """The columns of the blocks, numbered over all their shifts, that the
    system left out of its factor: the shifts missing from its kept ones."""
    flagged, col = set(), 0
    for (_, _, shifts), kept in zip(blocks, system.shifts, strict=True):
        kept = set(kept)
        flagged.update(col + i for i, s in enumerate(shifts) if s not in kept)
        col += len(shifts)
    return flagged


def _column_logs(f, rank=None):
    """The log of a factor, one record (updates, lead, g, σ) per column,
    each column's updates as a list; each lead renamed by ``rank`` when
    given (a dependent column's None stays)."""
    def name(i):
        return i if rank is None or i is None else rank[i]

    return [([(name(u), scale, rv) for u, scale, rv in updates], name(lead), g, sigma)
            for updates, lead, g, sigma in f._log]


def _assert_same_factor(got, reference, flagged=frozenset()):
    """The same rows and echelon as the reference (factor, row count), and
    the log and end of each column of its factor ``want`` but the flagged
    ones, which ``got`` left out and ``want`` reduces to zero.  ``got``
    labels its rows -key and ``want`` numbers them densely, so ``got``'s
    labels are ranked: the echelon holds every row a column holds."""
    want, nrows = reference
    assert flagged <= _dependent(want)
    rank = _ranks(got)
    assert (len(rank), got.ncols) == (nrows, want.ncols - len(flagged))
    assert [{rank[i]: v for i, v in vec.items()} for vec in got] == list(want)
    logs = _column_logs(want)
    assert _column_logs(got, rank) == [logs[c] for c in range(want.ncols) if c not in flagged]


@pytest.mark.parametrize("n", [6, 7])
def test_block_scaled_probe_factors_equal_the_column_scaled_reference(monkeypatch, n):
    """The probe's factor, built from blocks scaled once, has the log and
    echelon of the columns s * D^m(I_j), derived from the conditions as
    ``Fraction``s and each scaled on its own, less the columns the Koszul
    criterion flags."""
    cs = pipeline(n, "eliminated")
    _clear_memos()
    _, blocks, _, system = _built(monkeypatch, _probe(n, cs), cs)
    labels, memo = _entry_of(_probe(n, cs), cs)
    assert memo is system
    columns = [DiffPoly.monomial(n, s) * cs.condition(j).derive(m)
               for (j, m), (_, _, shifts) in zip(labels, blocks) for s in shifts]
    flagged = _flagged(blocks, system)
    assert flagged  # the Koszul criterion left columns out
    _assert_same_factor(system.factor, _reference_factor(n, columns), flagged)


@pytest.mark.parametrize("seed", range(5))
def test_block_scaled_random_factors_equal_the_column_scaled_reference(seed):
    """Blocks with a scale c and Fraction coefficients with a common
    content, shared and single shifts, and scaled copies of other blocks,
    which give dependent columns."""
    rng = random.Random(400 + seed)
    n = rng.randint(2, 7)
    monos = _random_monomials(rng, n, 30)
    shared = rng.sample(monos, 3)
    blocks = []
    for i in range(8):
        if i == 7 or (blocks and rng.random() < 0.3):
            c, p, shifts = rng.choice(blocks)
            k = Fraction(rng.choice((2, 3)), rng.choice((1, 5)))
            blocks.append((c / k, p * k, shifts))
            continue
        content = Fraction(rng.choice((1, 2, 6)), rng.choice((1, 3, 4)))
        p = DiffPoly(n, {m: content * rng.choice((-3, -2, -1, 1, 2, 5))
                         for m in rng.sample(monos, rng.randint(1, 4))})
        c = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        blocks.append((c, p, rng.choice((shared, reduction._UNSHIFTED, rng.sample(monos, 2)))))
    system = reduction._System(n, blocks)
    _assert_same_factor(system.factor, _reference_factor(n, _expand(n, blocks)))
    assert system.factor.ncols > len(system.factor)  # some column is dependent


def test_eightfold_probe_is_a_member_of_the_pinned_size(monkeypatch):
    """The system's rows, the columns of its blocks and those the Koszul
    criterion flags; the factor's columns, dependent columns and updates:
    every dependent column is flagged and left out, so only the installed
    columns are reduced (15,232 updates when all were)."""
    n = 8
    cs = pipeline(n, "eliminated")
    _, blocks, _, system = _built(monkeypatch, _probe(n, cs), cs)
    assert ideal_membership(_probe(n, cs), cs) is not None
    f = system.factor
    assert (len(_ranks(f)), sum(len(shifts) for _, _, shifts in blocks)) == (3952, 2428)
    assert len(_flagged(blocks, system)) == 275
    assert (f.ncols, len(_dependent(f)), sum(len(u) for u, *_ in f._log)) == (2153, 0, 9)


# -- columns the Koszul criterion leaves out -------------------------------------


def _built(monkeypatch, target, cs):
    """(n, blocks, keywords, system) of the one system a cold decision on
    (target, cs) builds under the current caps."""
    real, built = reduction._System, []

    def spy(n, blocks, **koszul):
        built.append((n, blocks, koszul, real(n, blocks, **koszul)))
        return built[-1][-1]

    monkeypatch.setattr(reduction, "_System", spy)
    reduction._membership_system.cache_clear()
    ideal_membership(target, cs)
    monkeypatch.setattr(reduction, "_System", real)
    [entry] = built
    return entry


def _koszul_columns(monkeypatch, target, cs):
    """For the system of a cold decision on (target, cs) under the current
    caps, numbering the columns over all shifts of its blocks: the columns
    it left out of its factor; the columns s * g whose shift s the leading
    monomial of an earlier block f divides, f and g over the pool within
    the basis bound, found by ``leading_monomial`` and ``Monomial.divides``;
    and the dependent columns of a full factor of the same blocks.  The
    system's factor is checked to have as nullity, columns less pivots,
    the dependent columns left unflagged: the syzygies beyond Koszul's."""
    n, blocks, koszul, system = _built(monkeypatch, target, cs)
    pool, bound = koszul["koszul"]
    skipped = _flagged(blocks, system)
    divided, leads, col = set(), [], 0
    for _, p, shifts in blocks:
        within = p and p.max_deriv() <= bound and p.base_generators() <= set(pool)
        for s in shifts:
            if within and any(lm.divides(s) for lm in leads):
                divided.add(col)
            col += 1
        if within:
            leads.append(p.leading_monomial())
    dependent = _dependent(reduction._System(n, blocks).factor)
    assert system.factor.ncols - len(system.factor) == len(dependent - skipped)
    return skipped, divided, dependent


@pytest.mark.pin
@pytest.mark.parametrize("n, weight", [(4, None), (5, None), (6, None), (7, None), (8, None),
                                       (4, 13), (6, 10), ("goldens", None), ("goldens", 10)])
def test_koszul_criterion_skips_only_dependent_columns(monkeypatch, n, weight):
    """Probe systems (weight N+6), two other weights, the first goldens
    membership whose conditions hold C generators, and its conditions
    against w2^10.  The packed keys flag the columns the leading monomials
    do, so no key collides, and every flagged column is dependent.  In the
    eliminated systems no syzygy goes beyond Koszul's, so the flagged
    columns are the dependent ones and the factor's nullity is 0.  The
    goldens conditions hold integrals of each other, such as
    D(I_101) = I_0 + 2 * w2 * I_1, which the criterion misses: nullity 1,
    and 54 = 71 - 17 against w2^10."""
    if n == "goldens":
        target, cs = _goldens_membership_with_constants(monkeypatch)
        if weight is not None:
            target = DiffPoly.generator(target.n, w(target.n - 1)) ** weight
    else:
        cs = pipeline(n, "eliminated")
        target = _probe(n, cs) if weight is None else DiffPoly.generator(n, w(n - 1)) ** weight
    skipped, divided, dependent = _koszul_columns(monkeypatch, target, cs)
    assert skipped == divided and skipped <= dependent
    if n != "goldens":
        assert skipped == dependent and skipped
    elif weight is None:
        assert not skipped and dependent == {4}
    else:
        assert (len(skipped), len(dependent)) == (17, 71)


@pytest.mark.pin
def test_koszul_criterion_skips_only_dependent_columns_under_a_lower_bound(monkeypatch):
    """With the basis bound below the derivative cap, the blocks derived past
    the bound take no part in the criterion, so it flags a strict subset of
    the dependent columns."""
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "14")
    monkeypatch.setenv("NFOLDSUSY_DERIV_BOUND", "5")
    n = 6
    cs = pipeline(n, "eliminated")
    skipped, divided, dependent = _koszul_columns(monkeypatch, _probe(n, cs), cs)
    assert skipped == divided
    assert skipped < dependent and skipped


@pytest.mark.pin
def test_koszul_criterion_leaves_out_blocks_that_hold_a_parameter(monkeypatch):
    """No shift holds a parameter, so the Koszul syzygy of I_0 with a block
    that holds one needs columns the system does not have: the column
    w1^4 * I_1 = w1^4 * w1' + alpha0 * w1^6 is independent, though w1^2
    divides w1^4, and must not be skipped."""
    conditions = [(0, parse("w1^2", 2)), (1, parse("w1' + alpha0*w1^2", 2))]
    target = parse("w1^4*w1' + alpha0*w1^6", 2)
    skipped, divided, dependent = _koszul_columns(monkeypatch, target, conditions)
    assert skipped == divided and skipped < dependent and skipped
    dec = ideal_membership(target, conditions)
    assert [(key, str(p)) for key, p in dec.multipliers] == [((1, 0), "w1^4")]



# -- memoized columns -----------------------------------------------------------


def _clear_memos():
    reduction._basis.cache_clear()
    reduction._membership_system.cache_clear()


def _as_dict(dec):
    return None if dec is None else dec.to_dict()


def _goldens_membership_with_constants(monkeypatch):
    """The first (target, conditions) the goldens suite decides whose
    conditions hold a C generator."""
    from nfoldsusy.diffring import Family
    from nfoldsusy.suites import run_suite

    real, seen = reduction.ideal_membership, []

    def spy(target, cs, *args, **kwargs):
        conditions = list(cs)
        if any(g.family is Family.C for _, p in conditions for g in p.base_generators()):
            seen.append((target, conditions))
        return real(target, conditions, *args, **kwargs)

    monkeypatch.setattr(reduction, "ideal_membership", spy)
    assert all(report.passed for report in run_suite("goldens"))
    monkeypatch.undo()
    assert seen
    return seen[0]


def test_warm_and_cold_memos_give_the_same_certificates(monkeypatch):
    cases = []
    for n in (6, 7):
        cs = pipeline(n, "eliminated")
        probe = _probe(n, cs)
        cases += [(probe, cs), (_random_member(n, cs, random.Random(n)), cs),
                  (probe + DiffPoly.generator(n, w(n - 1)) ** (n + 6), cs)]
    cases.append(_goldens_membership_with_constants(monkeypatch))
    cold = []
    for target, cs in cases:
        _clear_memos()
        cold.append(_as_dict(ideal_membership(target, cs)))
    for target, cs in cases:
        ideal_membership(target, cs)
    memos = (reduction._basis, reduction._membership_system)
    misses = [memo.cache_info().misses for memo in memos]
    warm = [_as_dict(ideal_membership(target, cs)) for target, cs in cases]
    # every system of the second pass comes from the memos
    assert [memo.cache_info().misses for memo in memos] == misses
    assert warm == cold
    assert [c is None for c in cold] == [False, False, True] * 2 + [False]


@pytest.mark.pin
def test_towers_equal_the_ring_derivation_term_for_term():
    """D^m(P_j), from monomial derivatives the towers of one N share, is
    the tower that ``DiffPoly.derive`` makes, coefficients, types and
    insertion order alike, up to the derivative cap, where both raise the
    same error; a negative top gives no tower."""
    from nfoldsusy import DerivOrderError

    def terms(p):
        return [(m, q, type(q)) for m, q in p.terms.items()]

    for n in range(3, 9):
        derivs = {}
        for _, cond in pipeline(n, "eliminated").items():
            ints = _scale_to_int(cond.terms)[0]
            ring = [DiffPoly(n, ints)]
            while ring[-1].max_deriv() < 12:
                ring.append(ring[-1].derive())
            m = len(ring) - 1
            tower = reduction._tower(n, dict(ints), m, 12, derivs)
            assert [terms(p) for p in tower] == [terms(p) for p in ring]
            with pytest.raises(DerivOrderError) as ring_error:
                ring[m].derive()
            with pytest.raises(DerivOrderError) as tower_error:
                reduction._tower(n, dict(ints), m + 1, 12, derivs)
            assert str(tower_error.value) == str(ring_error.value)
            assert reduction._tower(n, dict(ints), -1, 12, derivs) == []


def test_a_second_decision_on_an_equal_condition_set_derives_no_column(monkeypatch):
    from nfoldsusy import diffring
    from nfoldsusy.susy import build_system, derive_conditions, eliminate_potentials

    n = 6
    cs = pipeline(n, "eliminated")
    equal = eliminate_potentials(derive_conditions(build_system(n)))
    assert equal == cs and equal.conditions[0] is not cs.conditions[0]
    target = _probe(n, cs)
    _clear_memos()
    first = ideal_membership(target, cs)
    steps = []
    real = diffring._leibniz_terms
    for module in (diffring, reduction):  # the ring's derivation and the towers
        monkeypatch.setattr(
            module, "_leibniz_terms", lambda terms, cap: steps.append(1) or real(terms, cap)
        )
    second = ideal_membership(target, equal)
    assert second.to_dict() == first.to_dict()
    # What is left is the re-expansion, one derivation step per order.
    assert len(steps) == sum(m for (_, m), _ in second.multipliers) > 0


def test_memos_under_raised_caps_leave_default_verdicts_alone(monkeypatch):
    """A basis or system memoized under a raised cap is not reused under
    the default: the verdict, and the cap error, stay those of a cold memo."""
    from nfoldsusy import ConditionSet, DerivOrderError

    cs = pipeline(2, "eliminated")
    # Needs the multiplier w1^(13), which only a basis bound >= 13 admits.
    target = DiffPoly.generator(2, w(1, 13)) * cs.condition(0)
    _clear_memos()
    assert ideal_membership(target, cs, max_shift=0) is None
    monkeypatch.setenv("NFOLDSUSY_DERIV_BOUND", "20")
    assert ideal_membership(target, cs, max_shift=0) is not None
    monkeypatch.delenv("NFOLDSUSY_DERIV_BOUND")
    assert ideal_membership(target, cs, max_shift=0) is None

    # A condition at derivative order 12: the first-order search derives it
    # to 13, past the default cap.  The antiderivative basis stops at order
    # 5, so the condition's tower is the only thing that can pass the cap.
    top = ConditionSet(2, "eliminated", (0,), (parse("w1" + "'" * 12, 2),))
    _clear_memos()
    with pytest.raises(DerivOrderError):
        search_integral(top, 6, policy="first-order", max_deriv=5)
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "20")
    with pytest.raises(SearchExhausted):
        search_integral(top, 6, policy="first-order", max_deriv=5)
    # Under cap 20 the tower derives w1^(12); under the default it stops.
    order12 = {Monomial.of(w(1, 12)): 1}
    assert reduction._tower(2, dict(order12), 1, 20, {})[1].terms == {Monomial.of(w(1, 13)): 1}
    monkeypatch.delenv("NFOLDSUSY_MAX_DERIV")
    with pytest.raises(DerivOrderError):
        search_integral(top, 6, policy="first-order", max_deriv=5)
    with pytest.raises(DerivOrderError, match="order 13 exceeds"):
        reduction._tower(2, dict(order12), 1, 12, {})

    n = 6
    cs = pipeline(n, "eliminated")
    targets = [_probe(n, cs), _probe(n, cs) + DiffPoly.generator(n, w(n - 1)) ** (n + 6)]
    _clear_memos()
    cold = [_as_dict(ideal_membership(t, cs)) for t in targets]
    for var in ("NFOLDSUSY_MAX_DERIV", "NFOLDSUSY_DERIV_BOUND"):
        monkeypatch.setenv(var, "20")
        for t in targets:
            ideal_membership(t, cs)
        monkeypatch.delenv(var)
        assert [_as_dict(ideal_membership(t, cs)) for t in targets] == cold


def test_re_expansion_does_not_read_the_memo(monkeypatch):
    """A wrong entry D^m(P_j) of an integer tower makes a wrong column; the
    certificate built on it fails the independent re-expansion instead of
    coming back."""
    n = 6
    cs = pipeline(n, "eliminated")
    target = _probe(n, cs)
    _clear_memos()
    honest = ideal_membership(target, cs)
    assert (0, 2) in dict(honest.multipliers)
    real, p0, corrupted = reduction._tower, _scale_to_int(cs.condition(0).terms)[0], []

    def corrupting(n, ints, top, cap, derivs):
        tower = real(n, ints, top, cap, derivs)
        if ints == p0:
            tower[2] = tower[2] * 2
            assert all(type(q) is int for q in tower[2].terms.values())
            corrupted.append(2)
        return tower

    monkeypatch.setattr(reduction, "_tower", corrupting)
    reduction._membership_system.cache_clear()  # so that the system is built anew
    with pytest.raises(reduction.ReductionError, match="does not re-expand"):
        ideal_membership(target, cs)
    assert corrupted == [2]


@pytest.mark.pin
@pytest.mark.parametrize("n, nblocks, expansions", [(6, 35, 443), (7, 45, 637)])
def test_each_build_derives_its_own_towers(monkeypatch, n, nblocks, expansions):
    """A cold probe build expands each monomial of its towers once, through
    ``_leibniz_terms``, for all its blocks; a second build of the same
    system, its factor memo cleared, expands them all again: no tower state
    outlives a build."""
    cs = pipeline(n, "eliminated")
    probe = _probe(n, cs)
    real, expanded, counts = reduction._leibniz_terms, [], []
    monkeypatch.setattr(reduction, "_leibniz_terms",
                        lambda terms, cap: expanded.append(1) or real(terms, cap))
    for _ in range(2):
        reduction._membership_system.cache_clear()
        expanded.clear()
        labels, _ = _entry_of(probe, cs)
        counts.append((len(labels), len(expanded)))
    assert counts == [(nblocks, expansions)] * 2


# -- mixed ambients -------------------------------------------------------------


@pytest.mark.parametrize("target_n, cs_n", [(3, 4), (4, 3)])
def test_membership_refuses_mixed_ambients_before_building(monkeypatch, target_n, cs_n):
    calls = []
    monkeypatch.setattr(reduction, "monomial_basis", lambda *a: calls.append(a))
    cs = pipeline(cs_n, "eliminated")
    target = DiffPoly.generator(target_n, w(0)) ** 4
    with pytest.raises(AmbientMismatchError, match=f"{target_n} vs {cs_n}"):
        ideal_membership(target, cs)
    with pytest.raises(AmbientMismatchError, match=f"{target_n} vs {cs_n}"):
        ideal_membership(DiffPoly.zero(target_n), cs)
    assert calls == []


@pytest.mark.parametrize("cs_n, rel_n", [(2, 3), (3, 2)])
def test_search_refuses_mixed_ambients_before_building(monkeypatch, cs_n, rel_n):
    calls = []
    monkeypatch.setattr(reduction, "monomial_basis", lambda *a: calls.append(a))
    cs = pipeline(cs_n, "transformed", "paper")
    with pytest.raises(AmbientMismatchError, match=f"{cs_n} vs {rel_n}"):
        search_integral(cs, 1, relations=[parse("u0 - 2*C1", rel_n)])
    assert calls == []


# -- memoized factors -----------------------------------------------------------


def _entry_of(target, cs):
    """The memo entry (labels, system) a decision on (target, cs) reads,
    under the current caps."""
    from nfoldsusy.config import max_deriv_order, search_deriv_bound

    conditions = tuple(cs.items())
    pool = reduction._default_gens([target] + [p for _, p in conditions])
    weight = target.weight()
    return reduction._membership_system(
        target.n, conditions, weight, weight, tuple(pool), max_deriv_order(), search_deriv_bound()
    )


def _system_of(target, cs):
    """The system of the memo entry a decision on (target, cs) reads."""
    return _entry_of(target, cs)[1]


def test_one_factor_serves_member_and_non_member_targets(monkeypatch):
    n = 6
    cs = pipeline(n, "eliminated")
    probe = _probe(n, cs)
    targets = [probe, _random_member(n, cs, random.Random(n)),
               probe + DiffPoly.generator(n, w(n - 1)) ** (n + 6)]
    cold = []
    for target in targets:
        _clear_memos()
        cold.append(_as_dict(ideal_membership(target, cs)))
    factored = []
    monkeypatch.setattr(reduction, "factor",
                        lambda columns: factored.append(1) or factor(columns))
    _clear_memos()
    warm = [_as_dict(ideal_membership(target, cs)) for target in targets]
    assert len(factored) == 1
    assert warm == cold
    assert [c is None for c in cold] == [False, False, True]


def test_a_target_monomial_outside_the_rows_is_refused_without_a_replay(monkeypatch):
    """The probe plus one monomial that no column holds.  An exponent above
    every row's, or a generator no row holds, is refused while packing,
    with no solve.  A monomial that packs but is no row reaches the solve,
    whose forward reduction comes to a row no pivot leads: None, with no
    adjoint replay either."""
    from nfoldsusy import linalg
    from nfoldsusy.diffring import c

    n = 6
    cs = pipeline(n, "eliminated")
    probe = _probe(n, cs)
    system = _system_of(probe, cs)
    assert system.rhs(probe) is not None
    rows = set().union(*system.factor)  # every row a column holds
    packs = next(
        m for m in monomial_basis(n, probe.weight(), _default_pool(probe, cs))
        if system.packing.fits(m) and -system.packing.key(m) not in rows
    )
    outside = [DiffPoly.generator(n, w(n - 1)) ** (system.packing.base + 1),
               DiffPoly.generator(n, c(5)), DiffPoly.monomial(n, packs)]
    solves, replays = [], []
    real_solve, real_replay = linalg.Factor.solve, linalg.Factor._replay
    monkeypatch.setattr(linalg.Factor, "solve",
                        lambda self, rhs: solves.append(rhs) or real_solve(self, rhs))
    monkeypatch.setattr(linalg.Factor, "_replay",
                        lambda self, z, stop: replays.append(z) or real_replay(self, z, stop))
    for extra in outside:
        assert extra.weight() == probe.weight()
        assert ideal_membership(probe + extra, cs) is None
    assert [-system.packing.key(packs) in rhs for rhs in solves] == [True] and replays == []
    assert ideal_membership(probe, cs) is not None and (len(solves), len(replays)) == (2, 1)


def test_packing_refuses_an_exponent_that_would_carry():
    """With base 2, w5^2 and w4 get one key; the exponent guard keeps the
    first from reading as a row of the second, and a generator that is
    not packed does not fit either."""
    n = 6
    packing = reduction._Packing(n, 2, [w(5), w(4)])
    square, single = Monomial.of(w(5), 2), Monomial.of(w(4), 1)
    assert square.weight(n) == single.weight(n)
    assert packing.key(square) == packing.key(single)
    assert packing.fits(single) and not packing.fits(square)
    assert not packing.fits(Monomial.of(w(3), 1))


def _default_pool(target, cs):
    return reduction._default_gens([target] + [p for _, p in cs.items()])


@pytest.mark.parametrize("var", ["NFOLDSUSY_MAX_DERIV", "NFOLDSUSY_DERIV_BOUND"])
def test_systems_memoized_under_a_raised_cap_stay_apart(monkeypatch, var):
    """A target that only a raised cap admits: derived past the default
    derivative cap, or needing a multiplier past the default basis bound.
    Its system under the raised cap is not the one the default reads."""
    n = 2
    cs = pipeline(n, "eliminated")
    cond = cs.condition(0)
    monkeypatch.setenv(var, "20")
    if var == "NFOLDSUSY_MAX_DERIV":
        target, shift = cond.derive(13 - cond.max_deriv()), None
    else:
        target, shift = DiffPoly.generator(n, w(1, 13)) * cond, 0
    monkeypatch.delenv(var)
    _clear_memos()
    assert ideal_membership(target, cs, shift) is None
    monkeypatch.setenv(var, "20")
    assert ideal_membership(target, cs, shift) is not None
    monkeypatch.delenv(var)
    assert ideal_membership(target, cs, shift) is None
    assert reduction._membership_system.cache_info().currsize == 2


def test_a_corrupted_factor_fails_the_re_expansion():
    """A factor whose σ is doubled on one column of the probe's solution
    doubles that entry of the solution and leaves the others alone; the
    certificate's re-expansion refuses it instead of returning it."""
    n = 6
    cs = pipeline(n, "eliminated")
    target = _probe(n, cs)
    _clear_memos()
    honest = ideal_membership(target, cs)
    system = _system_of(target, cs)
    f = system.factor
    x = f.solve(system.rhs(target))
    col = next(c for c, v in enumerate(x) if v)
    try:
        updates, lead, g, sigma = f._log[col]
        f._log[col] = updates, lead, g, 2 * sigma
        got = f.solve(system.rhs(target))
        assert got[col] == 2 * x[col]
        assert got[:col] + got[col + 1:] == x[:col] + x[col + 1:]
        with pytest.raises(reduction.ReductionError, match="does not re-expand"):
            ideal_membership(target, cs)
    finally:
        _clear_memos()
    assert _as_dict(ideal_membership(target, cs)) == _as_dict(honest)


def test_each_decision_makes_one_solve_call_the_benchmark_can_trace(monkeypatch):
    """The benchmark's tracer wraps ``linalg.solve`` under every name the
    package holds it by, and reads ``len(args[0])``, ``len(row)`` for each
    item of ``args[0]`` and ``args[2]`` as the column count."""
    import sys

    from nfoldsusy import linalg

    real, calls = linalg.solve, []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "nfoldsusy" or name.startswith("nfoldsusy."):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, spy)
    n = 6
    cs = pipeline(n, "eliminated")
    for target in (_probe(n, cs), _random_member(n, cs, random.Random(n))):
        for clear in (True, False):
            if clear:
                _clear_memos()
            calls.clear()
            assert ideal_membership(target, cs) is not None
            [(args, kwargs)] = calls
            assert kwargs == {} and len(args) == 3
            rows, _, ncols = args
            assert len(rows) > 0 and sum(map(len, rows)) > 0
            assert ncols == sum(map(len, _system_of(target, cs).shifts))


@pytest.mark.pin
def test_membership_certificates_at_three_seeds_are_pinned():
    """The probe, a seeded random member and the non-member at N=6 and N=7,
    for seeds 3, 21 and 31: 18 certificates under one digest, recorded
    while every column was still scaled on its own."""
    import hashlib
    import json

    digest = hashlib.sha256()
    for seed in (3, 21, 31):
        for n in (6, 7):
            cs = pipeline(n, "eliminated")
            probe = _probe(n, cs)
            for target in (probe, _random_member(n, cs, random.Random(seed)),
                           probe + DiffPoly.generator(n, w(n - 1)) ** (n + 6)):
                cert = _as_dict(ideal_membership(target, cs))
                digest.update(json.dumps(cert, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == (
        "cfc79faa8ee13fb8557283c8850bc4d852c0b486f5d18cba02d9f7a75b8c043f"
    )


def test_zero_blocks_keep_their_answers():
    """A condition whose derivatives vanish, a constant or a parameter,
    gives blocks of zero columns, which hold no row and are all dependent.
    The answers are those recorded while every column was read and the
    rows were numbered densely."""
    n = 3
    _clear_memos()
    conditions = [(0, parse("2", n)), (1, parse("w1*w2", n))]
    for target in ("w1*w2^2", "w1", "w1'*w2"):
        dec = ideal_membership(parse(target, n), conditions)
        assert dict(dec.multipliers) == {(0, 0): parse(target, n) * Fraction(1, 2)}
    conditions = [(0, parse("alpha1", n)), (1, parse("w2", n))]
    dec = ideal_membership(parse("w2^2*alpha1", n), conditions)
    assert dict(dec.multipliers) == {(0, 0): parse("w2^2", n)}
    assert ideal_membership(parse("w1", n), conditions) is None


@pytest.mark.pin
@pytest.mark.parametrize("n, ncols, lists, handed, updates",
                         [(6, 637, 37, 35, 9), (7, 1187, 47, 45, 9)])
def test_a_cold_probe_factor_shares_one_offsets_list_per_block(
        monkeypatch, n, ncols, lists, handed, updates):
    """The columns reach ``linalg.factor`` as data, each block's columns
    sharing one offsets list, and the factor keeps those lists: its
    pivots, one per column, are the handed lists of the blocks and a new
    list for each column reduced at a taken lead, and nothing else."""
    seen = []

    def spy(columns):
        columns = list(columns)
        seen.append((columns, factor(columns)))
        return seen[-1][1]

    cs = pipeline(n, "eliminated")
    monkeypatch.setattr(reduction, "factor", spy)
    _clear_memos()
    assert ideal_membership(_probe(n, cs), cs) is not None
    [(columns, f)] = seen
    pivots = {id(p) for p in f._echelon.values()}
    blocks = {id(offsets) for _, offsets, _ in columns}
    assert (len(columns), len(f), len(pivots), len(pivots & blocks),
            sum(len(u) for u, *_ in f._log)) == (ncols, ncols, lists, handed, updates)


@pytest.mark.pin
def test_probe_certificates_at_eight_and_ten_under_raised_caps_are_pinned(monkeypatch):
    """The probe at N=8 and N=10 under derivative cap 17 and basis bound
    13, where no bound cuts either system: one digest, recorded while
    every column was read and the rows were numbered densely (the N=10
    cold decision took 0.29 s then)."""
    import hashlib
    import json

    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "17")
    monkeypatch.setenv("NFOLDSUSY_DERIV_BOUND", "13")
    digest = hashlib.sha256()
    try:
        for n in (8, 10):
            cs = pipeline(n, "eliminated")
            cert = _as_dict(ideal_membership(_probe(n, cs), cs))
            digest.update(json.dumps(cert, sort_keys=True).encode() + b"\n")
    finally:
        _clear_memos()
    assert digest.hexdigest() == (
        "f9499bfa3e0fde116195a309f10d4b8a917619eed4d398f583961456a924cab1"
    )


@pytest.mark.pin
def test_probe_certificate_at_twelve_under_raised_caps_is_pinned(monkeypatch):
    """The probe at N=12 under derivative cap 17 and basis bound 13,
    decided cold: its digest was recorded while every tower went through
    ``DiffPoly.derive`` and every basis through the recursive enumerator
    (the cold decision took 0.43-0.61 s then)."""
    import hashlib
    import json

    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "17")
    monkeypatch.setenv("NFOLDSUSY_DERIV_BOUND", "13")
    cs = pipeline(12, "eliminated")
    _clear_memos()
    try:
        cert = _as_dict(ideal_membership(_probe(12, cs), cs))
    finally:
        _clear_memos()
    digest = hashlib.sha256(json.dumps(cert, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == (
        "4b96945c733fa44592db51e63f36429f867c10bb5f1f77f9d83b8c480128bd36"
    )
