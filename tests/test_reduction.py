import pytest

from nfoldsusy import (
    DiffOperator,
    DiffPoly,
    SearchExhausted,
    antiderivative,
    ideal_membership,
    monomial_basis,
    op_equivalent,
    parse,
    search_integral,
    transformed_conditions,
)
from nfoldsusy.diffring import u, w
from nfoldsusy.goldens import search_relations
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


def test_not_a_total_derivative():
    cs = transformed_conditions(2, "paper")
    assert antiderivative(cs.condition(0)) is None
    # a bare generator with no derivative below it
    assert antiderivative(parse("w1", 2)) is None


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
    # weight 5 needs multiplier weight 1 on the single weight-4 condition;
    # restricting the pool to u0 leaves no candidates of weight 1
    with pytest.raises(SearchExhausted):
        search_integral(cs, 1, gens=[u(0)])


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
