import dataclasses
from fractions import Fraction

import pytest

from nfoldsusy import (
    DiffOperator,
    DiffPoly,
    build_system,
    check_J0,
    derive_conditions,
    eliminate_potentials,
    general_potentials,
    intertwiner,
    inverse_ansatz,
    parse,
    pipeline,
    preset_parameters,
    solve_parameters,
    target_monomials,
    transformed_conditions,
    transformed_system,
)
from nfoldsusy.diffring import DerivOrderError, Family, Substitution, u, w
from nfoldsusy.reduction import IntegralConstant
from nfoldsusy.susy import (
    PRESETS,
    InfeasibleError,
    UnknownParameterError,
    ansatz_substitution,
    apply_combo,
    general_inm2,
    general_inm3,
    general_second_condition,
    general_top_condition,
    is_parameter_solution,
    parameter_substitution,
)


def test_build_system_shapes():
    s2 = build_system(2)
    assert s2.charge_minus == DiffOperator(
        2, {2: parse("1", 2), 1: parse("w1", 2), 0: parse("w0", 2)}
    )
    s1 = build_system(1)
    assert s1.charge_minus == DiffOperator(1, {1: parse("1", 1), 0: parse("w0", 1)})
    s4 = build_system(4)
    assert s4.charge_minus.order() == 4
    assert s4.charge_minus.coefficient(4) == parse("1", 4)
    with pytest.raises(ValueError):
        build_system(0)


def test_hamiltonian_form():
    s = build_system(2)
    h = s.hamiltonian_minus
    assert h.coefficient(2) == parse("-1/2", 2)
    assert h.coefficient(0) == parse("V-", 2)


def test_intertwiner_orders_vanish_above_n():
    for n in range(2, 7):
        op = intertwiner(build_system(n))
        assert all(i <= n for i in op.coeffs)
        assert op.operator_weight() == n + 2


def test_raw_conditions_match_displays_n2():
    cs = derive_conditions(build_system(2))
    assert cs.condition(2) == parse("w1' - (V+ - V-)", 2)
    assert cs.condition(1) * 2 == parse("w1'' + 2*w0' + 4*V-' - 2*w1*(V+ - V-)", 2)
    assert cs.condition(0) * 2 == parse(
        "w0'' + 2*V-'' + 2*w1*V-' - 2*w0*(V+ - V-)", 2
    )


def test_raw_conditions_match_top_formulas_n5():
    cs = derive_conditions(build_system(5))
    assert cs.condition(5) == general_top_condition(5)
    assert cs.condition(4) * 2 == general_second_condition(5)


def test_general_potentials():
    vp, vm = general_potentials(2)
    assert vp * 4 == parse("3*w1' - 2*w0 + w1^2 - 4*C0", 2)
    vp4, vm4 = general_potentials(4)
    assert vm4 * 8 == parse("-w3' - 2*w2 + w3^2 - 8*C0", 4)
    for n in range(2, 7):
        vp, vm = general_potentials(n)
        assert vp - vm == DiffPoly.generator(n, w(n - 1, 1))
    with pytest.raises(ValueError):
        general_potentials(1)


def test_eliminate_potentials_n2():
    cs = eliminate_potentials(derive_conditions(build_system(2)))
    assert list(cs.ks) == [0]
    assert cs.condition(0) * -4 == parse(
        "w1''' - w1*w1'' - 2*w1'^2 + 4*w1'*w0 + 2*w1*w0' - 2*w1^2*w1'", 2
    )


def test_eliminate_potentials_matches_general_formulas_n6():
    cs = eliminate_potentials(derive_conditions(build_system(6)))
    assert cs.condition(4) * -24 == general_inm2(6)
    assert cs.condition(3) * -72 == general_inm3(6)


def test_ansatz_images():
    sub = ansatz_substitution(3)
    assert sub.images[w(1)] == parse("6*u1 + w2' - alpha1*w2^2", 3)
    sub4 = ansatz_substitution(4)
    paper = parameter_substitution(4, preset_parameters(4, "paper"))
    assert paper.apply(sub4.images[w(2)]) == parse("u2 + 3/2*w3' - 3/2*w3^2", 4)
    assert sub4.is_weight_preserving()
    with pytest.raises(UnknownParameterError):
        parameter_substitution(2, {"beta1": Fraction(1)})
    with pytest.raises(ValueError):
        ansatz_substitution(5)


def test_parameter_names_the_ansatz_lacks_are_refused():
    """Solving and checking parameters go through the one name check of
    ``parameter_substitution``: a name that N's ansatz lacks raises."""
    targets = target_monomials(2, "paper")
    with pytest.raises(UnknownParameterError, match="beta1"):
        solve_parameters(2, targets, fixed={"beta1": Fraction(0)})
    with pytest.raises(UnknownParameterError, match="gamma9"):
        is_parameter_solution(2, targets, {"alpha0": Fraction(-1, 4), "gamma9": Fraction(1)})
    with pytest.raises(UnknownParameterError, match="alpha0"):
        parameter_substitution(5, {"alpha0": Fraction(1)})


def test_every_preset_assigns_every_parameter():
    """Each preset of an N assigns exactly the parameters of its ansatz, so
    ``PRESETS`` is the one record of the parameter names."""
    for n, presets in PRESETS.items():
        images = ansatz_substitution(n).images.values()
        names = {g.token() for p in images for m in p.terms for g in m.generators()
                 if g.family is Family.PARAM}
        for preset, values in presets.items():
            assert set(values) == names, (n, preset)


def test_apply_combo_with_no_conditions_raises_value_error():
    """No condition gives no ambient N: a ValueError, not the StopIteration
    of an empty lookup."""
    with pytest.raises(ValueError, match="at least one condition"):
        apply_combo({0: {0: 1}}, [])
    with pytest.raises(ValueError, match="at least one condition"):
        IntegralConstant(2, 1, parse("w1", 2), {}).residual([])


def test_apply_combo_sums_as_the_running_sum_of_derivatives(monkeypatch):
    """On every combination ``verify --suite all`` expands, the tower gives
    the terms, their order and coefficient types of the running sum
    ``acc + coeff * d^p(condition)``; a power far past the point where a
    condition vanishes builds no long tower."""
    import io
    from contextlib import redirect_stdout

    from nfoldsusy import cli, reduction

    def running_sum(combo, cs):
        conds = dict(cs.items() if hasattr(cs, "items") else cs)
        acc = DiffPoly.zero(next(iter(conds.values())).n)
        for j, powers in combo.items():
            for power, coeff in powers.items():
                acc = acc + coeff * conds[j].derive(power)
        return acc

    seen = []

    def recording(combo, cs):
        got = apply_combo(combo, cs)
        seen.append((got, running_sum(combo, cs)))
        return got

    monkeypatch.setattr(reduction, "apply_combo", recording)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--suite", "all"]) == 0
    assert len(seen) > 50
    for got, want in seen:
        assert [(m, q, type(q)) for m, q in got.terms.items()] == \
            [(m, q, type(q)) for m, q in want.terms.items()]
    constant = parse("3*C1", 2)
    assert apply_combo({0: {10**9: Fraction(1, 2), 0: 2}}, [(0, constant)]) == constant * 2
    with pytest.raises(ValueError, match="negative"):
        apply_combo({0: {-1: 1}}, [(0, constant)])


def test_inverse_ansatz_round_trip():
    """At the generic preset the parameters stay symbolic, so the inverse
    holds for every parameter value."""
    for n, preset in ((2, "generic"), (3, "generic"), (4, "generic"), (2, "paper"),
                      (3, "paper"), (4, "paper"), (4, "footnote-alt")):
        pm = parameter_substitution(n, preset_parameters(n, preset))
        fwd, inv = (Substitution(n, {g: pm.apply(p) for g, p in s.images.items()})
                    for s in (ansatz_substitution(n), inverse_ansatz(n)))
        for k in range(n - 1):
            assert inv.apply(fwd.images[w(k)]) == DiffPoly.generator(n, w(k))
            assert fwd.apply(inv.images[u(k)]) == DiffPoly.generator(n, u(k))


def test_transformed_simplified_forms():
    cp2 = transformed_conditions(2, "paper")
    assert cp2.condition(0) * -4 == parse("w1''' + 4*w1'*u0 + 2*w1*u0'", 2)
    cp3 = transformed_conditions(3, "paper")
    assert cp3.condition(1) == parse("u0' + 2*w2*u1'", 3)
    assert cp3.condition(0) == parse(
        "u1''' + 2*w2'*u0 + 24*u1*u1' - 4*w2^2*u1'", 3
    )
    cp4 = transformed_conditions(4, "paper")
    assert cp4.condition(2) == parse("4*u1' + w3*u2'", 4)
    assert cp4.condition(1) == parse("u0'", 4)


def test_transformed_system_symmetric_displays():
    sys2 = transformed_system(2, "generic")
    assert sys2.charge_minus == DiffOperator(
        2,
        {
            2: parse("1", 2),
            1: parse("w1", 2),
            0: parse("u0 - alpha0*w1^2 + 1/2*w1'", 2),
        },
    )
    assert sys2.potential_plus * 4 == parse(
        "-2*u0 + (2*alpha0 + 1)*w1^2 + 2*w1' - 4*C0", 2
    )


def test_solve_parameters_point_solutions():
    sol2 = solve_parameters(2, target_monomials(2, "paper"))
    assert sol2.values() == {"alpha0": Fraction(-1, 4)}
    sol3 = solve_parameters(3, target_monomials(3, "paper"))
    assert sol3.values() == PRESETS[3]["paper"]
    sol4 = solve_parameters(4, target_monomials(4, "paper"))
    assert sol4.values() == PRESETS[4]["paper"]


def test_solve_parameters_footnote_branch():
    targets = target_monomials(4, "footnote-alt")
    pinned = solve_parameters(4, targets, fixed={"alpha1": Fraction(0)})
    assert pinned.values() == PRESETS[4]["footnote-alt"]
    family = solve_parameters(4, targets)
    assert len(family.free) == 1
    assert is_parameter_solution(4, targets, PRESETS[4]["footnote-alt"])
    # the two branches kill different monomials of the top constraint
    assert not is_parameter_solution(4, targets, PRESETS[4]["paper"])
    assert not is_parameter_solution(
        4, target_monomials(4, "paper"), PRESETS[4]["footnote-alt"]
    )


def test_solve_parameters_footnote_family_is_pinned():
    family = solve_parameters(4, target_monomials(4, "footnote-alt"))
    assert family.free == ("gamma6",)
    expected = {
        "alpha1": "2*gamma6",
        "beta1": "-9/4",
        "beta2": "-3/4",
        "beta3": "5/3*gamma6 + 1/4",
        "gamma1": "-1/2",
        "gamma2": "2*gamma6 - 1/2",
        "gamma3": "2*gamma6 - 1/8",
        "gamma4": "-1",
        "gamma5": "-1/4",
        "gamma7": "-gamma6^2 + 1/6*gamma6 + 1/16",
    }
    assert list(family.assignments) == list(expected)
    for name, image in expected.items():
        assert family.assignments[name] == parse(image, 4), name


def test_solve_parameters_infeasible():
    mono = next(iter(parse("u0'", 3).terms))
    with pytest.raises(InfeasibleError):
        solve_parameters(3, [(1, mono)])


def test_check_j0():
    for n in range(2, 7):
        report = check_J0(n)
        assert report.passed
        assert report.residual.is_zero()


def test_pipeline_matches_the_explicit_chain():
    for n in range(2, 9):
        raw = derive_conditions(build_system(n))
        assert pipeline(n, "raw") == raw
        assert pipeline(n, "eliminated") == eliminate_potentials(raw)
    for n in (2, 3, 4):
        for preset in ("generic",) + tuple(PRESETS[n]):
            fresh = transformed_conditions(n, preset)
            assert fresh is not pipeline(n, "transformed", preset)
            assert fresh == pipeline(n, "transformed", preset)


def test_pipeline_returns_the_memoized_object():
    assert pipeline(3, "transformed", "paper") is pipeline(3, "transformed", "paper")
    # raw and eliminated ignore the preset, so every caller shares one entry
    assert pipeline(5, "eliminated", "paper") is pipeline(5, "eliminated")
    assert pipeline(4, "raw", "footnote-alt") is pipeline(4, "raw", "generic")


def test_pipeline_rejects_an_unknown_stage():
    with pytest.raises(ValueError, match="unknown stage"):
        pipeline(3, "cooked")


def test_pipeline_refuses_an_n_beyond_the_derivative_cap(monkeypatch):
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "13")
    assert pipeline(12, "eliminated").ks == tuple(range(10, -1, -1))
    # the memoized result is not handed out under a cap that cannot reach it
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "12")
    with pytest.raises(DerivOrderError, match="needs NFOLDSUSY_MAX_DERIV >= 13"):
        pipeline(12, "eliminated")
    assert pipeline(12, "raw").ks[0] == 12
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "4")
    with pytest.raises(DerivOrderError, match="needs NFOLDSUSY_MAX_DERIV >= 5"):
        pipeline(4, "transformed", "paper")


def test_condition_sets_are_hashable_and_hold_no_dict():
    cs = pipeline(4, "eliminated")
    assert hash(cs) == hash(eliminate_potentials(derive_conditions(build_system(4))))
    assert not any(isinstance(getattr(cs, f.name), dict) for f in dataclasses.fields(cs))
