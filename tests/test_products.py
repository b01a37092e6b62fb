import pytest

from nfoldsusy import DiffOperator, parse, verify_product
from nfoldsusy.susy import build_system, derive_conditions, eliminate_potentials


@pytest.fixture(scope="module")
def reports():
    return {n: verify_product(n) for n in (2, 3, 4)}


def test_twofold_residuals_are_plus_minus_2i0(reports):
    cs = eliminate_potentials(derive_conditions(build_system(2)))
    i0 = cs.condition(0)
    minus = reports[2].sides["minus"].residual
    plus = reports[2].sides["plus"].residual
    assert minus == DiffOperator.multiplication(i0 * 2)
    assert plus == DiffOperator.multiplication(i0 * -2)


def test_threefold_residual_operator_combinations(reports):
    cs = eliminate_potentials(derive_conditions(build_system(3)))
    i1, i0 = cs.condition(1), cs.condition(0)
    w1, w2 = parse("w1", 3), parse("w2", 3)
    minus = reports[3].sides["minus"].residual
    assert minus.coefficient(2) == i1 * -3
    assert minus.coefficient(1) == (i1.derive() - w2 * i1 + i0) * -2
    assert minus.coefficient(0) == -(w1 * i1) - (i0.derive() - w2 * i0) * 2


def test_fourfold_residuals_match_f_displays(reports):
    for side in ("minus", "plus"):
        report_side = reports[4].sides[side]
        assert report_side.matches_display
        assert all(report_side.matches_display.values())


def test_all_products_equivalent_to_mother_polynomial(reports):
    for n, report in reports.items():
        for side in report.sides.values():
            assert side.equivalence.equivalent
            # order-4 certificate of the fourfold product is the displayed one
        assert report.passed


def test_fourfold_top_certificate_is_plus_minus_4i2(reports):
    cs = eliminate_potentials(derive_conditions(build_system(4)))
    for side, sign in (("minus", 1), ("plus", -1)):
        cert = reports[4].sides[side].equivalence.certificates[4]
        assert dict(cert.multipliers) == {(2, 0): parse(str(4 * sign), 4)}
