import pytest

from nfoldsusy import DiffOperator, parse
from nfoldsusy.diffring import InhomogeneousError
from nfoldsusy.susy import apply_combo


def mul(s, n=2):
    return DiffOperator.multiplication(parse(s, n))


def test_first_leibniz_case():
    d = DiffOperator.d(2)
    got = d * mul("w1")
    assert got == DiffOperator(2, {1: parse("w1", 2), 0: parse("w1'", 2)})


def test_second_order_composition():
    d2 = DiffOperator.d(2, 2)
    got = d2 * mul("w0")
    assert got == DiffOperator(
        2, {2: parse("w0", 2), 1: parse("2*w0'", 2), 0: parse("w0''", 2)}
    )


def test_transpose_of_twofold_charge():
    p_minus = DiffOperator(2, {2: parse("1", 2), 1: parse("w1", 2), 0: parse("w0", 2)})
    p_plus = DiffOperator(2, {2: parse("1", 2), 1: parse("-w1", 2), 0: parse("w0 - w1'", 2)})
    assert p_minus.transpose() == p_plus


def test_transpose_of_threefold_charge():
    p_minus = DiffOperator(
        3, {3: parse("1", 3), 2: parse("w2", 3), 1: parse("w1", 3), 0: parse("w0", 3)}
    )
    expected = DiffOperator(
        3,
        {
            3: parse("-1", 3),
            2: parse("w2", 3),
            1: parse("-(w1 - 2*w2')", 3),
            0: parse("w0 - w1' + w2''", 3),
        },
    )
    assert p_minus.transpose() == expected


def test_transpose_involution_example():
    a = DiffOperator(2, {2: parse("w1*w0", 2), 1: parse("u0 - w1'", 2), 0: parse("3", 2)})
    assert a.transpose().transpose() == a


def test_order_of_composition():
    a = DiffOperator(2, {2: parse("1", 2), 0: parse("w0", 2)})
    b = DiffOperator(2, {1: parse("w1", 2)})
    assert (a * b).order() == 3
    assert DiffOperator.zero(2).is_zero()
    with pytest.raises(ValueError):
        DiffOperator.zero(2).order()


def test_coefficient_extraction():
    assert DiffOperator.zero(2).coefficient(3).is_zero()
    op = DiffOperator(2, {1: parse("w1", 2)})
    assert op.coefficient(1) == parse("w1", 2)
    assert op.coefficient(0).is_zero()


def test_apply_acts_as_differential_operator():
    op = DiffOperator(2, {1: parse("2", 2), 0: parse("w1", 2)})  # 2 d/dq + w1
    f = parse("w1*u0", 2)
    assert apply_combo({0: op.coeffs}, [(0, f)]) == f.derive() * 2 + parse("w1", 2) * f


def test_operator_weight():
    # the twofold charge is homogeneous of operator weight 2
    p_minus = DiffOperator(2, {2: parse("1", 2), 1: parse("w1", 2), 0: parse("w0", 2)})
    assert p_minus.operator_weight() == 2
    bad = DiffOperator(2, {1: parse("w1", 2), 0: parse("w1", 2)})
    with pytest.raises(InhomogeneousError):
        bad.operator_weight()


def test_scalar_and_poly_lifting():
    op = DiffOperator.d(2)
    assert (2 * op).coefficient(1) == parse("2", 2)
    assert (op * 2).coefficient(1) == parse("2", 2)
    lifted = parse("w1", 2) * op  # multiplication operator composed with d
    assert lifted == DiffOperator(2, {1: parse("w1", 2)})
