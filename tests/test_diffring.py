import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from nfoldsusy import (
    AmbientMismatchError,
    DiffPoly,
    InhomogeneousError,
    Monomial,
    Substitution,
    ZeroPolynomialError,
    parse,
    replace_constants,
)
from nfoldsusy.diffring import (
    Family,
    Generator,
    alpha,
    beta,
    c,
    gamma,
    monomial_sort_key,
    vminus,
    vplus,
    w,
)


def P(s, n=2):
    return parse(s, n)


def test_additive_identity_and_inverse():
    w1 = P("w1")
    assert w1 + DiffPoly.zero(2) == w1
    assert (w1 + (-1) * w1).is_zero()


def test_like_term_merge():
    assert P("2*w1*w0") + P("3*w1*w0") == P("5*w1*w0")


def test_multiplicative_identity_and_square():
    assert P("w1") * P("w1") == P("w1^2")
    assert DiffPoly.constant(2, 1) * P("w1 + w0") == P("w1 + w0")


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatchError):
        parse("w1", 2) + parse("w1", 3)
    with pytest.raises(AmbientMismatchError):
        parse("w1", 2) * parse("w1", 3)


def test_weights():
    # for the twofold system, w1 carries weight 1 and each prime adds one
    assert P("w1^2*w1'").weight() == 4
    assert P("2*w1*w1'' - w1'^2 + 4*w1^2*u0").weight() == 4
    assert parse("C1", 2).weight() == 4
    assert parse("alpha0", 2).weight() == 0
    assert parse("V+''", 2).weight() == 4


def test_weight_of_inhomogeneous_lists_offenders():
    with pytest.raises(InhomogeneousError) as err:
        P("w1 + w1^2").weight()
    assert len(err.value.offenders) == 2


def test_weight_of_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        DiffPoly.zero(2).weight()


def test_derive_basics():
    assert P("w1").derive() == P("w1'")
    assert parse("C1", 2).derive().is_zero()
    assert parse("alpha0", 2).derive().is_zero()
    assert P("w1*w0").derive() == P("w1'*w0 + w1*w0'")


def test_derive_raises_weight_by_one():
    p = P("w1^2*w0")
    assert p.derive().weight() == p.weight() + 1


def test_substitute_twofold_ansatz_image():
    # w0 -> u0 + w1'/2 - alpha0 w1^2 with the parameter kept symbolic
    sub = Substitution(2, {w(0): P("u0 + 1/2*w1' - alpha0*w1^2")})
    assert sub.apply(P("w0")) == P("u0 + 1/2*w1' - alpha0*w1^2")
    # derivative orders extend through the derivation
    assert sub.apply(P("w0'")) == P("u0 + 1/2*w1' - alpha0*w1^2").derive()


def test_identity_substitution():
    sub = Substitution(2, {})
    p = P("w1''*w0 - 3*u0^2")
    assert sub.apply(p) == p


def test_substitution_on_eliminated_constraint_gives_transformed_one():
    sub = Substitution(2, {w(0): P("u0 + 1/2*w1' - alpha0*w1^2")})
    cleared = P("w1''' - w1*w1'' - 2*w1'^2 + 4*w1'*w0 + 2*w1*w0' - 2*w1^2*w1'")
    expected = P("w1''' + 4*w1'*u0 + 2*w1*u0' - 2*(4*alpha0 + 1)*w1^2*w1'")
    assert sub.apply(cleared) == expected


def test_substitution_weight_preserving_check():
    good = Substitution(2, {w(0): P("u0 + 1/2*w1' - alpha0*w1^2")})
    assert good.is_weight_preserving()
    bad = Substitution(2, {w(0): P("w1")})  # weight 1 into a weight-2 slot
    assert not bad.is_weight_preserving()


def test_substitution_rejects_nonconstant_constant_images():
    with pytest.raises(ValueError):
        Substitution(2, {c(1): P("w1'")})


def test_replace_constants():
    p = P("16*C1 + C1*w1")
    out = replace_constants(p, {c(1): P("w1^2*u0")})
    assert out == P("16*w1^2*u0 + w1^3*u0")


def test_monomial_division():
    a = P("w1^2*w1'").leading_monomial()
    b = P("w1*w1'").leading_monomial()
    assert b.divides(a)
    assert a / b == Monomial.of(w(1))


def test_parameter_constructors_refuse_indices_beyond_the_stride():
    assert [g.token() for g in (alpha(99), beta(0), gamma(99))] == ["alpha99", "beta0", "gamma99"]
    assert alpha(99) < beta(0) < beta(99) < gamma(0)
    for ctor, k in ((alpha, 100), (beta, 250), (gamma, 100), (beta, -1)):
        with pytest.raises(ValueError, match="out of range"):
            ctor(k)


def test_pow():
    p = P("w1 + 1")
    assert p**0 == DiffPoly.constant(2, 1)
    assert p**3 == p * p * p


def _reference_compare(a, b, n):
    """The graded order spelled out: weight first, then, walking the union
    of both generator sets in ascending order, the first differing
    exponent decides and the higher one wins."""
    wa = sum(e * g.weight(n) for g, e in a.exps)
    wb = sum(e * g.weight(n) for g, e in b.exps)
    if wa != wb:
        return -1 if wa < wb else 1
    da, db = dict(a.exps), dict(b.exps)
    for g in sorted(set(da) | set(db)):
        ea, eb = da.get(g, 0), db.get(g, 0)
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


def _reference_product(a, b):
    """The general double loop over both operands' terms."""
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = ma * mb
            s = out.get(m, Fraction(0)) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return DiffPoly(a.n, out)


def _generator_pool(n):
    pool = [Generator(f, k, d) for f in (Family.W, Family.U) for k in range(n) for d in range(3)]
    pool += [vplus(d) for d in range(3)] + [vminus(d) for d in range(3)]
    pool += [c(k) for k in range(3)] + [alpha(0), alpha(1), beta(0), gamma(2)]
    return pool


def _random_monomials(rng, n, count):
    pool = _generator_pool(n)
    out = [Monomial.unit()]
    for _ in range(count):
        gens = rng.sample(pool, rng.randint(1, 4))
        out.append(Monomial((g, rng.randint(1, 3)) for g in gens))
    return out


@pytest.mark.parametrize("n", [2, 4, 7, 9])
def test_sort_key_is_the_reference_order(n):
    rng = random.Random(n)
    monos = _random_monomials(rng, n, 400)
    families = {g.family for m in monos for g in m.generators()}
    assert families == set(Family)
    # equal weights with different factors, so the tie-break is exercised
    assert len({m.weight(n) for m in monos}) < len(set(monos)) // 4
    want = sorted(monos, key=cmp_to_key(lambda a, b: _reference_compare(a, b, n)))
    assert sorted(monos, key=monomial_sort_key(n)) == want
    assert sorted(monos, key=monomial_sort_key(n), reverse=True) == sorted(
        monos, key=cmp_to_key(lambda a, b: _reference_compare(a, b, n)), reverse=True
    )
    key = monomial_sort_key(n)
    for a, b in zip(monos, monos[1:] + monos[:1]):
        assert (key(a) > key(b)) - (key(a) < key(b)) == _reference_compare(a, b, n)


@pytest.mark.parametrize("n", [2, 4, 7, 9])
def test_monomial_weight_is_the_sum_of_generator_weights(n):
    rng = random.Random(100 + n)
    monos = _random_monomials(rng, n, 200)
    # products and derivatives are built without the constructor's pass
    monos += [a * b for a, b in zip(monos, reversed(monos))]
    monos += [m for a in monos[:60] for m in DiffPoly.monomial(n, a).derive().terms]
    for m in monos:
        assert m.weight(n) == sum(e * g.weight(n) for g, e in m.exps)
        assert m == Monomial(m.exps)


def test_single_term_products_match_the_general_product():
    rng = random.Random(7)
    n = 4
    monos = _random_monomials(rng, n, 60)
    for _ in range(200):
        many = DiffPoly(
            n, {m: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for m in rng.sample(monos, 6)}
        )
        coeff = rng.choice([Fraction(1), Fraction(-3, 2), Fraction(2)])
        one = DiffPoly.monomial(n, rng.choice(monos), coeff)
        for a, b in ((many, one), (one, many)):
            got, want = a * b, _reference_product(a, b)
            assert got == want
            assert list(got.terms.items()) == list(want.terms.items())


def test_derive_stops_once_the_polynomial_is_zero(monkeypatch):
    from nfoldsusy import diffring

    calls = []
    leibniz = diffring._leibniz_terms

    def counted(terms, cap):
        calls.append(len(terms))
        return leibniz(terms, cap)

    monkeypatch.setattr(diffring, "_leibniz_terms", counted)
    assert parse("D^5000(C1)", 2).is_zero()
    assert len(calls) <= 1
