import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from nfoldsusy import (
    AmbientMismatchError,
    DerivOrderError,
    DiffPoly,
    InhomogeneousError,
    Monomial,
    Substitution,
    ZeroPolynomialError,
    parse,
    replace_constants,
)
from nfoldsusy.config import max_deriv_order
from nfoldsusy.formatting import format_poly, poly_from_dict, poly_to_dict, poly_to_json
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


def test_monomial_refuses_a_repeated_generator():
    with pytest.raises(ValueError, match="repeated generator w1"):
        Monomial([(w(1), 1), (w(1), 2)])
    with pytest.raises(ValueError, match="negative exponent"):
        Monomial([(w(1), -1)])
    # a zero exponent is dropped, not counted as a repeat
    assert Monomial([(w(1), 0), (w(1), 3)]) == Monomial.of(w(1), 3)


# -- the kernel against a dict-and-sorted reference --------------------------
#
# The reference works on plain factor tuples and insertion-ordered dicts,
# with no call into ``Monomial`` arithmetic: a product merges the factors
# in a dict and sorts them, a derivative copies the factors into a dict and
# moves one unit of exponent one order up.  Sums add into one dict, drop
# what cancels and re-insert it at the end, as ``DiffPoly`` does.

def _ref_accumulate(out, exps, q):
    if exps not in out:
        out[exps] = q
    elif out[exps] + q:
        out[exps] = out[exps] + q
    else:
        del out[exps]


def _ref_monomial_product(a, b):
    merged = dict(a)
    for g, e in b:
        merged[g] = merged.get(g, 0) + e
    return tuple(sorted(merged.items()))


def _ref_product(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _ref_accumulate(out, _ref_monomial_product(ma, mb), ca * cb)
    return out


def _ref_power(p, k):
    out, base = {(): Fraction(1)}, p
    while k:
        if k & 1:
            out = _ref_product(out, base)
        base = _ref_product(base, base) if k > 1 else base
        k >>= 1
    return out


def _ref_derive(p, times=1):
    for _ in range(times):
        out = {}
        for mono, coeff in p.items():
            for gen, e in mono:
                if gen.is_constant():
                    continue
                dgen = Generator(gen.family, gen.index, gen.deriv + 1)
                bumped = dict(mono)
                bumped[gen] -= 1
                if not bumped[gen]:
                    del bumped[gen]
                bumped[dgen] = bumped.get(dgen, 0) + 1
                _ref_accumulate(out, tuple(sorted(bumped.items())), coeff * e)
        p = out
    return p


def _ref_substitute(p, images):
    """images maps base generators to reference polynomials."""
    out = {}
    for mono, coeff in p.items():
        acc = {(): coeff}
        for gen, e in mono:
            img = images.get(gen.base())
            img = _ref_derive(img, gen.deriv) if img is not None else {((gen, 1),): Fraction(1)}
            acc = _ref_product(acc, _ref_power(img, e))
        for m, q in acc.items():
            _ref_accumulate(out, m, q)
    return out


def _as_ref(poly):
    return {m.exps: q for m, q in poly.terms.items()}


def _from_ref(n, ref):
    return DiffPoly(n, {Monomial(exps): q for exps, q in ref.items()})


def _assert_matches(poly, ref, n):
    """Same terms in the same insertion order, and every monomial sound."""
    assert [(m.exps, q) for m, q in poly.terms.items()] == list(ref.items())
    for m in poly.terms:
        gens = [g for g, _ in m.exps]
        assert all(a < b for a, b in zip(gens, gens[1:])), m.exps
        assert all(e > 0 for _, e in m.exps)
        assert hash(m) == hash(m.exps)
        wn = sum(e * (g.weight(1) - g.weight(0)) for g, e in m.exps)
        w0 = sum(e * g.weight(0) for g, e in m.exps)
        assert (m._wn, m._w0) == (wn, w0)
        assert m.weight(n) == wn * n + w0


_ADJACENT = (
    "w1*w1'", "w1^2*w1'", "w1'*w1''", "w1^3*w1'^2*w1''", "w0*w1'*w1''^2",
    "C1*w1*w1'", "alpha0*beta1*w0'^2", "C0^2*gamma2", "1", "u0'*V+*V+'",
)


def _kernel_monomials(rng, n, count):
    fixed = [parse(s, n).leading_monomial() for s in _ADJACENT]
    return fixed + _random_monomials(rng, n, count)


def _random_ref_poly(rng, monos, size):
    return {m.exps: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for m in rng.sample(monos, size)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monomial_products_match_the_reference(seed):
    rng = random.Random(200 + seed)
    n = 4
    monos = _kernel_monomials(rng, n, 80)
    pairs = [(a, b) for a in monos[: len(_ADJACENT)] for b in monos[: len(_ADJACENT)]]
    pairs += [(rng.choice(monos), rng.choice(monos)) for _ in range(400)]
    for a, b in pairs:
        got = a * b
        assert got.exps == _ref_monomial_product(a.exps, b.exps)
        _assert_matches(DiffPoly.monomial(n, got), {got.exps: Fraction(1)}, n)


def test_single_term_products_match_the_general_product():
    rng = random.Random(7)
    n = 4
    monos = _kernel_monomials(rng, n, 60)
    for _ in range(200):
        many = _random_ref_poly(rng, monos, 6)
        coeff = rng.choice([Fraction(1), Fraction(-3, 2), Fraction(2)])
        one = {rng.choice(monos).exps: coeff}
        for a, b in ((many, one), (one, many)):
            _assert_matches(_from_ref(n, a) * _from_ref(n, b), _ref_product(a, b), n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_many_term_products_and_powers_match_the_reference(seed):
    rng = random.Random(300 + seed)
    n = 4
    monos = _kernel_monomials(rng, n, 60)
    for _ in range(60):
        a = _random_ref_poly(rng, monos, rng.randint(2, 5))
        b = _random_ref_poly(rng, monos, rng.randint(2, 5))
        pa, pb = _from_ref(n, a), _from_ref(n, b)
        _assert_matches(pa * pb, _ref_product(a, b), n)
        _assert_matches(pb * pa, _ref_product(b, a), n)
        for k in range(5):
            _assert_matches(pa**k, _ref_power(a, k), n)
    # a cancelling product re-inserts the cancelled monomial at the end
    p, q = parse("w1 + w0", n), parse("w1 - w0 + w1'", n)
    _assert_matches(p * q, _ref_product(_as_ref(p), _as_ref(q)), n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_derive_matches_the_reference(seed):
    rng = random.Random(400 + seed)
    n = 5
    monos = _kernel_monomials(rng, n, 80)
    for m in monos:
        _assert_matches(DiffPoly.monomial(n, m).derive(), _ref_derive({m.exps: Fraction(1)}), n)
    for _ in range(60):
        a = _random_ref_poly(rng, monos, rng.randint(1, 6))
        times = rng.randint(1, 3)
        _assert_matches(_from_ref(n, a).derive(times), _ref_derive(a, times), n)


def test_derive_at_the_cap_raises():
    n, cap = 3, max_deriv_order()
    at_cap, below = "w1" + "'" * cap, "w1" + "'" * (cap - 1)
    for text in (at_cap, f"w0*w1'*{at_cap}", f"C1*{at_cap}^2", f"{below}*{at_cap}"):
        with pytest.raises(DerivOrderError):
            parse(text, n).derive()
    # one order below the cap derives, onto the cap
    _assert_matches(parse(below, n).derive(), {((w(1, cap), 1),): Fraction(1)}, n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_substitution_apply_matches_the_reference(seed):
    rng = random.Random(500 + seed)
    n = 4
    monos = [m for m in _kernel_monomials(rng, n, 60) if m.max_deriv() <= 2]
    sub_images = {
        w(0): parse("u0 + 1/2*w1' - alpha0*w1^2", n),
        w(2): parse("w3'' - 3*w3*w1 + C1", n),
        c(1): parse("alpha1*C0^2 + 2", n),
    }
    sub = Substitution(n, sub_images)
    ref_images = {g: _as_ref(p) for g, p in sub_images.items()}
    for _ in range(40):
        a = _random_ref_poly(rng, monos, rng.randint(1, 4))
        _assert_matches(sub.apply(_from_ref(n, a)), _ref_substitute(a, ref_images), n)


# -- the coefficient domain ----------------------------------------------------
#
# A coefficient is an ``int`` when it entered as a whole number, else a
# ``Fraction``; never a float or a bool.  Values and insertion order are
# checked against the all-``Fraction`` reference above.

def _assert_domain(poly, whole):
    """Every coefficient an int or a Fraction (no float, no bool), and an int
    throughout when whole-number inputs made the polynomial."""
    for q in poly.terms.values():
        assert type(q) in ((int,) if whole else (int, Fraction)), (q, type(q))


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for m, q in b.items():
        _ref_accumulate(out, m, sign * q)
    return out


def _whole_ref_poly(rng, monos, size):
    return {m.exps: Fraction(rng.randint(-4, 4) or 1) for m in rng.sample(monos, size)}


_WHOLE_IMAGES = {
    w(0): "u0 + 2*w1' - 3*alpha0*w1^2",
    w(2): "w3'' - 3*w3*w1 + C1",
    c(1): "alpha1*C0^2 + 6/3",
}
_MIXED_IMAGES = {
    w(0): "u0 + 1/2*w1' - alpha0*w1^2",
    w(2): "w3'' - 3*w3*w1 + C1",
    c(1): "alpha1*C0^2 + 2/3",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("whole", [True, False])
def test_coefficients_are_ints_for_whole_numbers_and_match_the_fraction_reference(seed, whole):
    rng = random.Random(600 + seed)
    n = 4
    monos = [m for m in _kernel_monomials(rng, n, 60) if m.max_deriv() <= 2]
    make = _whole_ref_poly if whole else _random_ref_poly
    images = {g: parse(s, n) for g, s in (_WHOLE_IMAGES if whole else _MIXED_IMAGES).items()}
    ref_images = {g: {e: Fraction(q) for e, q in _as_ref(p).items()} for g, p in images.items()}
    sub = Substitution(n, images)
    constants = {g: p for g, p in images.items() if g.is_constant()}
    ref_constants = {g: ref_images[g] for g in constants}
    for _ in range(30):
        a = make(rng, monos, rng.randint(1, 5))
        b = make(rng, monos, rng.randint(1, 5))
        pa, pb = _from_ref(n, a), _from_ref(n, b)
        _assert_domain(pa, whole)
        k, times = rng.randint(0, 3), rng.randint(1, 2)
        for got, ref in (
            (pa + pb, _ref_sum(a, b)),
            (pa - pb, _ref_sum(a, b, -1)),
            (pa * pb, _ref_product(a, b)),
            (pa**k, _ref_power(a, k)),
            (pa.derive(times), _ref_derive(a, times)),
            (sub.apply(pa), _ref_substitute(a, ref_images)),
            (replace_constants(pa, constants), _ref_substitute(a, ref_constants)),
        ):
            _assert_domain(got, whole)
            _assert_matches(got, ref, n)


def test_entry_points_normalise_whole_numbers_to_ints():
    n = 3
    p = parse("2*w1 + 6/3*w0 - 1/2*w2 + D(3*w1^2) + 4/2", n)
    assert {str(m): (type(q), q) for m, q in p.terms.items()} == {
        "w1": (int, 2), "w0": (int, 2), "w2": (Fraction, Fraction(-1, 2)),
        "w1*w1'": (int, 6), "1": (int, 2),
    }
    q = poly_from_dict({"ambientN": n, "terms": [
        {"monomial": [["w1", 1]], "coeff": "4/2"},
        {"monomial": [["w0", 2]], "coeff": -3},
        {"monomial": [], "coeff": "1/3"},
    ]})
    assert [(type(c), c) for c in q.terms.values()] == [
        (int, 2), (int, -3), (Fraction, Fraction(1, 3))
    ]
    m = Monomial.of(w(1))
    for whole in (True, Fraction(7, 7), Fraction(-8, 4)):
        for poly in (DiffPoly(n, {m: whole}), DiffPoly.monomial(n, m, whole),
                     DiffPoly.constant(n, whole), P("w1", n) * whole, whole * P("w1", n)):
            _assert_domain(poly, True)
    assert type(DiffPoly.zero(n).coefficient(m)) is int


def test_floats_are_refused():
    n = 2
    m = Monomial.of(w(1))
    p = P("w1 + 1/2*w0", n)
    for make in (lambda: DiffPoly(n, {m: 0.5}), lambda: DiffPoly.monomial(n, m, 2.0),
                 lambda: p * 0.5, lambda: 0.5 * p, lambda: p + 1.0):
        with pytest.raises(TypeError):
            make()


def test_a_whole_number_fraction_renders_as_the_int():
    n = 3
    # Fraction arithmetic gives whole-number Fractions, which stay Fractions
    via_fractions = P("-1/2*w1^2 + 3/2 - 1/4*w0 + 1/4*w2'", n) * 4
    assert all(type(q) is Fraction for q in via_fractions.terms.values())
    as_ints = P("-2*w1^2 + 6 - w0 + w2'", n)
    assert all(type(q) is int for q in as_ints.terms.values())
    assert via_fractions == as_ints and hash(via_fractions) == hash(as_ints)
    for render in (format_poly, lambda p: format_poly(p, "latex"), poly_to_json,
                   lambda p: repr(poly_to_dict(p))):
        assert render(via_fractions).encode() == render(as_ints).encode()
    two = DiffPoly._tidy(n, {Monomial.unit(): 2})
    four_halves = DiffPoly._tidy(n, {Monomial.unit(): Fraction(4, 2)})
    for style in ("plain", "latex"):
        assert format_poly(two, style) == format_poly(four_halves, style) == "2"
    assert poly_to_dict(two) == poly_to_dict(four_halves)
