import hashlib
import json
import re
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from nfoldsusy import (DiffPoly, ParseError, format_poly, goldens, parse, parsing, poly_from_json,
                       poly_to_json)
from nfoldsusy.diffring import _accumulate
from nfoldsusy.formatting import format_monomial, poly_from_dict, poly_to_dict
from nfoldsusy.parsing import _TOO_LONG, MAX_DIGITS, MAX_NESTING, MAX_TERMS, DerivCapError


def test_zero():
    assert parse("0", 2).is_zero()


def test_rationals_and_powers():
    assert parse("3/4*w1^2", 2) == parse("w1*w1", 2) * Fraction(3, 4)
    assert parse("-w1^2", 2) == -parse("w1^2", 2)


def test_derivative_syntaxes_agree():
    assert parse("D^2(w1)", 2) == parse("w1''", 2)
    assert parse("D(w1*u0)", 2) == parse("w1'*u0 + w1*u0'", 2)


def test_all_generator_tokens():
    for token in ("w1", "u0", "V+", "V-", "C0", "alpha0", "beta2", "gamma7"):
        poly = parse(token, 4)
        assert format_poly(poly) == token


def test_prime_then_power_binds_power_to_generator():
    assert parse("w1'^2", 2) == parse("w1'*w1'", 2)


def test_sixteen_j1_example():
    p = parse("2*w1*w1'' - w1'^2 + 4*w1^2*u0", 2)
    assert p.weight() == 4
    assert len(p.terms) == 3


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as err:
        parse("w1 + ", 2)
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse("w1 + %", 2)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse("q0", 2)
    with pytest.raises(ParseError):
        parse("w1^0", 2)
    with pytest.raises(ParseError):
        parse("C1'", 2)
    with pytest.raises(ParseError):
        parse("(w1", 2)
    for text, n in (("1", 0), ("V+", -3)):
        with pytest.raises(ParseError) as err:
            parse(text, n)
        assert err.value.position == 0


def test_format_parse_round_trip_on_displays():
    samples = [
        "w1''' + 4*w1'*u0 + 2*w1*u0' - 2*4*w1^2*w1'",
        "-1/2*w1 + 3*u0 - C1 + alpha0*w1^2",
        "V+'' - V-''",
    ]
    for s in samples:
        p = parse(s, 2)
        assert parse(format_poly(p), 2) == p


def test_json_round_trip_and_stability():
    p = parse("2*w1*w1'' - w1'^2 + 4*w1^2*u0 - 3/7*C1", 2)
    blob = poly_to_json(p)
    assert poly_from_json(blob) == p
    assert poly_to_json(poly_from_json(blob)) == blob


def test_generator_indices_are_bounded_by_the_ambient_n():
    """w_k and u_k exist for k < N only; C_k has positive weight for every k."""
    for text, n, position in (("w9", 2, 0), ("w1*u2", 2, 3), ("w1 + w2'", 2, 5),
                              ("w9*w1", 2, 0), ("u3", 3, 0)):
        with pytest.raises(ParseError) as err:
            parse(text, n)
        assert err.value.position == position
    assert format_poly(parse("w1*u1 + C9", 2)) == "C9 + w1*u1"
    data = {"ambientN": 2, "terms": [{"monomial": [["w1", 1]], "coeff": "1"},
                                     {"monomial": [["u2", 1]], "coeff": "1"}]}
    with pytest.raises(ParseError) as err:
        poly_from_json(json.dumps(data))
    assert err.value.position == 1


def test_parameter_indices_are_bounded_by_the_stride():
    """alpha100 would pack to the index of beta0, and beta250 to one no
    parameter group holds."""
    for text, n, position in (("alpha100 - beta0", 2, 0), ("beta250", 3, 0),
                              ("w1 + gamma100", 2, 5)):
        with pytest.raises(ParseError, match="out of range") as err:
            parse(text, n)
        assert err.value.position == position
    assert format_poly(parse("alpha99 - beta0", 2)) == "alpha99 - beta0"
    data = {"ambientN": 2, "terms": [{"monomial": [["alpha0", 1]], "coeff": "1"},
                                     {"monomial": [["gamma100", 1]], "coeff": "1"}]}
    with pytest.raises(ParseError, match="out of range") as err:
        poly_from_json(json.dumps(data))
    assert err.value.position == 1


def test_malformed_json_raises_parse_error():
    def blob(*terms):
        return json.dumps({"ambientN": 2, "terms": [
            {"monomial": mono, "coeff": coeff} for mono, coeff in terms
        ]})

    for text in (
        blob(([["", 1]], "1")),
        blob(([["w1", 1], ["w1", 2]], "1")),
        blob(([["w1", 1]], "1"), ([["w1", 1]], "2")),
        blob(([["w1", 1]], "1/0")),
    ):
        with pytest.raises(ParseError):
            poly_from_json(text)


@pytest.mark.parametrize(
    "data",
    [
        {"ambientN": 2, "terms": [{"monomial": [["w1", -1]], "coeff": "1"}]},
        {"ambientN": 2, "terms": [{"monomial": [["w1", "2"]], "coeff": "1"}]},
        {"ambientN": 2},
        {"terms": []},
        {"ambientN": 2, "terms": [{"monomial": [["w1", 1]]}]},
        {"ambientN": 2, "terms": [{"monomial": [["w1", 1]], "coeff": 0.1}]},
        {"ambientN": 2, "terms": [{"monomial": [["w1", 0]], "coeff": "1"}]},
        {"ambientN": 2, "terms": [{"monomial": [["w1", True]], "coeff": "1"}]},
        {"ambientN": "2", "terms": [{"monomial": [["w1", 1]], "coeff": "1"}]},
        {"ambientN": "2", "terms": []},
        {"ambientN": 2, "terms": [{"monomial": [[1, 1]], "coeff": "1"}]},
        {"ambientN": 2, "terms": [{"monomial": [["w1"]], "coeff": "1"}]},
        {"ambientN": 2, "terms": [{"monomial": [["w1", 1, 2]], "coeff": "1"}]},
        {"ambientN": 2, "terms": [{"monomial": "w1", "coeff": "1"}]},
        {"ambientN": 2, "terms": {"monomial": [["w1", 1]], "coeff": "1"}},
        {"ambientN": 2, "terms": {}},
        {"ambientN": 2, "terms": ["w1"]},
        [{"ambientN": 2, "terms": []}],
        {"ambientN": 0, "terms": [{"monomial": [["w5", 1]], "coeff": "1"}]},
        {"ambientN": 2, "terms": [{"monomial": [["u2", 1]], "coeff": "1"}]},
        {"ambientN": -3, "terms": []},
        {"ambientN": 0, "terms": []},
        None,
    ],
    ids=["negative-exponent", "string-exponent", "no-terms", "no-ambientN", "no-coeff",
         "float-coefficient", "zero-exponent", "bool-exponent", "string-ambientN",
         "string-ambientN-no-terms", "int-token", "one-element-factor",
         "three-element-factor", "string-monomial", "object-terms", "empty-object-terms",
         "string-term", "top-level-list", "w-index-above-ambientN", "u-index-at-ambientN",
         "negative-ambientN", "zero-ambientN", "null"],
)
def test_malformed_json_fields_raise_parse_error(data):
    """Each input is refused at position 0: in its header or its first term."""
    with pytest.raises(ParseError) as err:
        poly_from_json(json.dumps(data))
    assert err.value.position == 0


def _with_coeff(coeff):
    """A two-term polynomial whose second coefficient is ``coeff``."""
    return {"ambientN": 2, "terms": [{"monomial": [["w1", 1]], "coeff": "1"},
                                     {"monomial": [["w0", 1]], "coeff": coeff}]}


_LONG = "9" * (MAX_DIGITS + 1)


@pytest.mark.parametrize(
    "coeff",
    ["1.5", "1e3", " 2 ", "+3", "1_0", "1e100000", "٣", _LONG, "1/" + _LONG,
     "1/0", "1/00", "", "-", "--1", "1/", "/2", "1/-2", "1/+2", "1 / 2"],
    ids=["decimal-point", "exponent", "spaces", "plus", "underscore", "huge-exponent",
         "arabic-digit", "long-numerator", "long-denominator", "zero-denominator",
         "zeros-denominator", "empty", "sign-only", "double-minus", "no-denominator",
         "no-numerator", "signed-denominator", "plus-denominator", "spaced-slash"],
)
def test_json_coefficients_outside_the_parser_grammar_are_refused(coeff):
    """A coefficient string is the parser's rational constant, with an
    optional leading ``-``: ``Fraction`` would read a decimal, an exponent,
    spaces, a plus, underscores or other scripts' digits, and ``1e100000``
    as an int of 100001 digits that ``poly_to_json`` cannot write back."""
    with pytest.raises(ParseError) as err:
        poly_from_json(json.dumps(_with_coeff(coeff)))
    assert str(err.value) == f"invalid coefficient {coeff!r} at position 1"


def test_json_coefficients_in_the_parser_grammar_are_read():
    """A signed or unreduced fraction, leading zeros, a run of MAX_DIGITS
    digits and a JSON int are read, and so is every coefficient
    ``poly_to_dict`` writes."""
    w1, w0 = parse("w1", 2), parse("w0", 2)
    for coeff, want in (("-3/4", Fraction(-3, 4)), ("2/4", Fraction(1, 2)), ("-6/3", -2),
                        ("007", 7), ("9" * MAX_DIGITS, 10**MAX_DIGITS - 1), (-5, -5)):
        assert poly_from_json(json.dumps(_with_coeff(coeff))) == w1 + w0 * want
    p = parse("2*w1*w1'' - w1'^2 - 3/7*C1 + 1/2 - 12345678901234567890/3*u1 + 10/5*u0", 2)
    data = poly_to_dict(p)
    assert {t["coeff"] for t in data["terms"]} == {
        "2", "-1", "-3/7", "1/2", "-4115226300411522630"}
    assert poly_from_dict(data) == p


def test_latex_rendering():
    p = parse("3/2*w1'^2 - alpha0*V+", 2)
    tex = format_poly(p, "latex")
    assert r"\frac{3}{2}" in tex and "(w_{1}')^{2}" in tex
    assert r"\alpha_{0}" in tex and "V^{+}" in tex
    assert format_monomial(parse("w1^2", 2).leading_monomial(), "latex") == "(w_{1})^{2}"


def test_canonical_term_order_is_weight_graded():
    p = parse("w1 + w1^2 + w1''", 2)
    rendered = format_poly(p)
    # leading (heaviest) monomial first
    assert rendered.startswith("w1^2") or rendered.startswith("w1''")
    assert rendered.split(" ")[-1] == "w1"


def test_deep_nesting_is_a_parse_error():
    for text in ("(" * 5000 + "w1" + ")" * 5000, "D(" * 5000 + "w1" + ")" * 5000):
        with pytest.raises(ParseError):
            parse(text, 2)
    assert parse("(" * 50 + "w1" + ")" * 50, 2) == parse("w1", 2)


def test_primes_beyond_the_cap_raise_the_cap_error(monkeypatch):
    from nfoldsusy import DerivOrderError

    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "2")
    for text in ("w1'''", "D^3(w1)"):
        with pytest.raises(DerivOrderError):
            parse(text, 2)


def test_powers_beyond_the_term_budget_are_parse_errors():
    from nfoldsusy.parsing import MAX_TERMS

    # (w1+w0+u0+u1)^20 would have C(23, 20) = 1771 terms
    for text in ("(w1+w0+u0+u1)^20", "(w1+w0)^100000", "(w1+w0)^" + "9" * 400,
                 "(w1+w0)^200*(u0+u1)^200"):
        with pytest.raises(ParseError, match=f"MAX_TERMS = {MAX_TERMS}"):
            parse(text, 2)
    # the largest powers of two- and three-term bases within the budget
    assert len(parse(f"(w1+w0)^{MAX_TERMS - 1}", 2).terms) == MAX_TERMS
    assert len(parse("(w1+w0+u0)^30", 2).terms) == 496
    # a one-term base never grows
    assert parse("(3*w1)^40", 2) == parse(f"{3**40}*w1^40", 2)


def test_digit_runs_beyond_int_conversion_are_parse_errors():
    from nfoldsusy.parsing import MAX_DIGITS

    digits = "9" * 5000
    for text, position in (
        (digits, 0),
        ("w" + digits, 0),
        ("(w1+w0)^" + digits, 8),
        ("D^" + digits + "(w1)", 0),
        ("1/" + digits, 2),
    ):
        with pytest.raises(ParseError, match=f"MAX_DIGITS = {MAX_DIGITS}") as info:
            parse(text, 2)
        assert info.value.position == position
    assert parse("9" * MAX_DIGITS, 2) == 10**MAX_DIGITS - 1


@pytest.mark.parametrize("text, position", [
    ("١٢*w1", 0),
    ("w١", 0),
    ("alpha١ - alpha1", 0),
    ("alpha²", 0),
    ("w1 + C²", 5),
    ("3*w0 - ٣*w0", 7),
    ("(w1+w0)^٢", 8),
])
def test_non_ascii_digits_are_parse_errors(text, position):
    """Indices, numbers and powers are ASCII digits: other scripts' digits
    are neither aliases of them nor ``int()`` failures."""
    with pytest.raises(ParseError) as err:
        parse(text, 3)
    assert err.value.position == position


@pytest.mark.parametrize("token", ["C²", "w²", "alpha²", "u١", "C١", "beta٣"])
def test_non_ascii_digits_in_json_tokens_are_parse_errors(token):
    data = {"ambientN": 3, "terms": [{"monomial": [["w1", 1]], "coeff": "1"},
                                     {"monomial": [[token, 1]], "coeff": "1"}]}
    with pytest.raises(ParseError, match="unknown generator") as err:
        poly_from_json(json.dumps(data))
    assert err.value.position == 1


_TOO_LONG_CALLS = {
    "one-term-power": 'parse("9" * 100 + "^100000", 2)',
    "product": "parse('9' * 4300 + '*' + '9' * 4300 + '*w1', 2)",
    "json-int": 'poly_from_dict({"ambientN": 2, "terms": '
                '[{"monomial": [["w1", 1]], "coeff": 10**5000}]})',
    "power-of-power-exponent": "parse('(w1^' + '9' * 3000 + ')^' + '9' * 3000, 2)",
    "product-exponent": "parse('w1^' + '9' * 4300 + ' * w1^' + '9' * 4300, 2)",
    "json-exponent": 'poly_from_dict({"ambientN": 2, "terms": '
                     '[{"monomial": [["w1", 10**5000]], "coeff": 1}]})',
    "json-negative-exponent": 'poly_from_dict({"ambientN": 2, "terms": '
                              '[{"monomial": [["w1", -10**5000]], "coeff": 1}]})',
}


@pytest.mark.parametrize("call", list(_TOO_LONG_CALLS.values()), ids=list(_TOO_LONG_CALLS))
def test_coefficients_past_max_digits_are_refused_at_once(call):
    """Each reader refuses a coefficient or an exponent that ``str()`` could
    not write, and refuses a power of such a coefficient in time, before
    computing it.  Run in a fresh interpreter under a timeout, since no
    signal interrupts one big integer power."""
    import os
    import subprocess
    import sys

    import nfoldsusy

    code = ("from nfoldsusy import ParseError, parse\n"
            "from nfoldsusy.formatting import poly_from_dict\n"
            f"try:\n    {call}\nexcept ParseError as exc:\n    print(exc)\n")
    src = os.path.dirname(os.path.dirname(nfoldsusy.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert f"MAX_DIGITS = {MAX_DIGITS} digits at position" in proc.stdout, proc.stderr


def test_coefficients_up_to_max_digits_are_read():
    """Results of at most MAX_DIGITS digits are read, however they are made,
    and one digit more is refused at the product or sum that makes it, or
    at position 0 when the expression as a whole holds it."""
    assert len(str(parse("3^9000*w1", 2).leading_coefficient())) == 4295
    assert parse("(1/3)^9000", 2) == Fraction(1, 3**9000)
    assert parse("2^14000 - 2^14000", 2).is_zero()
    widest = parse("w1^" + "9" * MAX_DIGITS, 2)
    assert poly_from_json(poly_to_json(widest)) == widest
    sums = "w1 + (" + "9" * MAX_DIGITS + " + 1)"
    for text, position in (("w1 + 3^9020*w1", 11), ("w1*w0*3^9020", 5), ("3^9020", 0),
                           (sums, sums.index(" + 1") + 1),
                           ("D^3(" + "9" * MAX_DIGITS + "*w1^9)", 0)):
        with pytest.raises(ParseError, match=f"MAX_DIGITS = {MAX_DIGITS}") as err:
            parse(text, 2)
        assert err.value.position == position


# -- the term reader against the factor-by-factor ring product -------------------

_REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<vgen>V[+-]'*)
  | (?P<dfunc>D(?:\^\d+)?\()
  | (?P<name>(?:w|u|C|alpha|beta|gamma)\d+'*)
  | (?P<int>\d+)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE | re.ASCII,
)


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if m.end() - pos > MAX_DIGITS and parsing._LONG_DIGITS.search(m.group()):
            raise ParseError(f"a number longer than MAX_DIGITS = {MAX_DIGITS} digits", pos)
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ReferenceParser:
    """The parser that made every factor a one-term polynomial and built
    each term by ``DiffPoly.__mul__``, factor by factor, before terms read
    their monomial factors into one coefficient and exponent map."""

    def __init__(self, text, n):
        from nfoldsusy.config import max_deriv_order

        self.n = n
        self.tokens = _reference_tokenize(text)
        self.i = 0
        self.depth = 0
        self.cap = max_deriv_order()

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind == "op" and val == op:
            self.i += 1
            return
        raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos, (op,))

    def parse(self):
        poly = self.expr()
        parsing._check_digits(poly.terms.values(), 0, poly.terms)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos, ("end of input",))
        return poly

    def expr(self):
        out = dict(self.term().terms)
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.i += 1
                rhs = self.term()
                _accumulate(out, (rhs if val == "+" else -rhs).terms.items())
                parsing._check_digits((out.get(m, 0) for m in rhs.terms), pos)
            else:
                return DiffPoly._tidy(self.n, out)

    def term(self):
        poly = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.i += 1
                rhs = self.factor()
                if len(poly.terms) * len(rhs.terms) > MAX_TERMS:
                    raise ParseError(
                        f"product of a {len(poly.terms)}-term and a {len(rhs.terms)}-term "
                        f"expression could exceed the budget of MAX_TERMS = {MAX_TERMS} terms",
                        pos,
                    )
                poly = poly * rhs
                parsing._check_digits(poly.terms.values(), pos, poly.terms)
            else:
                return poly

    def factor(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.i += 1
                if val == "-":
                    sign = -sign
            else:
                break
        poly = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.i += 1
            kind, val, pos = self.next()
            if kind != "int":
                raise ParseError("power must be a positive integer", pos, ("integer",))
            exp = int(val)
            if exp < 1:
                raise ParseError("power must be a positive integer", pos)
            t = len(poly.terms)
            if t > 1 and (exp >= MAX_TERMS or comb(t + exp - 1, exp) > MAX_TERMS):
                raise ParseError(
                    f"power {exp} of a {t}-term expression could exceed the "
                    f"budget of MAX_TERMS = {MAX_TERMS} terms",
                    pos,
                )
            d = lcm(*(q.denominator for q in poly.terms.values()))
            s = sum(abs(q.numerator) * (d // q.denominator) for q in poly.terms.values())
            if exp * (max(s, d).bit_length() - 1) >= _TOO_LONG.bit_length():
                raise ParseError(f"power {exp} could exceed MAX_DIGITS = {MAX_DIGITS} digits", pos)
            poly = poly**exp
            parsing._check_digits((), pos, poly.terms)
        return poly * sign if sign < 0 else poly

    def atom(self):
        kind, val, pos = self.next()
        if kind == "int":
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.i += 1
                kind3, val3, pos3 = self.next()
                if kind3 != "int":
                    raise ParseError("denominator must be an integer", pos3, ("integer",))
                den = int(val3)
                if den == 0:
                    raise ParseError("zero denominator", pos3)
                return DiffPoly.constant(self.n, Fraction(num, den))
            return DiffPoly.constant(self.n, num)
        if kind in ("name", "vgen"):
            gen = parsing._lookup_generator(val, pos, self.cap, self.n)
            return DiffPoly.generator(self.n, gen)
        if kind == "dfunc":
            times = 1
            if "^" in val:
                times = int(val[2:-1])
            return self.nested(pos).derive(times)
        if kind == "op" and val == "(":
            return self.nested(pos)
        raise ParseError(
            f"unexpected {val or 'end of input'!r}",
            pos,
            ("number", "generator", "("),
        )

    def nested(self, pos):
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested more than {MAX_NESTING} deep", pos)
        self.depth += 1
        inner = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return inner


def _outcome(read, text, n):
    """The terms in order with their coefficient types, or the refusal's
    type, message and position."""
    try:
        poly = read(text, n)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc), getattr(exc, "position", None)
    return [(m, q, type(q)) for m, q in poly.terms.items()]


def _assert_reads_as_reference(text, n=2):
    got = _outcome(parse, text, n)
    assert got == _outcome(lambda t, m: _ReferenceParser(t, m).parse(), text, n), text
    return got


# Refused atoms are rare, so that most strings with a dozen atoms are read.
_ATOMS = st.sampled_from(
    ["w0", "w1", "u0", "u1", "w1'", "w1''", "u0'", "V+", "V-'", "C0", "C1", "alpha0",
     "beta1", "0", "1", "2", "3", "12", "1/2", "2/4", "4/2", "0/3", "-1/3", "10/6", "1/1"] * 8
    + ["w2", "C1'", "alpha0'", "3/0", "%"]
)


def _wrap(inner):
    return st.one_of(
        st.tuples(st.sampled_from(["(", "D(", "D^2(", "-(", "D^0("]), inner).map(
            lambda p: f"{p[0]}{p[1]})"),
        st.lists(inner, min_size=2, max_size=4).map("*".join),
        st.tuples(inner, st.sampled_from([" + ", " - ", "-", "+-"]), inner).map("".join),
        st.tuples(inner, st.integers(0, 4)).map(lambda p: f"{p[0]}^{p[1]}"),
        st.tuples(st.sampled_from(["-", "--", "+", "-+"]), inner).map("".join),
    )


_GRAMMAR = st.recursive(_ATOMS, _wrap, max_leaves=12)
# Monomial factors before and after multi-term ones, the shape the term reader folds.
_SUM = st.lists(_ATOMS, min_size=2, max_size=3).map(lambda xs: "(" + " - ".join(xs) + ")")
_MIXED = st.lists(st.one_of(_ATOMS, _SUM, _SUM.map(lambda s: s + "^2")), min_size=2,
                  max_size=6).map("*".join)


@given(st.one_of(_GRAMMAR, _MIXED))
@settings(max_examples=400, deadline=None)
@example("1/2*(w0+u0)*2")
@example("1/2*2*(w0+u0)")
@example("(w0+u0)*(1/2*w1*2)")
@example("1/2*2")
@example("(w0+u0)*1/2*2")
@example("(1/2*w1*2)*w0")
@example("(w1 - w1)*w0^3*3")
@example("-2/3*w1*(w0 - w1)^2*-w1*D(w1*w0)*3/2*w1'")
def test_terms_read_as_the_factor_by_factor_ring_product(text):
    """Terms, their order and coefficient types, and every refusal's type,
    message and position, are those of the reference parser."""
    _assert_reads_as_reference(text)


_WIDE = "(" + " + ".join(f"w1^{k}" for k in range(1, MAX_TERMS + 2)) + ")"


def test_a_product_with_a_term_past_the_budget_is_refused_unless_zero():
    for text in ("w1*" + _WIDE, _WIDE + "*w1", "-3*w0*" + _WIDE, _WIDE + "*2/3"):
        got = _assert_reads_as_reference(text)
        assert got[0] is ParseError and f"MAX_TERMS = {MAX_TERMS}" in got[1], text
    for text in ("0*" + _WIDE, _WIDE + "*0", "w1*0*" + _WIDE, _WIDE + "*0/5*w1"):
        assert _assert_reads_as_reference(text) == [], text
    assert len(_assert_reads_as_reference(_WIDE)) == MAX_TERMS + 1


def test_digit_limits_inside_monomial_products_are_those_of_the_ring_product():
    nines = "9^4000*9^4000"
    half, below = "5" + "0" * (MAX_DIGITS - 1), "4" + "9" * (MAX_DIGITS - 1)
    for text, message, position in (
        (nines, "coefficient", nines.index("*")),
        (f"w0*w1^{half}*w1^{half}", "exponent", len(f"w0*w1^{half}")),
        (f"(w0 + u0)*w1^{half}*w1^{half}", "exponent", len(f"(w0 + u0)*w1^{half}")),
        (f"(w1 + u0)*w1^{half}*u1*w1^{half}", "exponent", len(f"(w1 + u0)*w1^{half}*u1")),
        ("(w0 + u0)*" + nines, "coefficient", len("(w0 + u0)*9^4000")),
    ):
        got = _assert_reads_as_reference(text)
        assert got[0] is ParseError and f"{message} longer than MAX_DIGITS" in got[1], text
        assert got[2] == position, text
    for text in (f"w1^{below}*w1^{below}", f"(w0 + u0)*w1^{below}*w1^{below}",
                 "0*" + nines, "9^4000*0*9^4000", f"(w1 - w1)*w1^{half}*w1^{half}"):
        assert isinstance(_assert_reads_as_reference(text), list), text


def test_a_lower_cap_still_refuses_primes_read_under_a_higher_one(monkeypatch):
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "4")
    assert parse("w1''''", 2) == DiffPoly.generator(2, parsing._lookup_generator("w1''''", 0, 4, 2))
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "2")
    for text, position in (("w1''''", 0), ("w0 + w1''''", 5)):
        with pytest.raises(DerivCapError) as err:
            parse(text, 2)
        assert err.value.position == position
    for text, position in (("w5", 0), ("w1*w5", 3), ("w5", 0)):
        with pytest.raises(ParseError) as err:
            parse(text, 2)
        assert err.value.position == position


def test_the_generator_memo_is_bounded():
    maxsize = parsing._known_generator.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


@pytest.mark.pin
def test_the_corpus_parses_to_the_pinned_terms():
    """Every corpus expression's terms, in order, with coefficient types."""
    rows = [(text, e.n, list(parse(text, e.n).terms.items()))
            for e in goldens.corpus().values() for text in e.expressions()]
    assert len(rows) == 242
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "2679a15861bc6c60236cd386877e273e5411e4cdf2d9cd9fa933fdf9ab373963")
