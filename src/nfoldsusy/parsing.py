"""Recursive-descent parser for the expression grammar.

Grammar (UTF-8 text):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := ('-' | '+')* atom ('^' INT)?
    atom     := INT ('/' INT)? | generator | 'D' ['^' INT] '(' expr ')'
              | '(' expr ')'

Generators: ``w<k>`` and ``u<k>`` for k < N, ``V+``, ``V-``, ``C<k>``,
``alpha<k>``, ``beta<k>``, ``gamma<k>`` for k < 100; a derivative is
written with trailing apostrophes (``w1''``) or via ``D^m(...)`` applied
to any subexpression.
Parentheses and ``D(...)`` nest at most ``MAX_NESTING`` deep, a power or a
product is refused when its result could exceed ``MAX_TERMS`` terms, and
a number, and each numerator, denominator and exponent of a result, has
at most ``MAX_DIGITS`` digits.  Digits and whitespace are ASCII: ``int`` would
read other scripts' digits as aliases.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm
from typing import Iterable

from .config import max_deriv_order
from .diffring import (
    DerivOrderError,
    DiffPoly,
    Family,
    Generator,
    Monomial,
    _accumulate,
    is_index,
    param_by_name,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{hint}")


class DerivCapError(ParseError, DerivOrderError):
    """Primes beyond the derivative cap: a parse error that carries its
    position, and the same cap violation that ``D^m(...)`` raises."""


# Each level of nesting costs four stack frames of the recursive descent;
# the corpus nests two deep.
MAX_NESTING = 100

# A power of a t-term polynomial to the e has at most C(t+e-1, e) terms,
# and squaring its way there costs about the square of that; the corpus
# needs at most 78 for a power and 11 for a product.
MAX_TERMS = 500

# CPython's default limit on int() and str() of a decimal string
# (sys.get_int_max_str_digits): longer tokens and coefficients are refused.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS


_TOKEN_RE = re.compile(
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
_LONG_DIGITS = re.compile(r"\d{%d}" % (MAX_DIGITS + 1), re.ASCII)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if m.end() - pos > MAX_DIGITS and _LONG_DIGITS.search(m.group()):
            raise ParseError(f"a number longer than MAX_DIGITS = {MAX_DIGITS} digits", pos)
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _generator_from_token(tok: str, pos: int, cap: int, n: int) -> Generator:
    """The generator a token names in ambient N = ``n``.  ``w<k>`` and
    ``u<k>`` exist for k < n only: w_k has weight n - k, so a larger k
    would give a generator of nonpositive weight.  ``C<k>`` has weight
    2(k + 1) > 0 for every k and is not bounded."""
    primes = len(tok) - len(tok.rstrip("'"))
    stem = tok[: len(tok) - primes]
    if primes > cap:
        raise DerivCapError(f"derivative order {primes} exceeds the configured cap", pos)
    if stem == "V+":
        return Generator(Family.VPLUS, 0, primes)
    if stem == "V-":
        return Generator(Family.VMINUS, 0, primes)
    head = stem[:1]
    if head in ("w", "u") and is_index(stem[1:]):
        index = int(stem[1:])
        if index >= n:
            raise ParseError(f"generator {stem} does not exist at N = {n} (needs k < N)", pos)
        return Generator(Family.W if head == "w" else Family.U, index, primes)
    if head == "C" and is_index(stem[1:]):
        if primes:
            raise ParseError("constants cannot carry derivatives", pos)
        return Generator(Family.C, int(stem[1:]), 0)
    if primes:
        raise ParseError("parameters cannot carry derivatives", pos)
    try:
        return param_by_name(stem)
    except ValueError as exc:
        raise ParseError(str(exc), pos, ("generator",)) from None


def _check_digits(
    coeffs: Iterable[int | Fraction], pos: int, monomials: Iterable[Monomial] = ()
) -> None:
    """Refuse a numerator or denominator, or an exponent in ``monomials``,
    of more than ``MAX_DIGITS`` digits."""
    for q in coeffs:
        if abs(q.numerator) >= _TOO_LONG or q.denominator >= _TOO_LONG:
            raise ParseError(f"a coefficient longer than MAX_DIGITS = {MAX_DIGITS} digits", pos)
    for m in monomials:
        for _, e in m.exps:
            if e >= _TOO_LONG:
                raise ParseError(f"an exponent longer than MAX_DIGITS = {MAX_DIGITS} digits", pos)


class _Parser:
    def __init__(self, text: str, n: int):
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.cap = max_deriv_order()

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind == "op" and val == op:
            self.i += 1
            return
        raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos, (op,))

    def parse(self) -> DiffPoly:
        poly = self.expr()
        _check_digits(poly.terms.values(), 0, poly.terms)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos, ("end of input",))
        return poly

    def expr(self) -> DiffPoly:
        out = dict(self.term().terms)
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.i += 1
                rhs = self.term()
                _accumulate(out, (rhs if val == "+" else -rhs).terms.items())
                _check_digits((out.get(m, 0) for m in rhs.terms), pos)
            else:
                return DiffPoly._tidy(self.n, out)

    def term(self) -> DiffPoly:
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
                _check_digits(poly.terms.values(), pos, poly.terms)
            else:
                return poly

    def factor(self) -> DiffPoly:
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
            # For t >= 2 the bound is at least e + 1, so a larger e is out
            # before the binomial is computed.
            if t > 1 and (exp >= MAX_TERMS or comb(t + exp - 1, exp) > MAX_TERMS):
                raise ParseError(
                    f"power {exp} of a {t}-term expression could exceed the "
                    f"budget of MAX_TERMS = {MAX_TERMS} terms",
                    pos,
                )
            # numerators <= s^exp, denominators <= d^exp (equal for one term), s/d = sum |q|
            d = lcm(*(q.denominator for q in poly.terms.values()))
            s = sum(abs(q.numerator) * (d // q.denominator) for q in poly.terms.values())
            if exp * (max(s, d).bit_length() - 1) >= _TOO_LONG.bit_length():
                raise ParseError(f"power {exp} could exceed MAX_DIGITS = {MAX_DIGITS} digits", pos)
            poly = poly**exp
            _check_digits((), pos, poly.terms)
        return poly * sign if sign < 0 else poly

    def atom(self) -> DiffPoly:
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
            return DiffPoly.generator(self.n, _generator_from_token(val, pos, self.cap, self.n))
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

    def nested(self, pos: int) -> DiffPoly:
        """The expression after an opening parenthesis, and its closing one."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested more than {MAX_NESTING} deep", pos)
        self.depth += 1
        inner = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return inner


def parse(text: str, n: int) -> DiffPoly:
    """Parse an expression into a polynomial with ambient N = ``n`` >= 1."""
    if n < 1:
        raise ParseError(f"ambient N = {n} is not positive", 0)
    return _Parser(text, n).parse()
