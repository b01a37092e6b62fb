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
A term folds its numbers and generators into one coefficient and exponent
map; ring arithmetic starts at its first parenthesised or ``D(...)`` factor.
Generator tokens go through one bounded memo, ``_known_generator``, which
``formatting.poly_from_dict`` shares.
Parentheses and ``D(...)`` nest at most ``MAX_NESTING`` deep, a power or a
product is refused when its result could exceed ``MAX_TERMS`` terms, and
a number, and each numerator, denominator and exponent of a result, has
at most ``MAX_DIGITS`` digits.  Digits and whitespace are ASCII: ``int`` would
read other scripts' digits as aliases.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Iterable

from .config import max_deriv_order
from .diffring import (
    DerivOrderError,
    DiffPoly,
    Family,
    Generator,
    Monomial,
    Scalar,
    _accumulate,
    _as_coefficient,
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
  | (?P<bad>.)
    """,
    re.VERBOSE | re.ASCII | re.DOTALL,
)
_LONG_DIGITS = re.compile(r"\d{%d}" % (MAX_DIGITS + 1), re.ASCII)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, tok, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", pos)
        if len(tok) > MAX_DIGITS and _LONG_DIGITS.search(tok):
            raise ParseError(f"a number longer than MAX_DIGITS = {MAX_DIGITS} digits", pos)
    return [t for t in tokens if t[0] != "ws"] + [("end", "", len(text))]


def _lookup_generator(tok: str, pos: int, cap: int, n: int) -> Generator:
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


_known_generator = lru_cache(maxsize=2048)(lambda tok, n, cap: _lookup_generator(tok, 0, cap, n))


def _generator_from_token(tok: str, pos: int, cap: int, n: int) -> Generator:
    """``_lookup_generator`` memoized on (token, N, cap); a refusal is not kept."""
    try:
        return _known_generator(tok, n, cap)
    except ParseError:
        return _lookup_generator(tok, pos, cap, n)


def _check_digits(coeffs: Iterable[Scalar], pos: int, monomials: Iterable[Monomial] = ()) -> None:
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

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.tokens[self.i]
        if kind == "op" and val == op:
            self.i += 1
            return
        raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos, (op,))

    def parse(self) -> DiffPoly:
        poly = self.expr()
        _check_digits(poly.terms.values(), 0, poly.terms)
        kind, val, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos, ("end of input",))
        return poly

    def expr(self) -> DiffPoly:
        out = dict(self.term().terms)
        while True:
            kind, val, pos = self.tokens[self.i]
            if kind == "op" and val in "+-":
                self.i += 1
                rhs = self.term()
                _accumulate(out, (rhs if val == "+" else -rhs).terms.items())
                _check_digits((out.get(m, 0) for m in rhs.terms), pos)
            else:
                return DiffPoly._tidy(self.n, out)

    def term(self) -> DiffPoly:
        """Numbers and generators fold into ``coef`` and ``exps`` until a
        polynomial factor; from there each factor multiplies the polynomial."""
        coef, exps, poly, pos = 1, {}, None, None
        while True:
            f = self.factor()
            if poly is None and type(f) is tuple:
                c, gen, e = f
                coef *= c
                if gen is not None:
                    e = exps[gen] = exps.get(gen, 0) + e
                if pos is not None and coef:  # the other exponents passed at their own factors
                    _check_digits((coef,), pos, (Monomial.of(gen, e),) if e >= _TOO_LONG else ())
            else:
                rhs = f if type(f) is DiffPoly else self.single(f[0], {f[1]: f[2]} if f[1] else {})
                if pos is not None:
                    poly = self.single(coef, exps) if poly is None else poly
                    if len(poly.terms) * len(rhs.terms) > MAX_TERMS:
                        raise ParseError(
                            f"product of a {len(poly.terms)}-term and a {len(rhs.terms)}-term "
                            f"expression could exceed the budget of MAX_TERMS = {MAX_TERMS} terms",
                            pos,
                        )
                    rhs = poly * rhs
                    _check_digits(rhs.terms.values(), pos, rhs.terms)
                poly = rhs
            kind, val, pos = self.tokens[self.i]
            if kind != "op" or val != "*":
                return self.single(coef, exps) if poly is None else poly
            self.i += 1

    def single(self, coef: Scalar, exps: dict[Generator, int]) -> DiffPoly:
        """The one term ``coef * prod(g^e for g, e in exps)``, or zero."""
        return DiffPoly._tidy(self.n, {Monomial(exps.items()): coef} if coef else {})

    def factor(self) -> DiffPoly | tuple[Scalar, Generator | None, int]:
        """A polynomial, or (coefficient, generator or None, exponent) for a number or generator."""
        sign = 1
        while True:
            kind, val, _ = self.tokens[self.i]
            if kind == "op" and val in "+-":
                self.i += 1
                if val == "-":
                    sign = -sign
            else:
                break
        f = self.atom()
        kind, val, pos = self.tokens[self.i]
        if kind == "op" and val == "^":
            kind, val, pos = self.tokens[self.i + 1]
            self.i += 2
            if kind != "int":
                raise ParseError("power must be a positive integer", pos, ("integer",))
            exp = int(val)
            if exp < 1:
                raise ParseError("power must be a positive integer", pos)
            ring = type(f) is DiffPoly
            coeffs = f.terms.values() if ring else (f[0],)
            t = len(coeffs)
            # For t >= 2 the bound is at least e + 1, so a larger e is out
            # before the binomial is computed.
            if t > 1 and (exp >= MAX_TERMS or comb(t + exp - 1, exp) > MAX_TERMS):
                raise ParseError(
                    f"power {exp} of a {t}-term expression could exceed the "
                    f"budget of MAX_TERMS = {MAX_TERMS} terms",
                    pos,
                )
            # numerators <= s^exp, denominators <= d^exp (equal for one term), s/d = sum |q|
            d = lcm(*(q.denominator for q in coeffs))
            s = sum(abs(q.numerator) * (d // q.denominator) for q in coeffs)
            if exp * (max(s, d).bit_length() - 1) >= _TOO_LONG.bit_length():
                raise ParseError(f"power {exp} could exceed MAX_DIGITS = {MAX_DIGITS} digits", pos)
            # A generator's exponent is one token, of at most MAX_DIGITS digits.
            f = f**exp if ring else (f[0] ** exp, f[1], exp)
            _check_digits((), pos, f.terms if ring else ())
        return f if sign > 0 else -f if type(f) is DiffPoly else (-f[0], *f[1:])

    def atom(self) -> DiffPoly | tuple[Scalar, Generator | None, int]:
        kind, val, pos = self.tokens[self.i]
        self.i += 1
        if kind == "int":
            num = int(val)
            kind2, val2, _ = self.tokens[self.i]
            if kind2 == "op" and val2 == "/":
                kind3, val3, pos3 = self.tokens[self.i + 1]
                self.i += 2
                if kind3 != "int":
                    raise ParseError("denominator must be an integer", pos3, ("integer",))
                den = int(val3)
                if den == 0:
                    raise ParseError("zero denominator", pos3)
                return _as_coefficient(Fraction(num, den)), None, 1
            return num, None, 1
        if kind in ("name", "vgen"):
            return 1, _generator_from_token(val, pos, self.cap, self.n), 1
        if kind == "dfunc":
            return self.nested(pos).derive(int(val[2:-1]) if "^" in val else 1)
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
