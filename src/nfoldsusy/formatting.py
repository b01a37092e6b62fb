"""Deterministic rendering of polynomials and operators.

``plain`` output round-trips through the parser; ``latex`` mirrors the
prime/power typesetting conventions of the source identities;
``poly_to_json`` is the canonical serialization (terms in descending
canonical monomial order, so equal values always serialize to identical
bytes).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .config import max_deriv_order
from .diffring import DiffPoly, Generator, Monomial
from .parsing import _TOO_LONG, MAX_DIGITS, ParseError, _check_digits, _generator_from_token

_PARAM_LATEX = {"alpha": r"\alpha", "beta": r"\beta", "gamma": r"\gamma"}


def _gen_latex(gen: Generator) -> str:
    """The plain token ``<head><index or sign><primes>`` typeset as
    ``head_{index}`` or ``head^{sign}``, primes kept."""
    token = gen.token()
    base = token.rstrip("'")
    head = base.rstrip("0123456789+-")
    tail = base[len(head):]
    mark = "^" if tail in ("+", "-") else "_"
    return f"{_PARAM_LATEX.get(head, head)}{mark}{{{tail}}}{token[len(base):]}"


def _factor_plain(gen: Generator, exp: int) -> str:
    tok = gen.token()
    return tok if exp == 1 else f"{tok}^{exp}"


def _factor_latex(gen: Generator, exp: int) -> str:
    tex = _gen_latex(gen)
    if exp == 1:
        return tex
    return f"({tex})^{{{exp}}}"


def _coeff_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def format_monomial(mono: Monomial, style: str = "plain") -> str:
    if mono.is_unit():
        return "1"
    if style == "latex":
        return " ".join(_factor_latex(g, e) for g, e in mono.exps)
    return "*".join(_factor_plain(g, e) for g, e in mono.exps)


def format_poly(poly: DiffPoly, style: str = "plain") -> str:
    if not poly.terms:
        return "0"
    parts: list[str] = []
    for mono in poly.monomials():
        q = poly.terms[mono]
        mag = abs(q)
        body = format_monomial(mono, style)
        if mono.is_unit():
            chunk = _coeff_latex(mag) if style == "latex" else str(mag)
        elif mag == 1:
            chunk = body
        elif style == "latex":
            chunk = f"{_coeff_latex(mag)}{body}"
        else:
            chunk = f"{mag}*{body}"
        if not parts:
            parts.append(chunk if q > 0 else f"-{chunk}")
        else:
            parts.append(f"+ {chunk}" if q > 0 else f"- {chunk}")
    return " ".join(parts)


def poly_to_dict(poly: DiffPoly) -> dict:
    terms = []
    for mono in poly.monomials():
        terms.append(
            {
                "monomial": [[g.token(), e] for g, e in mono.exps],
                "coeff": str(poly.terms[mono]),
            }
        )
    return {"ambientN": poly.n, "terms": terms}


def poly_to_json(poly: DiffPoly) -> str:
    return json.dumps(poly_to_dict(poly), separators=(",", ":"))


# The parser's constant p or p/q, optionally negative; each run is short enough for int().
_COEFF_RE = re.compile(r"(-?\d{1,%d})(?:/(\d{1,%d}))?" % (MAX_DIGITS, MAX_DIGITS), re.ASCII)


def poly_from_dict(data: dict) -> DiffPoly:
    """Inverse of ``poly_to_dict``; malformed input raises ``ParseError``
    whose position is the index of the term (0 for a top-level key).
    The shape is the one ``poly_to_dict`` writes: an object with a positive
    int ``ambientN`` and a list of ``terms``, each an object whose monomial is
    a list of [token, exponent] pairs, tokens strings and exponents ints of
    at least 1 and at most ``MAX_DIGITS`` digits, and whose coefficient is
    an int or a string ``-p/q``, as the parser reads a constant: ``-`` and
    ``/q`` optional, p and q runs of at most ``MAX_DIGITS`` ASCII digits
    (an int as many digits), q nonzero."""
    if not isinstance(data, dict):
        raise ParseError("a polynomial is an object", 0)
    try:
        n, entries = data["ambientN"], data["terms"]
    except KeyError as exc:
        raise ParseError(f"missing key {exc.args[0]!r}", 0) from None
    if type(n) is not int or n < 1:
        raise ParseError(f"ambientN {n!r} is not a positive int", 0)
    if not isinstance(entries, list):
        raise ParseError("terms is not a list", 0)
    cap = max_deriv_order()
    terms: dict[Monomial, int | Fraction] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError("a term is not an object", i)
        try:
            monomial, coeff = entry["monomial"], entry["coeff"]
        except KeyError as exc:
            raise ParseError(f"missing key {exc.args[0]!r}", i) from None
        if not isinstance(monomial, list):
            raise ParseError("a monomial is not a list", i)
        factors = []
        for factor in monomial:
            if not isinstance(factor, list) or len(factor) != 2:
                raise ParseError(f"factor {factor!r} is not a [token, exponent] pair", i)
            t, e = factor
            if type(t) is not str:
                raise ParseError(f"generator token {t!r} is not a string", i)
            if type(e) is int and abs(e) >= _TOO_LONG:  # before e is written in a message
                raise ParseError(f"an exponent longer than MAX_DIGITS = {MAX_DIGITS} digits", i)
            if type(e) is not int or e < 1:
                raise ParseError(f"exponent {e!r} is not a positive int", i)
            factors.append((_generator_from_token(t, i, cap, n), e))
        if len({g for g, _ in factors}) != len(factors):
            raise ParseError("a generator repeated within one monomial", i)
        mono = Monomial(factors)
        if mono in terms:
            raise ParseError("a monomial repeated across terms", i)
        if type(coeff) is int:
            _check_digits((coeff,), i)
            terms[mono] = coeff
            continue
        if type(coeff) is not str:
            raise ParseError(f"coefficient {coeff!r} is not a string or an int", i)
        m = _COEFF_RE.fullmatch(coeff)
        if m is None or (m[2] is not None and int(m[2]) == 0):
            raise ParseError(f"invalid coefficient {coeff!r}", i)
        terms[mono] = int(m[1]) if m[2] is None else Fraction(int(m[1]), int(m[2]))
    return DiffPoly(n, terms)


def poly_from_json(text: str) -> DiffPoly:
    return poly_from_dict(json.loads(text))


# -- operators ---------------------------------------------------------------


def format_operator(op) -> str:
    if not op.coeffs:
        return "0"
    parts: list[str] = []
    for order in sorted(op.coeffs, reverse=True):
        coeff = op.coeffs[order]
        dsym = "" if order == 0 else ("d" if order == 1 else f"d^{order}")
        body = format_poly(coeff)
        if order == 0:
            parts.append(f"({body})" if " " in body else body)
        elif coeff == DiffPoly.constant(op.n, 1):
            parts.append(dsym)
        else:
            wrap = f"({body})" if (" " in body or "*" in body) else body
            parts.append(f"{wrap}*{dsym}")
    return " + ".join(parts)
