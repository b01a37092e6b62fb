"""An independent check of the intertwining conditions and of the formal
transpose.

The sympy side expands P^- H^- psi - H^+ P^- psi, and the transpose
P^+ psi = sum_i (-d)^i (a_i psi), on a symbolic psi(q) with plain sympy
calculus and imports nothing from nfoldsusy.  Only the bridge
that turns an nfoldsusy polynomial into a sympy expression reads the
package's term data; the expansion itself shares no code with
``diffop`` or ``diffring``.
"""

import pytest

sympy = pytest.importorskip("sympy")

from nfoldsusy import Family, build_system, derive_conditions  # noqa: E402

q = sympy.Symbol("q")
psi = sympy.Function("psi")(q)
V_PLUS = sympy.Function("Vp")(q)
V_MINUS = sympy.Function("Vm")(q)


def _w(k):
    return sympy.Function(f"w{k}")(q)


def _sympy_conditions(n):
    """{k: coefficient of psi^(k)} in P^- H^- psi - H^+ P^- psi, where
    P^- = d^n + sum_k w_k d^k and H^+- = -d^2/2 + V^+-."""

    def charge(f):
        return sympy.diff(f, q, n) + sum(_w(k) * sympy.diff(f, q, k) for k in range(n))

    def hamiltonian(v, f):
        return -sympy.diff(f, q, 2) / 2 + v * f

    expr = sympy.expand(charge(hamiltonian(V_MINUS, psi)) - hamiltonian(V_PLUS, charge(psi)))
    return _psi_coefficients(expr, n + 2)


def _sympy_transpose(n):
    """{k: coefficient of psi^(k)} in sum_i (-d)^i (a_i psi), where
    P^- = sum_i a_i d^i with a_n = 1 and a_k = w_k."""
    coeffs = {n: sympy.Integer(1), **{k: _w(k) for k in range(n)}}
    expr = sum((-1) ** i * sympy.diff(a * psi, q, i) for i, a in coeffs.items())
    return _psi_coefficients(sympy.expand(expr), n)


def _psi_coefficients(expr, top):
    """{k: coefficient of psi^(k)} for k = 0..top in an expression linear
    in psi and its derivatives up to order top."""
    slots = [sympy.Symbol(f"psi_{k}") for k in range(top + 1)]
    expr = expr.xreplace({sympy.diff(psi, q, k): slots[k] for k in range(top + 1)})
    assert not expr.has(psi)
    return {k: sympy.expand(expr.coeff(slots[k])) for k in range(top + 1)}


def _to_sympy(poly):
    """The nfoldsusy polynomial as a sympy expression in w_k(q), V^+-(q)."""
    heads = {Family.VPLUS: lambda g: V_PLUS, Family.VMINUS: lambda g: V_MINUS,
             Family.W: lambda g: _w(g.index)}
    out = sympy.Integer(0)
    for mono, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for g, e in mono.exps:
            term *= sympy.diff(heads[g.family](g), q, g.deriv) ** e
        out += term
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_conditions_match_an_independent_sympy_expansion(n):
    expected = _sympy_conditions(n)
    # orders n + 1 and n + 2 cancel in the expansion itself
    assert expected[n + 1] == 0 and expected[n + 2] == 0
    cs = derive_conditions(build_system(n))
    assert cs.ks == tuple(range(n, -1, -1))
    for k, cond in cs.items():
        assert sympy.expand(_to_sympy(cond) - expected[k]) == 0, (n, k)


@pytest.mark.parametrize("n", range(2, 9))
def test_transpose_matches_an_independent_sympy_expansion(n):
    expected = _sympy_transpose(n)
    charge_plus = build_system(n).charge_plus
    assert set(charge_plus.coeffs) <= set(expected)
    for k, coeff in expected.items():
        assert sympy.expand(_to_sympy(charge_plus.coefficient(k)) - coeff) == 0, (n, k)
