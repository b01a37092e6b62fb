"""An independent check of the intertwining conditions, of the formal
transpose and of the conditions under the N=2..4 ansatz.

The sympy side expands P^- H^- psi - H^+ P^- psi, also with the paper's
ansatz and the closed-form potentials substituted, and the transpose
P^+ psi = sum_i (-d)^i (a_i psi), on a symbolic psi(q) with plain sympy
calculus and imports nothing from nfoldsusy.  Only the bridge
that turns an nfoldsusy polynomial into a sympy expression reads the
package's term data; the expansion itself shares no code with
``diffop`` or ``diffring``.
"""

import pytest

sympy = pytest.importorskip("sympy")

from nfoldsusy import (  # noqa: E402
    Family,
    ansatz_substitution,
    build_system,
    derive_conditions,
    pipeline,
)

q = sympy.Symbol("q")
psi = sympy.Function("psi")(q)
V_PLUS = sympy.Function("Vp")(q)
V_MINUS = sympy.Function("Vm")(q)


def _w(k):
    return sympy.Function(f"w{k}")(q)


def _u(k):
    return sympy.Function(f"u{k}")(q)


def _sympy_conditions(n, coeffs=None, v_plus=V_PLUS, v_minus=V_MINUS):
    """{k: coefficient of psi^(k)} in P^- H^- psi - H^+ P^- psi, where
    P^- = d^n + sum_k a_k d^k (a_k = w_k unless ``coeffs`` gives it) and
    H^+- = -d^2/2 + V^+-."""
    a = {k: _w(k) for k in range(n)} | dict(coeffs or {})

    def charge(f):
        return sympy.diff(f, q, n) + sum(a[k] * sympy.diff(f, q, k) for k in range(n))

    def hamiltonian(v, f):
        return -sympy.diff(f, q, 2) / 2 + v * f

    expr = sympy.expand(charge(hamiltonian(v_minus, psi)) - hamiltonian(v_plus, charge(psi)))
    return _psi_coefficients(expr, n + 2)


def _sympy_ansatz(n):
    """{k: image of w_k} for k <= n - 2: the paper's polynomial ansatz,
    its parameters left as symbols."""
    alpha1, beta1, beta2, beta3 = sympy.symbols("alpha1 beta1 beta2 beta3")
    g = dict(enumerate(sympy.symbols("gamma1:8"), start=1))
    top = _w(n - 1)

    def d(f, m=1):
        return sympy.diff(f, q, m)

    if n == 2:
        return {0: _u(0) + d(top) / 2 - sympy.Symbol("alpha0") * top**2}
    if n == 3:
        return {
            1: 6 * _u(1) + d(top) - alpha1 * top**2,
            0: _u(0) + 3 * d(_u(1)) - beta1 * d(top, 2) - alpha1 * top * d(top)
            - 6 * beta2 * top * _u(1) - beta3 * top**3,
        }
    half = sympy.Rational(1, 2)
    return {
        2: _u(2) + 3 * half * d(top) - alpha1 * top**2,
        1: _u(1) + d(_u(2)) - beta1 * d(top, 2) - 2 * alpha1 * top * d(top)
        - beta2 * top * _u(2) - beta3 * top**3,
        0: _u(0) + half * d(_u(1)) - g[1] * d(_u(2), 2) - (half * beta1 + half / 2) * d(top, 3)
        - g[2] * top * d(top, 2) - g[3] * d(top) ** 2 - half * beta2 * d(top * _u(2))
        - g[4] * top * _u(1) - g[5] * _u(2) ** 2 - 3 * half * beta3 * top**2 * d(top)
        - g[6] * top**2 * _u(2) - g[7] * top**4,
    }


def _sympy_transformed_conditions(n):
    """The conditions with the ansatz and the closed-form potentials
    V^+- = -a_{n-2}/n + ((n-1)/2n +- 1/2) w_{n-1}' + w_{n-1}^2/2n - C0
    substituted."""
    ansatz = _sympy_ansatz(n)
    top = _w(n - 1)
    shared = -ansatz[n - 2] / n + top**2 / (2 * n) - sympy.Symbol("C0")
    slope = sympy.Rational(n - 1, 2 * n) * sympy.diff(top, q)
    half_slope = sympy.diff(top, q) / 2
    return _sympy_conditions(n, ansatz, shared + slope + half_slope, shared + slope - half_slope)


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
    """The nfoldsusy polynomial as a sympy expression in w_k(q), u_k(q),
    V^+-(q), and symbols for the constants and parameters."""
    heads = {Family.VPLUS: lambda g: V_PLUS, Family.VMINUS: lambda g: V_MINUS,
             Family.W: lambda g: _w(g.index), Family.U: lambda g: _u(g.index),
             Family.C: lambda g: sympy.Symbol(g.token()),
             Family.PARAM: lambda g: sympy.Symbol(g.token())}
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


@pytest.mark.parametrize("n", (2, 3, 4))
def test_ansatz_images_match_an_independent_sympy_expansion(n):
    expected = _sympy_transformed_conditions(n)
    # the closed-form potentials solve the top two conditions
    assert all(expected[k] == 0 for k in range(n - 1, n + 3))
    sub = ansatz_substitution(n)
    for k, cond in pipeline(n, "eliminated").items():
        assert sympy.expand(_to_sympy(sub.apply(cond)) - expected[k]) == 0, (n, k)
