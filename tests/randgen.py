"""Seeded random generators shared by the property and acceptance suites."""

from __future__ import annotations

import random
from fractions import Fraction

from nfoldsusy import DiffOperator, DiffPoly, Generator, Monomial, Substitution
from nfoldsusy.diffring import Family


def default_pool(n: int) -> list[Generator]:
    pool = [Generator(Family.W, k, 0) for k in range(n)]
    pool += [Generator(Family.U, k, 0) for k in range(max(n - 1, 1))]
    pool += [Generator(Family.VPLUS, 0, 0), Generator(Family.VMINUS, 0, 0)]
    pool += [Generator(Family.C, k, 0) for k in range(2)]
    return pool


def random_monomial(rng: random.Random, pool, max_deriv=2, max_factors=2, max_exp=2) -> Monomial:
    exps: dict[Generator, int] = {}
    for _ in range(rng.randint(0, max_factors)):
        base = rng.choice(pool)
        deriv = 0 if base.is_constant() else rng.randint(0, max_deriv)
        gen = Generator(base.family, base.index, deriv)
        exps[gen] = exps.get(gen, 0) + rng.randint(1, max_exp)
    return Monomial(exps.items())


def random_poly(rng: random.Random, n: int, pool=None, max_terms=3, **kw) -> DiffPoly:
    pool = pool or default_pool(n)
    terms: dict[Monomial, Fraction] = {}
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if coeff:
            mono = random_monomial(rng, pool, **kw)
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return DiffPoly(n, terms)


def random_homogeneous(rng: random.Random, n: int, pool=None, max_terms=3, **kw) -> DiffPoly:
    poly = random_poly(rng, n, pool, max_terms, **kw)
    while not poly:
        poly = random_poly(rng, n, pool, max_terms, **kw)
    weight = next(iter(poly.terms)).weight(n)
    return DiffPoly(n, {m: q for m, q in poly.terms.items() if m.weight(n) == weight})


def random_operator(rng: random.Random, n: int, max_order=2, **kw) -> DiffOperator:
    coeffs = {}
    for order in range(rng.randint(0, max_order) + 1):
        poly = random_poly(rng, n, max_terms=2, **kw)
        if poly:
            coeffs[order] = poly
    return DiffOperator(n, coeffs)


def random_substitution(rng: random.Random, n: int) -> Substitution:
    """Substitution on one or two base w/u generators."""
    pool = default_pool(n)
    images = {}
    for _ in range(rng.randint(1, 2)):
        base = rng.choice([g for g in pool if not g.is_constant()])
        images[base] = random_poly(rng, n, max_terms=2, max_deriv=1)
    return Substitution(n, images)
