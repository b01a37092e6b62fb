"""Linear ordinary differential operators with DiffPoly coefficients.

Standard form keeps coefficients to the left of powers of d/dq; composition
and transposition always renormalize to it, so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping, Union

from .diffring import (
    AmbientMismatchError,
    DiffPoly,
    InhomogeneousError,
    ZeroPolynomialError,
    _accumulate,
)

Liftable = Union["DiffOperator", DiffPoly, int, Fraction]


class DiffOperator:
    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, DiffPoly] | None = None):
        self.n = n
        tidy: dict[int, DiffPoly] = {}
        if coeffs:
            for order, poly in coeffs.items():
                if order < 0:
                    raise ValueError("operator orders must be nonnegative")
                if poly.n != n:
                    raise AmbientMismatchError("coefficient has wrong ambient N")
                if poly:
                    tidy[order] = poly
        self.coeffs = tidy

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "DiffOperator":
        return cls(n)

    @classmethod
    def d(cls, n: int, order: int = 1) -> "DiffOperator":
        return cls(n, {order: DiffPoly.constant(n, 1)})

    @classmethod
    def multiplication(cls, poly: DiffPoly) -> "DiffOperator":
        return cls(poly.n, {0: poly})

    def _lift(self, other: Liftable) -> "DiffOperator | None":
        if isinstance(other, (DiffOperator, DiffPoly)):
            if other.n != self.n:
                raise AmbientMismatchError("operator ambient N mismatch")
            return other if isinstance(other, DiffOperator) else DiffOperator.multiplication(other)
        if isinstance(other, (int, Fraction)):
            return DiffOperator(self.n, {0: DiffPoly.constant(self.n, other)})
        return None

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: Liftable) -> "DiffOperator":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.coeffs)
        for order, poly in rhs.coeffs.items():
            s = out.get(order, DiffPoly.zero(self.n)) + poly
            if s:
                out[order] = s
            else:
                out.pop(order, None)
        return DiffOperator(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "DiffOperator":
        return DiffOperator(self.n, {i: -p for i, p in self.coeffs.items()})

    def __sub__(self, other: Liftable) -> "DiffOperator":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: Liftable) -> "DiffOperator":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def scale(self, q) -> "DiffOperator":
        return DiffOperator(self.n, {i: p * q for i, p in self.coeffs.items()})

    # -- composition ---------------------------------------------------------

    def __mul__(self, other: Liftable) -> "DiffOperator":
        """Composition, using d^i (a ...) = sum_j C(i,j) a^(j) d^(i-j)."""
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        if not isinstance(other, (DiffOperator, DiffPoly)):
            return self.scale(other)
        # Each order's sum builds up in one terms dict; an order that
        # cancels leaves, and comes back at the end, as a fresh key.
        out: dict[int, dict] = {}
        for i, a in self.coeffs.items():
            for k, b in rhs.coeffs.items():
                deriv = b
                for j in range(i + 1):
                    target = i + k - j
                    contrib = a * deriv * comb(i, j)
                    terms = out.get(target)
                    if terms is None:
                        terms = out[target] = {}
                    _accumulate(terms, contrib.terms.items())
                    if not terms:
                        del out[target]
                    if j < i:
                        deriv = deriv.derive()
        return DiffOperator(
            self.n, {order: DiffPoly._tidy(self.n, t) for order, t in out.items()}
        )

    def __rmul__(self, other: Liftable) -> "DiffOperator":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return rhs * self

    # -- transpose -----------------------------------------------------------

    def transpose(self) -> "DiffOperator":
        """Formal transpose: sum a_i d^i  ->  sum (-d)^i a_i."""
        out = DiffOperator.zero(self.n)
        for i, a in self.coeffs.items():
            sign = -1 if i % 2 else 1
            out = out + (DiffOperator.d(self.n, i) * a).scale(sign)
        return out

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero operator has no order")
        return max(self.coeffs)

    def coefficient(self, i: int) -> DiffPoly:
        return self.coeffs.get(i, DiffPoly.zero(self.n))

    def is_zero(self) -> bool:
        return not self.coeffs

    def operator_weight(self) -> int:
        """Common value of weight(a_i) + i; d/dq itself carries weight 1."""
        if not self.coeffs:
            raise ZeroPolynomialError("the zero operator has no weight")
        weights = set()
        for i, a in self.coeffs.items():
            weights.add(a.weight() + i)
        if len(weights) > 1:
            raise InhomogeneousError(
                [(f"order {i}", a.weight() + i) for i, a in sorted(self.coeffs.items())]
            )
        return weights.pop()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset((i, p) for i, p in self.coeffs.items())))

    def __repr__(self) -> str:
        from .formatting import format_operator

        return format_operator(self)
