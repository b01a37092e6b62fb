"""Exact differential polynomial ring over Q with a weight grading.

Generators are derivative symbols w_k^(m), u_k^(m), V+^(m), V-^(m), the
integration constants C_k and dimensionless parameters alpha/beta/gamma.
Every generator carries an integer weight (the negated power of length of
the physical quantity it stands for); the weight of w_k and u_k depends on
the ambient order N, so each polynomial records its ambient N and refuses
arithmetic across different ambients.

A coefficient is an ``int`` when it entered the ring as a whole number,
else a ``fractions.Fraction``: most are Leibniz binomials, and ``int``
arithmetic is far cheaper.  Only the entry points normalise; a whole-number
``Fraction`` that arithmetic returns stays one, equal to the ``int`` and of
the same hash, so no order or output depends on the type.  A float, or any
other type, is a ``TypeError``: there is no floating point here or
downstream, and dividing coefficients takes an explicit ``Fraction``, since
``int / int`` is a float.

Monomials are ordered by ``monomial_sort_key(n)``: weight first, then the
factors compared as one flat tuple of ``(-family, -index, -deriv, exp)``
per factor, factors in ascending generator order.  This is the graded
order "a higher power on an earlier generator wins": at the first
position where two equal-weight monomials differ, either both hold the
same generator and the higher exponent wins, or one holds an earlier
generator, which the other lacks, and the negated generator fields rank
it higher; a monomial that extends the other wins as a longer tuple.
A flat tuple holds fewer objects than one tuple per factor, which keeps
the peak memory of a large sort down.
Each monomial stores its weight as two ints fixed at construction,
``weight(n) = _wn * n + _w0``, so the key costs no per-generator weights.

The kernel keeps each operation to one pass over sorted factors.  A
monomial keeps ``hash(exps)`` from construction, so dict and set lookups
hash no tuple twice and orders stay those of ``hash(exps)``.  A derivative
splices the sorted factors: g^e becomes g^(e-1), and g', the generator
right after g, is incremented or inserted at the next position; no dict
and no sort.  A product merges the two sorted factor tuples in one pass,
and a power starts from its base rather than from the constant 1.
Sums of many polynomials (substitutions, parsed sums, operator products)
add into one terms dict in place, with the insertion order that repeated
``+`` gives.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .config import max_deriv_order


class Family(IntEnum):
    """Generator families, in canonical order."""

    W = 0
    U = 1
    VPLUS = 2
    VMINUS = 3
    C = 4
    PARAM = 5


# PARAM indices pack (group, subindex) as group * _PARAM_STRIDE + subindex.
_PARAM_GROUPS = ("alpha", "beta", "gamma")
_PARAM_STRIDE = 100


class DiffRingError(Exception):
    pass


class AmbientMismatchError(DiffRingError):
    pass


class ZeroPolynomialError(DiffRingError):
    pass


class InhomogeneousError(DiffRingError):
    """Raised when a weight is requested of a mixed-weight polynomial."""

    def __init__(self, offenders):
        self.offenders = offenders  # list of (monomial, weight)
        detail = ", ".join(f"{m} (weight {w})" for m, w in offenders[:6])
        super().__init__(f"polynomial is not weight-homogeneous: {detail}")


class DerivOrderError(DiffRingError):
    pass


class Generator(NamedTuple):
    family: Family
    index: int
    deriv: int = 0

    def weight(self, n: int) -> int:
        a, b = _weight_parts(self)
        return a * n + b

    def is_constant(self) -> bool:
        return self.family in (Family.C, Family.PARAM)

    def base(self) -> "Generator":
        return Generator(self.family, self.index, 0)

    def token(self) -> str:
        primes = "'" * self.deriv
        if self.family is Family.W:
            return f"w{self.index}{primes}"
        if self.family is Family.U:
            return f"u{self.index}{primes}"
        if self.family is Family.VPLUS:
            return f"V+{primes}"
        if self.family is Family.VMINUS:
            return f"V-{primes}"
        if self.family is Family.C:
            return f"C{self.index}"
        group, sub = divmod(self.index, _PARAM_STRIDE)
        return f"{_PARAM_GROUPS[group]}{sub}"

    def __str__(self) -> str:
        return self.token()


def w(k: int, m: int = 0) -> Generator:
    return Generator(Family.W, k, m)


def u(k: int, m: int = 0) -> Generator:
    return Generator(Family.U, k, m)


def vplus(m: int = 0) -> Generator:
    return Generator(Family.VPLUS, 0, m)


def vminus(m: int = 0) -> Generator:
    return Generator(Family.VMINUS, 0, m)


def c(k: int) -> Generator:
    return Generator(Family.C, k, 0)


def _param(group: int, k: int) -> Generator:
    """The parameter ``<group name><k>``; k must lie below the stride, or
    it would alias a parameter of a later group."""
    if not 0 <= k < _PARAM_STRIDE:
        name = f"{_PARAM_GROUPS[group]}{k}"
        raise ValueError(f"parameter {name} is out of range (needs k < {_PARAM_STRIDE})")
    return Generator(Family.PARAM, group * _PARAM_STRIDE + k, 0)


def alpha(k: int) -> Generator:
    return _param(0, k)


def beta(k: int) -> Generator:
    return _param(1, k)


def gamma(k: int) -> Generator:
    return _param(2, k)


_PARAM_BY_NAME = {"alpha": alpha, "beta": beta, "gamma": gamma}


def is_index(text: str) -> bool:
    """True when text is a generator index: ASCII digits only, since
    ``int`` would also read other scripts' digits as aliases."""
    return text.isascii() and text.isdigit()


def param_by_name(name: str) -> Generator:
    for prefix, ctor in _PARAM_BY_NAME.items():
        if name.startswith(prefix) and is_index(name[len(prefix):]):
            return ctor(int(name[len(prefix):]))
    raise ValueError(f"unknown generator {name!r}")


def _weight_parts(g: Generator) -> tuple[int, int]:
    """The weight table: ``(a, b)`` with ``g.weight(n) = a * n + b``."""
    if g.family in (Family.W, Family.U):
        return 1, g.deriv - g.index
    if g.family in (Family.VPLUS, Family.VMINUS):
        return 0, 2 + g.deriv
    if g.family is Family.C:
        return 0, 2 * (g.index + 1)
    return 0, 0


class Monomial:
    """Product of generator powers; exponents positive, factors sorted and
    distinct, the hash of ``exps`` kept from construction."""

    __slots__ = ("exps", "_wn", "_w0", "_hash")

    def __init__(self, exps: Iterable[tuple[Generator, int]] = ()):
        items = [(g, e) for g, e in exps if e != 0]
        if any(e < 0 for _, e in items):
            raise ValueError("negative exponent in monomial")
        items.sort(key=lambda p: p[0])
        for (g, _), (h, _) in zip(items, items[1:]):
            if g == h:
                raise ValueError(f"repeated generator {g} in monomial")
        self.exps: tuple[tuple[Generator, int], ...] = tuple(items)
        self._hash = hash(self.exps)
        wn = w0 = 0
        for g, e in items:
            a, b = _weight_parts(g)
            wn += e * a
            w0 += e * b
        self._wn = wn
        self._w0 = w0

    @classmethod
    def _build(cls, exps: tuple[tuple[Generator, int], ...], wn: int, w0: int) -> "Monomial":
        """Monomial from a sorted tuple of positive exponents on distinct
        generators and its known weight parts; validates nothing."""
        mono = object.__new__(cls)
        mono.exps = exps
        mono._hash = hash(exps)
        mono._wn = wn
        mono._w0 = w0
        return mono

    @classmethod
    def unit(cls) -> "Monomial":
        return _UNIT

    @classmethod
    def of(cls, gen: Generator, exp: int = 1) -> "Monomial":
        if exp <= 0:
            return cls([(gen, exp)])
        a, b = _weight_parts(gen)
        return cls._build(((gen, exp),), exp * a, exp * b)

    def is_unit(self) -> bool:
        return not self.exps

    def weight(self, n: int) -> int:
        return self._wn * n + self._w0

    def generators(self) -> Iterator[Generator]:
        return (g for g, _ in self.exps)

    def exponent(self, gen: Generator) -> int:
        for g, e in self.exps:
            if g == gen:
                return e
        return 0

    def is_constant(self) -> bool:
        """True when every factor is annihilated by the derivation."""
        return all(g.is_constant() for g, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        # One merge of the two sorted factor tuples.  A third to a half of
        # all products have the unit as an operand (constant coefficients
        # times a term), and those return the other operand unchanged.
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        la, lb = len(a), len(b)
        merged = []
        i = j = 0
        while i < la and j < lb:
            g, e = a[i]
            h, f = b[j]
            if g == h:
                merged.append((g, e + f))
                i += 1
                j += 1
            elif g < h:
                merged.append(a[i])
                i += 1
            else:
                merged.append(b[j])
                j += 1
        return Monomial._build(
            tuple(merged) + a[i:] + b[j:], self._wn + other._wn, self._w0 + other._w0
        )

    def divides(self, other: "Monomial") -> bool:
        it = dict(other.exps)
        return all(it.get(g, 0) >= e for g, e in self.exps)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exps)
        for g, e in other.exps:
            have = merged.get(g, 0) - e
            if have < 0:
                raise ValueError(f"{other} does not divide {self}")
            merged[g] = have
        return Monomial(merged.items())

    def max_deriv(self) -> int:
        return max((g.deriv for g, _ in self.exps if not g.is_constant()), default=0)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Monomial)
            and self._hash == other._hash
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        from .formatting import format_monomial

        return format_monomial(self)


_UNIT = Monomial()


def monomial_sort_key(n: int):
    """Key function of the graded monomial order at ambient ``n``; see the
    module docstring.  Built per call, not cached on the monomials."""

    def key(m: Monomial):
        return (
            m._wn * n + m._w0,
            tuple(chain.from_iterable((-g[0], -g[1], -g[2], e) for g, e in m.exps)),
        )

    return key


Scalar = Union[int, Fraction]


def _as_coefficient(x) -> Scalar:
    """x as a coefficient: an ``int`` when x is a whole number (a ``bool``
    included), else a ``Fraction``; anything else is a ``TypeError``."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class DiffPoly:
    """Sparse polynomial: monomial -> nonzero coefficient, plus the ambient N."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        self.n = n
        tidy: dict[Monomial, Scalar] = {}
        if terms:
            for m, q in terms.items():
                q = _as_coefficient(q)
                if q:
                    tidy[m] = q
        self.terms = tidy

    @classmethod
    def _tidy(cls, n: int, terms: dict[Monomial, Scalar]) -> "DiffPoly":
        """Polynomial that takes ownership of terms whose coefficients are
        already nonzero ``int``s or ``Fraction``s."""
        poly = object.__new__(cls)
        poly.n = n
        poly.terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "DiffPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, q: Scalar) -> "DiffPoly":
        return cls.monomial(n, Monomial.unit(), q)

    @classmethod
    def generator(cls, n: int, gen: Generator) -> "DiffPoly":
        return cls._tidy(n, {Monomial.of(gen): 1})

    @classmethod
    def monomial(cls, n: int, mono: Monomial, coeff: Scalar = 1) -> "DiffPoly":
        q = _as_coefficient(coeff)
        return cls._tidy(n, {mono: q} if q else {})

    # -- ring structure ----------------------------------------------------

    def _check_ambient(self, other: "DiffPoly") -> None:
        if self.n != other.n:
            raise AmbientMismatchError(
                f"ambient N mismatch: {self.n} vs {other.n}"
            )

    def _coerce(self, other) -> "DiffPoly | None":
        if isinstance(other, DiffPoly):
            self._check_ambient(other)
            return other
        if isinstance(other, (int, Fraction)):
            return DiffPoly.constant(self.n, other)
        return None

    def __add__(self, other) -> "DiffPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        _accumulate(out, rhs.terms.items())
        return DiffPoly._tidy(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._tidy(self.n, {m: -q for m, q in self.terms.items()})

    def __sub__(self, other) -> "DiffPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        _accumulate(out, ((m, -q) for m, q in rhs.terms.items()))
        return DiffPoly._tidy(self.n, out)

    def __rsub__(self, other) -> "DiffPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "DiffPoly":
        # The polynomial test first: ``Fraction`` is an ABC, so testing a
        # polynomial against ``(int, Fraction)`` costs far more.
        if not isinstance(other, DiffPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            q = _as_coefficient(other)
            if not q:
                return DiffPoly.zero(self.n)
            return DiffPoly._tidy(self.n, {m: c * q for m, c in self.terms.items()})
        self._check_ambient(other)
        # Multiplying by one term is injective on monomials, so the other
        # operand's terms map one to one, in order, with no sums and no
        # zeros, as the double loop below would produce them.
        many, one = (self, other) if len(other.terms) == 1 else (other, self)
        if len(one.terms) == 1:
            ((m1, c1),) = one.terms.items()
            if c1 == 1:
                return DiffPoly._tidy(self.n, {m * m1: q for m, q in many.terms.items()})
            return DiffPoly._tidy(self.n, {m * m1: q * c1 for m, q in many.terms.items()})
        out: dict[Monomial, Scalar] = {}
        for ma, ca in self.terms.items():
            _accumulate(out, ((ma * mb, ca * cb) for mb, cb in other.terms.items()))
        return DiffPoly._tidy(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "DiffPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not k:
            return DiffPoly.constant(self.n, 1)
        out = None
        base = self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = DiffPoly.constant(self.n, other)
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure queries -------------------------------------------------

    def coefficient(self, mono: Monomial) -> Scalar:
        return self.terms.get(mono, 0)

    def monomials(self) -> list[Monomial]:
        return sorted(self.terms, key=monomial_sort_key(self.n), reverse=True)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading monomial")
        return max(self.terms, key=monomial_sort_key(self.n))

    def leading_coefficient(self) -> Scalar:
        return self.terms[self.leading_monomial()]

    def base_generators(self) -> set[Generator]:
        return {g.base() for g in {g for m in self.terms for g, _ in m.exps}}

    def max_deriv(self) -> int:
        return max((m.max_deriv() for m in self.terms), default=0)

    def weight(self) -> int:
        """Common weight of a homogeneous polynomial."""
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no weight")
        weights = {m: m.weight(self.n) for m in self.terms}
        distinct = set(weights.values())
        if len(distinct) > 1:
            offenders = sorted(weights.items(), key=lambda p: p[1])
            raise InhomogeneousError([(m, wt) for m, wt in offenders])
        return distinct.pop()

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        return len({m.weight(self.n) for m in self.terms}) == 1

    # -- derivation --------------------------------------------------------

    def derive(self, times: int = 1) -> "DiffPoly":
        """The ring derivation d/dq: Leibniz over monomials, each symbol's
        derivative order stepping up by one, constants to zero.  Stops early
        once the polynomial is zero."""
        if times < 0:
            raise ValueError("cannot integrate by deriving a negative number of times")
        cap = max_deriv_order()
        poly = self
        for _ in range(times):
            if not poly.terms:
                break
            out: dict[Monomial, Scalar] = {}
            _accumulate(out, _leibniz_terms(poly.terms, cap))
            poly = DiffPoly._tidy(self.n, out)
        return poly

    def __repr__(self) -> str:
        from .formatting import format_poly

        return format_poly(self)


def _accumulate(out: dict[Monomial, Scalar], terms) -> None:
    """Add (monomial, nonzero coefficient) pairs into out in place, dropping
    sums that cancel; a cancelled monomial that comes back is re-inserted
    at the end, as a fresh key."""
    for m, q in terms:
        s = out.get(m)
        if s is None:
            out[m] = q
        elif s := s + q:
            out[m] = s
        else:
            del out[m]


# Each generator's next derivative, built once, so that derived monomials
# share one ``Generator`` object per symbol.  One entry per derivable
# generator reached: at most the symbols times the derivative cap.
_NEXT_DERIV: dict[Generator, Generator] = {}


def _leibniz_terms(terms: Mapping[Monomial, Scalar], cap: int):
    """The (monomial, coefficient) terms of the derivative, one for each
    derivable factor of each term, before like terms are summed; a factor
    already at derivative order ``cap`` raises ``DerivOrderError``."""
    for mono, coeff in terms.items():
        exps = mono.exps
        # A derivative moves one unit of exponent one order up, which
        # raises the weight by one.
        wn, w0 = mono._wn, mono._w0 + 1
        for i, (gen, e) in enumerate(exps):
            if gen.is_constant():
                continue
            if gen.deriv >= cap:
                raise DerivOrderError(
                    f"derivative order {gen.deriv + 1} exceeds the configured cap"
                )
            dgen = _NEXT_DERIV.get(gen)
            if dgen is None:
                dgen = _NEXT_DERIV[gen] = Generator(gen.family, gen.index, gen.deriv + 1)
            # g^e g'^f ... becomes g^(e-1) g'^(f+1) ...: g' is the next
            # generator after g, so it sits at i + 1 or goes in there.
            head = exps[:i] if e == 1 else exps[:i] + ((gen, e - 1),)
            if i + 1 < len(exps) and exps[i + 1][0] == dgen:
                spliced = head + ((dgen, exps[i + 1][1] + 1),) + exps[i + 2:]
            else:
                spliced = head + ((dgen, 1),) + exps[i + 1:]
            yield Monomial._build(spliced, wn, w0), coeff if e == 1 else coeff * e


def replace_constants(poly: DiffPoly, images: Mapping[Generator, DiffPoly]) -> DiffPoly:
    """Replace integration-constant generators by polynomials.

    This is a plain algebra map, not a differential substitution: the
    replaced generators never carry derivatives, but their images may, so
    the result does not commute with the derivation (use it for on-shell
    eliminations like C_k -> J_k, never inside derivative-sensitive code).
    """
    n = poly.n
    for gen, img in images.items():
        if not gen.is_constant():
            raise ValueError(f"{gen} is not a constant generator")
        if img.n != n:
            raise AmbientMismatchError("replacement image has wrong ambient N")
    return _map_terms(
        poly, lambda gen: images[gen] if gen in images else DiffPoly.generator(n, gen)
    )


def _map_terms(poly: DiffPoly, image: Callable[[Generator], DiffPoly]) -> DiffPoly:
    """The algebra map sending each generator ``g`` of ``poly`` to
    ``image(g)``, applied term by term; each power is computed once."""
    n = poly.n
    out: dict[Monomial, Scalar] = {}
    powers: dict[tuple[Generator, int], DiffPoly] = {}
    for mono, coeff in poly.terms.items():
        acc = DiffPoly.constant(n, coeff)
        for gen, e in mono.exps:
            pw = powers.get((gen, e))
            if pw is None:
                pw = powers[gen, e] = image(gen) ** e
            acc = acc * pw
        _accumulate(out, acc.terms.items())
    return DiffPoly._tidy(n, out)


class Substitution:
    """Map from base generators to polynomials, extended to all derivative
    orders by the ring derivation (so it automatically commutes with it).

    Generators absent from the map are fixed.  Images of C and PARAM
    generators must be constants of the derivation.
    """

    def __init__(self, n: int, images: Mapping[Generator, DiffPoly]):
        self.n = n
        self.images: dict[Generator, DiffPoly] = {}
        for gen, img in images.items():
            if gen.deriv != 0:
                raise ValueError(f"substitution keys must be base generators, got {gen}")
            if not isinstance(img, DiffPoly):
                img = DiffPoly.constant(n, img)
            if img.n != n:
                raise AmbientMismatchError("substitution image has wrong ambient N")
            if gen.is_constant() and img.derive():
                raise ValueError(
                    f"image of constant generator {gen} must itself be constant"
                )
            self.images[gen] = img
        self._cache: dict[Generator, DiffPoly] = {}

    def image(self, gen: Generator) -> DiffPoly:
        got = self._cache.get(gen)
        if got is not None:
            return got
        base_img = self.images.get(gen.base())
        if base_img is None:
            img = DiffPoly.generator(self.n, gen)
        else:
            img = base_img.derive(gen.deriv)
        self._cache[gen] = img
        return img

    def apply(self, poly: DiffPoly) -> DiffPoly:
        if poly.n != self.n:
            raise AmbientMismatchError("substitution applied across ambient N")
        return _map_terms(poly, self.image)

    def is_weight_preserving(self) -> bool:
        for gen, img in self.images.items():
            if img.is_zero():
                continue
            try:
                if img.weight() != gen.weight(self.n):
                    return False
            except InhomogeneousError:
                return False
        return True

    def __repr__(self) -> str:
        parts = ", ".join(f"{g} -> {img!r}" for g, img in self.images.items())
        return f"Substitution({parts})"
