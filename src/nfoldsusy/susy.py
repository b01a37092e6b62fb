"""N-fold SUSY systems: intertwining conditions and their reductions.

The pipeline mirrors the structure of the underlying identities:

* ``build_system`` / ``derive_conditions`` expand the intertwiner
  P_N^- H^- - H^+ P_N^- and read off the constraint polynomials I_k.
* ``general_potentials`` / ``eliminate_potentials`` solve the top two
  conditions for the potential pair and substitute it away.
* ``ansatz_substitution`` is the dimension-preserving change of variables
  w_k -> u_k with free parameters; ``transformed_conditions`` applies it
  and forms the recombined constraints Ibar_k, which
  ``parameter_substitution`` sets at a preset.
* ``pipeline`` is the memoized entry point running this chain.
* ``solve_parameters`` pins the parameters by making chosen monomials
  vanish; ``check_J0`` verifies the closed-form first integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .config import max_deriv_order
from .diffop import DiffOperator
from .diffring import (
    DerivOrderError,
    DiffPoly,
    Family,
    Generator,
    Monomial,
    Substitution,
    _accumulate,
    alpha,
    beta,
    c,
    gamma,
    param_by_name,
    u,
    vminus,
    vplus,
    w,
)

Half = Fraction(1, 2)


class SusyError(Exception):
    pass


class InfeasibleError(SusyError):
    """No parameter assignment kills the requested target monomials."""


class UnknownParameterError(SusyError):
    pass


@dataclass(frozen=True)
class SusySystem:
    n: int
    charge_minus: DiffOperator
    potential_plus: DiffPoly
    potential_minus: DiffPoly

    @property
    def charge_plus(self) -> DiffOperator:
        return self.charge_minus.transpose()

    @property
    def hamiltonian_plus(self) -> DiffOperator:
        return _hamiltonian(self.n, self.potential_plus)

    @property
    def hamiltonian_minus(self) -> DiffOperator:
        return _hamiltonian(self.n, self.potential_minus)


def _hamiltonian(n: int, potential: DiffPoly) -> DiffOperator:
    return DiffOperator(n, {2: DiffPoly.constant(n, -Half), 0: potential})


@dataclass(frozen=True)
class ConditionSet:
    """Constraint polynomials indexed by the derivative order they multiply.

    ``stage`` is one of ``raw`` (symbolic potentials), ``eliminated``
    (potentials substituted away) or ``transformed`` (after the w -> u
    ansatz and recombination).
    """

    n: int
    stage: str
    ks: tuple[int, ...]
    conditions: tuple[DiffPoly, ...]
    preset: str | None = None

    def condition(self, k: int) -> DiffPoly:
        return self.conditions[self.ks.index(k)]

    def items(self) -> Iterable[tuple[int, DiffPoly]]:
        return zip(self.ks, self.conditions)


def build_system(n: int, symbolic_potentials: bool = True) -> SusySystem:
    """Monic order-n charge with generic coefficients w_{n-1}..w_0 and the
    Schroedinger pair -d^2/2 + V^{+-}."""
    if n < 1:
        raise ValueError("the fold number must be a positive integer")
    coeffs: dict[int, DiffPoly] = {n: DiffPoly.constant(n, 1)}
    for k in range(n):
        coeffs[k] = DiffPoly.generator(n, w(k))
    charge = DiffOperator(n, coeffs)
    if symbolic_potentials:
        vp = DiffPoly.generator(n, vplus())
        vm = DiffPoly.generator(n, vminus())
    else:
        vp, vm = general_potentials(n)
    return SusySystem(n, charge, vp, vm)


def intertwiner(system: SusySystem) -> DiffOperator:
    return (
        system.charge_minus * system.hamiltonian_minus
        - system.hamiltonian_plus * system.charge_minus
    )


def derive_conditions(system: SusySystem) -> ConditionSet:
    """Coefficients I_k of d^k in the intertwiner, k = n down to 0.

    Orders n+1 and n+2 must cancel identically; anything above n would
    signal a broken expansion and raises.
    """
    n = system.n
    op = intertwiner(system)
    for i in op.coeffs:
        if i > n:
            raise SusyError(f"intertwiner has an unexpected order-{i} coefficient")
    ks = tuple(range(n, -1, -1))
    return ConditionSet(n, "raw", ks, tuple(op.coefficient(k) for k in ks))


def general_potentials(n: int) -> tuple[DiffPoly, DiffPoly]:
    """The closed-form potential pair solving the top two conditions:
    V^{+-} = -w_{n-2}/n + ((n-1)/2n +- 1/2) w_{n-1}' + w_{n-1}^2/2n - C0."""
    if n < 2:
        raise ValueError("closed-form potentials need at least a 2-fold system")
    shared = (
        DiffPoly.generator(n, w(n - 2)) * Fraction(-1, n)
        + DiffPoly.generator(n, w(n - 1)) ** 2 * Fraction(1, 2 * n)
        - DiffPoly.generator(n, c(0))
    )
    slope = DiffPoly.generator(n, w(n - 1, 1))
    vp = shared + slope * (Fraction(n - 1, 2 * n) + Half)
    vm = shared + slope * (Fraction(n - 1, 2 * n) - Half)
    return vp, vm


def eliminate_potentials(cs: ConditionSet) -> ConditionSet:
    """Substitute the closed-form potentials; the top two conditions must
    vanish identically and the surviving I_{n-2}..I_0 are returned."""
    if cs.stage != "raw":
        raise SusyError("potential elimination expects raw conditions")
    n = cs.n
    vp, vm = general_potentials(n)
    sub = Substitution(n, {vplus(): vp, vminus(): vm})
    substituted = {k: sub.apply(p) for k, p in cs.items()}
    for k in (n, n - 1):
        if substituted[k]:
            raise SusyError(f"condition I_{k} failed to vanish under the potentials")
    ks = tuple(range(n - 2, -1, -1))
    return ConditionSet(n, "eliminated", ks, tuple(substituted[k] for k in ks))


# -- dimension-preserving ansatz ----------------------------------------------

# Which N has the ansatz, and its presets; each assigns every parameter.
PRESETS: dict[int, dict[str, dict[str, Fraction]]] = {
    2: {"paper": {"alpha0": Fraction(-1, 4)}},
    3: {
        "paper": {
            "alpha1": Fraction(1),
            "beta1": Fraction(-1),
            "beta2": Fraction(-1),
            "beta3": Fraction(1),
        }
    },
    4: {
        "paper": {
            "alpha1": Fraction(3, 2),
            "beta1": Fraction(-9, 4),
            "beta2": Fraction(-1),
            "beta3": Fraction(3, 2),
            "gamma1": Fraction(-1, 2),
            "gamma2": Fraction(1),
            "gamma3": Fraction(11, 8),
            "gamma4": Fraction(-1),
            "gamma5": Fraction(-1, 4),
            "gamma6": Fraction(1, 2),
            "gamma7": Fraction(-3, 8),
        },
        "footnote-alt": {
            "alpha1": Fraction(0),
            "beta1": Fraction(-9, 4),
            "beta2": Fraction(-3, 4),
            "beta3": Fraction(1, 4),
            "gamma1": Fraction(-1, 2),
            "gamma2": Fraction(-1, 2),
            "gamma3": Fraction(-1, 8),
            "gamma4": Fraction(-1),
            "gamma5": Fraction(-1, 4),
            "gamma6": Fraction(0),
            "gamma7": Fraction(1, 16),
        },
    },
}

# The numeric presets' names, in order of first appearance.
PRESET_NAMES = tuple(dict.fromkeys(name for presets in PRESETS.values() for name in presets))


def preset_parameters(n: int, preset: str) -> dict[str, Fraction]:
    if preset == "generic":
        return {}
    try:
        return dict(PRESETS[n][preset])
    except KeyError:
        raise UnknownParameterError(f"no preset {preset!r} for a {n}-fold system") from None


def parameter_substitution(n: int, values: Mapping[str, Fraction]) -> Substitution:
    """Each named parameter of the n-fold ansatz replaced by its value; a
    name the ansatz lacks raises.  The one way a preset enters the engine."""
    for name in values:
        if name not in PRESETS.get(n, {}).get("paper", {}):
            raise UnknownParameterError(f"unknown parameter {name!r} for n={n}")
    return Substitution(
        n, {param_by_name(name): DiffPoly.constant(n, q) for name, q in values.items()}
    )


def ansatz_substitution(n: int) -> Substitution:
    """The polynomial change of variables w_k -> u_k, w_{n-1} and the
    symbolic parameters, which ``parameter_substitution`` sets."""
    if n not in PRESETS:
        raise ValueError(f"no polynomial ansatz is defined for a {n}-fold system")

    def gen(g: Generator) -> DiffPoly:
        return DiffPoly.generator(n, g)

    if n == 2:
        w0_img = gen(u(0)) + gen(w(1, 1)) * Half - gen(alpha(0)) * gen(w(1)) ** 2
        return Substitution(2, {w(0): w0_img})
    if n == 3:
        w1_img = gen(u(1)) * 6 + gen(w(2, 1)) - gen(alpha(1)) * gen(w(2)) ** 2
        w0_img = (
            gen(u(0))
            + gen(u(1, 1)) * 3
            - gen(beta(1)) * gen(w(2, 2))
            - gen(alpha(1)) * gen(w(2)) * gen(w(2, 1))
            - gen(beta(2)) * gen(w(2)) * gen(u(1)) * 6
            - gen(beta(3)) * gen(w(2)) ** 3
        )
        return Substitution(3, {w(1): w1_img, w(0): w0_img})
    if n == 4:
        w2_img = gen(u(2)) + gen(w(3, 1)) * Fraction(3, 2) - gen(alpha(1)) * gen(w(3)) ** 2
        w1_img = (
            gen(u(1))
            + gen(u(2, 1))
            - gen(beta(1)) * gen(w(3, 2))
            - gen(alpha(1)) * gen(w(3)) * gen(w(3, 1)) * 2
            - gen(beta(2)) * gen(w(3)) * gen(u(2))
            - gen(beta(3)) * gen(w(3)) ** 3
        )
        # The quartic parameter enters with a minus sign: that is the
        # orientation consistent with the recombined constraints and the
        # symmetric charge displays at the chosen parameter values.
        w0_img = (
            gen(u(0))
            + gen(u(1, 1)) * Half
            - gen(gamma(1)) * gen(u(2, 2))
            - (gen(beta(1)) * Half + Fraction(1, 4)) * gen(w(3, 3))
            - gen(gamma(2)) * gen(w(3)) * gen(w(3, 2))
            - gen(gamma(3)) * gen(w(3, 1)) ** 2
            - gen(beta(2)) * Half * (gen(w(3)) * gen(u(2))).derive()
            - gen(gamma(4)) * gen(w(3)) * gen(u(1))
            - gen(gamma(5)) * gen(u(2)) ** 2
            - gen(beta(3)) * Fraction(3, 2) * gen(w(3)) ** 2 * gen(w(3, 1))
            - gen(gamma(6)) * gen(w(3)) ** 2 * gen(u(2))
            - gen(gamma(7)) * gen(w(3)) ** 4
        )
        return Substitution(4, {w(2): w2_img, w(1): w1_img, w(0): w0_img})
    raise AssertionError


def inverse_ansatz(n: int) -> Substitution:
    """Express u_k back in terms of the w's by triangular back-substitution,
    the parameters symbolic."""
    forward = ansatz_substitution(n)
    images: dict[Generator, DiffPoly] = {}
    for k in range(n - 2, -1, -1):
        uk = u(k)
        fwd = forward.images[w(k)]
        lead = fwd.coefficient(Monomial.of(uk))
        if not lead:
            raise SusyError(f"ansatz image of w{k} does not involve u{k}")
        rest = fwd - DiffPoly.generator(n, uk) * lead
        resolved = Substitution(n, images).apply(rest)
        images[uk] = (DiffPoly.generator(n, w(k)) - resolved) * Fraction(1, lead)
    return Substitution(n, images)


# How the transformed conditions relate to their displayed normalization.
TRANSFORMED_NOTES: dict[int, dict[int, str]] = {
    2: {0: "displayed as -4*Ibar_0"},
    3: {1: "generic display carries -3*Ibar_1", 0: "generic display carries 3*Ibar_0"},
    4: {2: "displayed as Ibar_2", 1: "generic display carries 4*Ibar_1", 0: "displayed as Ibar_0"},
}


def apply_combo(
    combo: Mapping[int, Mapping[int, Fraction | DiffPoly]],
    cs: ConditionSet | Sequence[tuple[int, DiffPoly]],
) -> DiffPoly:
    """Expand sum_j sum_p coeff * d^p(condition_j) into one sum, deriving each
    condition along one tower d^0, d^1, ... that stops once it vanishes."""
    conds = dict(cs.items() if isinstance(cs, ConditionSet) else cs)
    if not conds:
        raise ValueError("apply_combo needs at least one condition")
    out: dict[Monomial, Fraction | int] = {}
    for j, powers in combo.items():
        tower = [conds[j]]
        for power, coeff in powers.items():
            if power < 0:
                raise ValueError("cannot integrate by deriving a negative number of times")
            while len(tower) <= power and tower[-1]:
                tower.append(tower[-1].derive())
            _accumulate(out, (coeff * tower[min(power, len(tower) - 1)]).terms.items())
    return DiffPoly._tidy(next(iter(conds.values())).n, out)


def transformed_conditions(n: int, preset: str = "generic") -> ConditionSet:
    """The eliminated conditions under the ansatz, recombined into
    Ibar_{n-2}..Ibar_0; at a numeric preset, the generic ones with the
    parameters set.

    Row i of the recombination is ``{j: {p: coeff}}``, giving
    Ibar_i = sum_j sum_p coeff * d^p(I_j substituted).  These are the
    combinations under which the recombined constraints collapse, at the
    preferred parameter values, to the short symmetric forms.  The middle
    4-fold row needs a parameter-dependent multiple of the top constraint
    to absorb the u_1' terms the ansatz drags in."""
    values = preset_parameters(n, preset)
    if values:
        generic, sub = pipeline(n, "transformed"), parameter_substitution(n, values)
        out = tuple(sub.apply(p) for p in generic.conditions)
        return ConditionSet(n, "transformed", generic.ks, out, preset=preset)
    cs = pipeline(n, "eliminated")
    sub = ansatz_substitution(n)
    substituted = [(k, sub.apply(p)) for k, p in cs.items()]
    if n == 2:
        rows = [{0: {0: 1}}]
    elif n == 3:
        rows = [{1: {0: 1}}, {1: {1: 1}, 0: {0: -2}}]
    else:  # n == 4: ansatz_substitution has refused every other n
        g4w3 = DiffPoly.generator(4, gamma(4)) * DiffPoly.generator(4, w(3))
        rows = [
            {2: {0: 4}},
            {2: {1: -1, 0: g4w3}, 1: {0: 1}},
            {2: {2: -4}, 1: {1: 8}, 0: {0: -16}},
        ]
    out = tuple(apply_combo(row, substituted) for row in rows)
    return ConditionSet(n, "transformed", cs.ks, out, preset=preset)


STAGES = ("raw", "eliminated", "transformed")


def pipeline(n: int, stage: str, preset: str = "generic") -> ConditionSet:
    """The n-fold constraint set at a stage of raw -> eliminated ->
    transformed (at the preset, which the first two ignore), memoized: a
    repeated call returns the same object.

    The raw stage needs the derivative cap ``NFOLDSUSY_MAX_DERIV`` at n or
    more, the later stages at n + 1 or more.  Below that the call raises
    ``DerivOrderError`` before building anything, memoized or not; the cap
    never changes a result."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    need = n if stage == "raw" else n + 1
    if max_deriv_order() < need:
        raise DerivOrderError(
            f"the {stage} stage at N={n} needs NFOLDSUSY_MAX_DERIV >= {need},"
            " above the configured cap"
        )
    return _pipeline(n, stage, preset if stage == "transformed" else None)


@lru_cache(maxsize=128)
def _pipeline(n: int, stage: str, preset: str | None) -> ConditionSet:
    if stage == "raw":
        return derive_conditions(build_system(n))
    if stage == "eliminated":
        return eliminate_potentials(_pipeline(n, "raw", None))
    return transformed_conditions(n, preset)


def transformed_system(n: int, preset: str = "generic") -> SusySystem:
    """Charge and potentials rewritten in the u variables at a preset."""
    pm = parameter_substitution(n, preset_parameters(n, preset))
    sub = Substitution(n, {g: pm.apply(p) for g, p in ansatz_substitution(n).images.items()})
    base = build_system(n, symbolic_potentials=False)
    charge = DiffOperator(
        n, {i: sub.apply(p) for i, p in base.charge_minus.coeffs.items()}
    )
    return SusySystem(n, charge, sub.apply(base.potential_plus), sub.apply(base.potential_minus))


# -- parameter solving ---------------------------------------------------------

TargetList = Sequence[tuple[int, Monomial]]

# Target monomials whose coefficients the presets annihilate, stated as
# (condition index, monomial expression).
TARGET_SETS: dict[int, dict[str, tuple[tuple[int, str], ...]]] = {
    2: {"paper": ((0, "w1^2*w1'"),)},
    3: {
        "paper": (
            (1, "w2'''"),
            (1, "w2'*u1"),
            (1, "w2^2*w2'"),
            (0, "w2*w2'''"),
            (0, "w2'*w2''"),
            (0, "w2*w2'*u1"),
            (0, "w2^3*w2'"),
        )
    },
    4: {
        "paper": (
            (2, "w3'''"),
            (2, "w3'*u2"),
            (2, "w3^2*w3'"),
            (1, "u2'''"),
            (1, "w3*w3'''"),
            (1, "w3'*w3''"),
            (1, "w3'*u1"),
            (1, "u2*u2'"),
            (1, "w3*w3'*u2"),
            (1, "w3^2*u2'"),
            (1, "w3^3*w3'"),
            (0, "w3*w3'*u1"),
        ),
        "footnote-alt": (
            (2, "w3'''"),
            (2, "w3*u2'"),
            (2, "w3^2*w3'"),
            (1, "u2'''"),
            (1, "w3*w3'''"),
            (1, "w3'*w3''"),
            (1, "w3'*u1"),
            (1, "u2*u2'"),
            (1, "w3*w3'*u2"),
            (1, "w3^2*u2'"),
            (1, "w3^3*w3'"),
        ),
    },
}


def target_monomials(n: int, preset: str) -> TargetList:
    from .parsing import parse

    try:
        raw = TARGET_SETS[n][preset]
    except KeyError:
        raise UnknownParameterError(f"no target set {preset!r} for n={n}") from None
    out = []
    for k, expr in raw:
        poly = parse(expr, n)
        (mono,) = poly.terms
        out.append((k, mono))
    return out


@dataclass(frozen=True)
class ParamSolution:
    """Assignments may reference free parameters (as polynomials in them)."""

    n: int
    assignments: dict[str, DiffPoly]
    free: tuple[str, ...]

    @property
    def is_point(self) -> bool:
        return not self.free

    def values(self) -> dict[str, Fraction]:
        if self.free:
            raise SusyError("solution is a family, not a single point")
        out = {}
        for name, poly in self.assignments.items():
            out[name] = poly.coefficient(Monomial.unit())
        return out


def _split_parameters(poly: DiffPoly) -> dict[Monomial, DiffPoly]:
    """Group a polynomial by its non-parameter monomial part; values are
    the parameter-only coefficient polynomials."""
    buckets: dict[Monomial, dict[Monomial, Fraction]] = {}
    for mono, coeff in poly.terms.items():
        geo = []
        par = []
        for g, e in mono.exps:
            (par if g.family is Family.PARAM else geo).append((g, e))
        buckets.setdefault(Monomial(geo), {})[Monomial(par)] = coeff
    return {geo: DiffPoly(poly.n, terms) for geo, terms in buckets.items()}


def _target_equations(cs: ConditionSet, targets: TargetList) -> Iterator[DiffPoly]:
    """Per target (k, monomial), the monomial's coefficient in condition k as
    a polynomial in the parameters, zero where the monomial is absent; each
    condition is split once."""
    split: dict[int, dict[Monomial, DiffPoly]] = {}
    for k, mono in targets:
        if k not in split:
            split[k] = _split_parameters(cs.condition(k))
        yield split[k].get(mono, DiffPoly.zero(cs.n))


def _param_unknowns(polys: Iterable[DiffPoly]) -> list[str]:
    """The parameters the polynomials hold, in ``Generator`` order, which
    is alpha < beta < gamma, then by index."""
    gens = {g for p in polys for m in p.terms for g in m.generators()}
    return [g.token() for g in sorted(gens) if g.family is Family.PARAM]


def _pivot(
    unknowns: Sequence[str], pending: Sequence[DiffPoly]
) -> tuple[str, DiffPoly] | None:
    """The first unknown, then the first equation, in which the unknown
    occurs only as a lone linear term with a rational coefficient; returns
    it with the image that solves that equation for it."""
    for name in unknowns:
        gen = param_by_name(name)
        lone = Monomial.of(gen)
        for eq in pending:
            ratio = eq.coefficient(lone)
            if ratio and all(m == lone or not m.exponent(gen) for m in eq.terms):
                return name, (eq - DiffPoly.monomial(eq.n, lone, ratio)) * Fraction(-1, ratio)
    return None


def solve_parameters(
    n: int,
    targets: TargetList,
    fixed: Mapping[str, Fraction] | None = None,
) -> ParamSolution:
    """Solve, over Q, for parameter values making the coefficients of the
    target monomials vanish in the transformed constraints.

    Resolution is triangular in the alpha < beta < gamma order: an unknown
    is pinned from an equation in which it occurs linearly with a rational
    coefficient, the pin is substituted once into the pending equations and
    the earlier assignments, and the process repeats.  Unresolved
    parameters are reported as free, with the other assignments given as
    polynomials in them.
    """
    equations = list(_target_equations(pipeline(n, "transformed"), targets))
    for gen, value in parameter_substitution(n, fixed or {}).images.items():
        equations.append(DiffPoly.generator(n, gen) - value)

    unknowns = _param_unknowns(equations)
    assignments: dict[str, DiffPoly] = {}
    pending = equations
    while True:
        if any(eq and all(m.is_unit() for m in eq.terms) for eq in pending):
            raise InfeasibleError("targets force a nonzero constant to vanish")
        pin = _pivot(unknowns, pending)
        if pin is None:
            break
        name, image = pin
        sub = Substitution(n, {param_by_name(name): image})
        pending = [sub.apply(eq) for eq in pending]
        assignments = {other: sub.apply(img) for other, img in assignments.items()}
        assignments[name] = image
    if any(pending):
        raise InfeasibleError(
            "target system does not reduce to triangular linear form"
        )
    free = tuple(name for name in unknowns if name not in assignments)
    return ParamSolution(n, assignments, free)


def is_parameter_solution(
    n: int, targets: TargetList, values: Mapping[str, Fraction]
) -> bool:
    """Check a concrete assignment against a target set directly."""
    cs = pipeline(n, "transformed")
    sub = parameter_substitution(n, values)
    return not any(sub.apply(eq) for eq in _target_equations(cs, targets))


# -- the J0 integral -----------------------------------------------------------


@dataclass(frozen=True)
class J0Report:
    n: int
    passed: bool
    residual: DiffPoly
    j0: DiffPoly

    def __bool__(self) -> bool:
        return self.passed


def check_J0(n: int) -> J0Report:
    """Verify d(J0)/dq = (w_{n-1} I_n - I_{n-1}) / n.

    J0 is what the closed-form potential pair isolates as the constant:
    J0 = -V^- - w_{n-2}/n - w_{n-1}'/2n + w_{n-1}^2/2n.  (The derivative
    term must enter with the minus sign; the plus variant is inconsistent
    with the potential pair and fails the identity for every n.)
    """
    if n < 2:
        raise ValueError("the J0 identity needs at least a 2-fold system")
    cs = pipeline(n, "raw")
    j0 = (
        -DiffPoly.generator(n, vminus())
        - DiffPoly.generator(n, w(n - 2)) * Fraction(1, n)
        - DiffPoly.generator(n, w(n - 1, 1)) * Fraction(1, 2 * n)
        + DiffPoly.generator(n, w(n - 1)) ** 2 * Fraction(1, 2 * n)
    )
    expected = (
        DiffPoly.generator(n, w(n - 1)) * cs.condition(n) - cs.condition(n - 1)
    ) * Fraction(1, n)
    residual = j0.derive() - expected
    return J0Report(n, residual.is_zero(), residual, j0)


# -- closed-form general-N expressions ----------------------------------------
#
# These rebuild the displayed general-N formulas directly from their stated
# coefficients, independently of the intertwiner expansion, so the two
# routes cross-check each other at concrete N.


def _wgen(n: int, k: int, m: int = 0) -> DiffPoly:
    """w_k with out-of-range indices treated as absent (zero)."""
    if k < 0:
        return DiffPoly.zero(n)
    return DiffPoly.generator(n, w(k, m))


def general_top_condition(n: int) -> DiffPoly:
    """I_n = w_{n-1}' - (V+ - V-)."""
    return (
        _wgen(n, n - 1, 1)
        - DiffPoly.generator(n, vplus())
        + DiffPoly.generator(n, vminus())
    )


def general_second_condition(n: int) -> DiffPoly:
    """2 I_{n-1} = w_{n-1}'' + 2 w_{n-2}' + 2n V-' - 2 w_{n-1}(V+ - V-)."""
    vdiff = DiffPoly.generator(n, vplus()) - DiffPoly.generator(n, vminus())
    return (
        _wgen(n, n - 1, 2)
        + _wgen(n, n - 2, 1) * 2
        + DiffPoly.generator(n, vminus(1)) * (2 * n)
        - _wgen(n, n - 1) * vdiff * 2
    )


def general_inm2(n: int) -> DiffPoly:
    """The displayed value of -4n I_{n-2} after potential elimination."""
    wm1 = lambda m=0: _wgen(n, n - 1, m)
    wm2 = lambda m=0: _wgen(n, n - 2, m)
    wm3 = lambda m=0: _wgen(n, n - 3, m)
    return (
        wm1(3) * (n * (n - 1))
        + wm2(2) * (2 * n * (n - 2))
        - wm3(1) * (4 * n)
        - wm1() * wm1(2) * (2 * (n - 1) ** 2)
        - wm1(1) ** 2 * (2 * n * (n - 1))
        + wm1(1) * wm2() * (4 * n)
        + wm1() * wm2(1) * (4 * (n - 1))
        - wm1() ** 2 * wm1(1) * (4 * (n - 1))
    )


def general_inm3(n: int) -> DiffPoly:
    """The displayed value of -12n I_{n-3} after potential elimination;
    the w_{n-4} term drops out for n = 3."""
    wm1 = lambda m=0: _wgen(n, n - 1, m)
    wm2 = lambda m=0: _wgen(n, n - 2, m)
    wm3 = lambda m=0: _wgen(n, n - 3, m)
    wm4 = lambda m=0: _wgen(n, n - 4, m)
    return (
        (wm1(4) + wm2(3) * 2) * (n * (n - 1) * (n - 2))
        - (wm3(2) + wm4(1) * 2) * (6 * n)
        - (
            wm1() * wm1(3) * (2 * n - 3)
            + wm1(1) * wm1(2) * (6 * n)
        )
        * ((n - 1) * (n - 2))
        + (wm1(2) * wm2() + wm1() * wm2(2) * (n - 1)) * (6 * (n - 2))
        + wm1(1) * wm3() * (12 * n)
        + wm2() * wm2(1) * (12 * (n - 2))
        - (wm1() ** 2 * wm1(2) + wm1() * wm1(1) ** 2) * (6 * (n - 1) * (n - 2))
        - wm1() * wm1(1) * wm2() * (12 * (n - 2))
    )
