"""Verification suites: every corpus entry re-derived and compared.

Each suite returns a report with one named check per verified fact; the
CLI renders these and turns failures into exit codes, and the acceptance
tests reuse them directly.

Every display golden and ``preset:`` check is one display check:
``_cleared`` judges engine x denominator - display on each derivative
order (``_differences``).  A check that raises fails through ``_guard``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import goldens, reduction, susy
from .diffop import DiffOperator
from .diffring import DerivOrderError, DiffPoly, replace_constants, w as w_gen
from .formatting import format_poly, poly_from_json, poly_to_json
from .parsing import parse


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append(CheckResult(name, passed, detail))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
        }


# -- helpers -------------------------------------------------------------------


@contextmanager
def _guard(report: SuiteReport, name: str):
    """Turn an exception inside the block into the failed check ``name``
    with detail ``Type: message``.  ``DerivOrderError`` propagates: a
    derivative cap too low for the job is a usage error, not a failure."""
    try:
        yield
    except DerivOrderError:
        raise
    except Exception as exc:
        report.add(name, False, f"{type(exc).__name__}: {exc}")


@lru_cache(maxsize=32)
def _engine_system(n: int, stage: str, preset: str) -> susy.SusySystem:
    """A golden's system: closed-form potentials (``base``) or the u
    variables at a preset.  Unlike ``pipeline`` the memo ignores the
    derivative cap; the displays it is compared with need the same cap
    to parse."""
    if stage == "base":
        return susy.build_system(n, symbolic_potentials=False)
    return susy.transformed_system(n, preset)


# -- the goldens suite ----------------------------------------------------------


def _cleared(diff: DiffPoly, n: int, preset: str, mode: str,
             constants: dict | None) -> str | None:
    """Why a cleared display fails, or None when it holds.

    ``csubst-*`` modes first replace the integration constants by their
    integral polynomials, the map ``constants``; ``*exact`` modes need the
    difference to vanish, the others only that it lie in the constraint
    module: the transformed conditions plus the relations that define the
    integral constants.
    """
    if mode.startswith("csubst"):
        diff = replace_constants(diff, constants)
    if diff.is_zero():
        return None
    if mode.endswith("exact"):
        return "not exact"
    relations = [(100 + k, goldens.integral_relation(n, k, preset))
                 for k in goldens.integral_entries(n, preset)]
    module = [*susy.pipeline(n, "transformed", preset).items(), *relations]
    if reduction.ideal_membership(diff, module) is None:
        return "not in the constraint module"
    return None


def _differences(e: goldens.GoldenEntry, preset: str,
                 sub: susy.Substitution | None = None) -> dict[int, DiffPoly | None]:
    """engine x denominator - display for a display golden at ``preset``,
    the display's parameters instantiated by ``sub`` when given, on every
    order of either side (a polynomial is order 0); None marks an order
    with no denominator.  The denominator is displayed for the
    ``*-identity`` kinds, else the constant ``scale`` or ``prefactor``."""
    n, kind, data = e.n, e.kind, e.data
    family = kind.split("-")[0]
    if kind == "condition":
        engine = {0: susy.pipeline(n, data["stage"], preset).condition(data["k"])}
    elif kind == "ansatz":
        engine = {0: susy.ansatz_substitution(n).images[w_gen(int(data["target"][1:]))]}
    elif kind == "identity":
        engine = {0: e.poly("lhs")}
    else:
        system = _engine_system(n, data.get("stage", "transformed"), preset)
        got = getattr(system, f"{family}_{data['sign']}")
        engine = got.coeffs if family == "charge" else {0: got}
    if family == "charge":
        display = e.parsed("coeffs")
    else:
        display = {0: e.poly("rhs" if kind == "identity" else "expression")}
    if sub is not None:
        display = {order: sub.apply(p) for order, p in display.items()}
    orders = sorted(set(engine) | set(display), reverse=True)
    if kind == "charge-identity":
        dens = e.parsed("denominators")
    elif kind == "potential-identity":
        dens = {0: e.poly("denominator")}
    else:
        dens = dict.fromkeys(orders, e.scale("prefactor" if kind == "potential" else "scale"))
    zero = DiffPoly.zero(n)
    return {o: engine.get(o, zero) * dens[o] - display.get(o, zero) if o in dens else None
            for o in orders}


def _check_display(report: SuiteReport, name: str, e: goldens.GoldenEntry,
                   preset: str, sub: susy.Substitution | None = None) -> None:
    """One display golden: every difference goes through ``_cleared`` in
    the entry's mode, ``exact`` unless it names another."""
    with _guard(report, name):
        mode = e.data.get("mode", "exact")
        constants = goldens.constants(e.n, preset) if mode.startswith("csubst") else None
        failures = []
        for order, diff in _differences(e, preset, sub).items():
            why = ("has no denominator" if diff is None
                   else _cleared(diff, e.n, preset, mode, constants))
            if why:
                failures.append(f"order {order} {why}")
        notes = {"condition": "display vs derivation", "identity": "cleared display "
                 + ("is exact" if mode.endswith("exact") else "reduces to constraints")}
        report.add(name, not failures, "; ".join(failures) or notes.get(e.kind, ""))


def _first_inhomogeneous(parsed: dict[str, DiffPoly]) -> str | None:
    return next((expr for expr, poly in parsed.items()
                 if poly and not poly.is_homogeneous()), None)


def _structural_failure(e: goldens.GoldenEntry) -> str:
    """Why an entry's expressions are malformed, or "" when they are sound."""
    parsed = e.expressions()
    bad = _first_inhomogeneous(parsed)
    if bad is not None:
        return f"inhomogeneous: {bad[:40]}"
    for poly in parsed.values():
        if parse(format_poly(poly), e.n) != poly:
            return "plain round-trip failed"
        if poly_from_json(poly_to_json(poly)) != poly:
            return "json round-trip failed"
    return ""


def _structural_checks(report: SuiteReport) -> None:
    for e in goldens.corpus().values():
        with _guard(report, f"corpus:{e.id}"):
            detail = _structural_failure(e)
            report.add(f"corpus:{e.id}", not detail, detail)


def _general_n_checks(report: SuiteReport) -> None:
    for n in range(2, 7):
        raw = susy.pipeline(n, "raw")
        report.add(
            f"general-top:n={n}",
            raw.condition(n) == susy.general_top_condition(n),
        )
        report.add(
            f"general-second:n={n}",
            raw.condition(n - 1) * 2 == susy.general_second_condition(n),
        )
        el = susy.pipeline(n, "eliminated")
        report.add(
            f"general-inm2:n={n}",
            el.condition(n - 2) * (-4 * n) == susy.general_inm2(n),
        )
        if n >= 3:
            report.add(
                f"general-inm3:n={n}",
                el.condition(n - 3) * (-12 * n) == susy.general_inm3(n),
            )
        vp, vm = susy.general_potentials(n)
        report.add(
            f"general-vdiff:n={n}",
            vp - vm == DiffPoly.generator(n, w_gen(n - 1, 1)),
        )


def _preset_instantiation_checks(report: SuiteReport) -> None:
    """Generic-parameter goldens, instantiated at the presets, must agree
    with the engine objects built directly at those presets."""
    for n, presets in susy.PRESETS.items():
        for preset, values in presets.items():
            sub = susy.parameter_substitution(n, values)
            for e in goldens.corpus().values():
                if e.n == n and e.preset == "generic" and e.kind in ("charge", "potential"):
                    _check_display(report, f"preset:{preset}:{e.id}", e, preset, sub)


def _parameter_checks(report: SuiteReport) -> None:
    for n in susy.PRESETS:
        sol = susy.solve_parameters(n, susy.target_monomials(n, "paper"))
        report.add(
            f"solve-parameters:n={n}",
            sol.is_point and sol.values() == susy.PRESETS[n]["paper"],
        )
    fixed = susy.solve_parameters(
        4, susy.target_monomials(4, "footnote-alt"), fixed={"alpha1": Fraction(0)}
    )
    report.add(
        "solve-parameters:footnote-alt",
        fixed.is_point and fixed.values() == susy.PRESETS[4]["footnote-alt"],
    )
    family = susy.solve_parameters(4, susy.target_monomials(4, "footnote-alt"))
    report.add("solve-parameters:footnote-family", len(family.free) == 1)
    report.add(
        "solve-parameters:footnote-is-solution",
        susy.is_parameter_solution(
            4, susy.target_monomials(4, "footnote-alt"), susy.PRESETS[4]["footnote-alt"]
        ),
    )


def suite_goldens() -> SuiteReport:
    report = SuiteReport("goldens")
    _structural_checks(report)
    for e in goldens.corpus().values():
        if e.kind not in ("integral", "residual", "jw-shift"):  # run in their suites
            _check_display(report, f"golden:{e.id}", e, e.preset)
    _general_n_checks(report)
    _preset_instantiation_checks(report)
    _parameter_checks(report)
    return report


# -- weights suite ---------------------------------------------------------------


def suite_weights() -> SuiteReport:
    report = SuiteReport("weights")
    for e in goldens.corpus().values():
        with _guard(report, f"homogeneous:{e.id}"):
            bad = _first_inhomogeneous(e.expressions())
            report.add(f"homogeneous:{e.id}", bad is None, (bad or "")[:48])
    for n in range(2, 7):
        raw = susy.pipeline(n, "raw")
        ok = all(
            (not p) or p.weight() == n + 2 - k for k, p in raw.items()
        )
        report.add(f"condition-weights:n={n}", ok)
        system = susy.build_system(n)
        report.add(
            f"charge-weight:n={n}",
            system.charge_minus.operator_weight() == n
            and susy.intertwiner(system).operator_weight() == n + 2,
        )
    for n in susy.PRESETS:
        sub = susy.ansatz_substitution(n)
        report.add(f"ansatz-weight-preserving:n={n}", sub.is_weight_preserving())
    return report


# -- products suite ---------------------------------------------------------------


def suite_products() -> SuiteReport:
    report = SuiteReport("products")
    for n in susy.PRESETS:
        rep = reduction.verify_product(n)
        for name, side in rep.sides.items():
            bad = [o for o, ok in side.matches_display.items() if not ok]
            report.add(
                f"product-display:n={n}:{name}",
                not bad,
                f"orders {bad}" if bad else "",
            )
            report.add(
                f"product-equivalence:n={n}:{name}",
                bool(side.equivalence),
                "",
            )
    return report


# -- integrals suite ---------------------------------------------------------------


def run_search(n: int, k: int, preset: str = "paper", policy: str = "multiplicative",
               max_deriv: int | None = None) -> reduction.IntegralConstant:
    cs = susy.pipeline(n, "transformed", preset)
    relations = goldens.search_relations(n, k, preset)
    return reduction.search_integral(cs, k, policy=policy, relations=relations,
                                     max_deriv=max_deriv)


def _check_integral(report: SuiteReport, e: goldens.GoldenEntry) -> None:
    n, k, preset = e.n, e.data["k"], e.preset
    found = run_search(n, k, preset)
    display = e.poly()
    expected = found.j_poly * e.scale()
    cs = susy.pipeline(n, "transformed", preset)
    if "completion" in e.data:
        comp = e.parsed("completion")
        expected = expected + reduction.apply_combo(comp["combo"], cs) + comp["kernel"]
    report.add(f"integral:{e.id}", display == expected, "display vs search")

    # multiplier identifications: the listed condition multipliers must be
    # a common rational multiple of the displayed choices
    if e.data.get("mult_checks"):
        ratios = set()
        for j, want in e.parsed("mult_checks").items():
            op = found.multipliers.get(j, DiffOperator.zero(n))
            got = op.coefficient(0) if set(op.coeffs) == {0} else DiffPoly.zero(n)
            lm = want.leading_monomial()
            lam = Fraction(got.coefficient(lm), want.coefficient(lm))
            ratios.add(lam if lam and got == want * lam else None)
        report.add(f"integral-multipliers:{e.id}", len(ratios) == 1 and None not in ratios)

    # weight bookkeeping: weight(L_kj) + weight(condition_j) = 2k+3
    ok = True
    for j, op in found.multipliers.items():
        for order, coeff in op.coeffs.items():
            if coeff.weight() + order + cs.condition(j).weight() != 2 * k + 3:
                ok = False
    report.add(f"integral-weights:{e.id}", ok)
    report.add(f"integral-jweight:{e.id}", found.j_poly.weight() == 2 * (k + 1))


def suite_integrals() -> SuiteReport:
    report = SuiteReport("integrals")
    for e in goldens.corpus().values():
        if e.kind == "integral":
            with _guard(report, f"integral:{e.id}"):
                _check_integral(report, e)
    # trade-off observations for the alternative branch
    with _guard(report, "footnote-tradeoff"):
        j2_alt = goldens.entry("fn4-J2").poly()
        u1_linear = any(
            any(g.family.name == "U" and g.index == 1 and exp == 1 for g, exp in m.exps)
            for m in j2_alt.terms
        )
        report.add("footnote-tradeoff:J2-linear-u1", u1_linear)
        j3_alt = goldens.entry("fn4-J3").poly()
        j3_main = goldens.entry("4fC3").poly()
        report.add(
            "footnote-tradeoff:J3-simpler",
            len(j3_alt.terms) < len(j3_main.terms),
        )
    return report


# -- first-integral suite -----------------------------------------------------------


def suite_jzero() -> SuiteReport:
    report = SuiteReport("jzero")
    for n in range(2, 7):
        j0 = susy.check_J0(n)
        report.add(f"jzero:n={n}", j0.passed)
        # multiplier weights: L_{0n} = w_{n-1}/n carries weight 1, the
        # next one is a pure number
        report.add(
            f"jzero-weights:n={n}",
            DiffPoly.generator(n, w_gen(n - 1)).weight() == 1,
        )
    return report


SUITES: dict[str, Callable[[], SuiteReport]] = {
    "goldens": suite_goldens,
    "weights": suite_weights,
    "products": suite_products,
    "integrals": suite_integrals,
    "jzero": suite_jzero,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str) -> list[SuiteReport]:
    if name == "all":
        return [suite() for suite in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return [SUITES[name]()]
