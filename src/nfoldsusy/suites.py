"""Verification suites: every corpus entry re-derived and compared.

Each suite returns a report with one named check per verified fact; the
CLI renders these and turns failures into exit codes, and the acceptance
tests reuse them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import goldens, reduction, susy
from .diffop import DiffOperator
from .diffring import DerivOrderError, DiffPoly, c, replace_constants, w as w_gen
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


def _engine_system(n: int, stage: str, preset: str) -> susy.SusySystem:
    """A golden's system: closed-form potentials (``base``) or the u
    variables at a preset; its ``sign`` picks ``charge_<sign>`` and
    ``potential_<sign>``."""
    if stage == "base":
        return susy.build_system(n, symbolic_potentials=False)
    return susy.transformed_system(n, preset)


def _csubst(poly: DiffPoly, n: int, preset: str) -> DiffPoly:
    """Replace integration constants by their integral polynomials."""
    images = {}
    for k in goldens.integral_entries(n, preset):
        images[c(k)] = goldens.displayed_j(n, k, preset)
    return replace_constants(poly, images)


def _relations_conditions(n: int, preset: str):
    """Transformed conditions plus the integral-definition relations, for
    membership checks of cleared rational displays."""
    extended = list(susy.pipeline(n, "transformed", preset).items())
    for k in goldens.integral_entries(n, preset):
        extended.append((100 + k, goldens.integral_relation(n, k, preset)))
    return extended


# -- the goldens suite ----------------------------------------------------------


def _cleared(diff: DiffPoly, n: int, preset: str, mode: str) -> str | None:
    """Why a cleared display fails, or None when it holds.

    ``csubst-*`` modes first replace the integration constants by their
    integral polynomials; ``*exact`` modes need the difference to vanish,
    the others only that it lie in the constraint module.
    """
    if mode.startswith("csubst"):
        diff = _csubst(diff, n, preset)
    if diff.is_zero():
        return None
    if mode.endswith("exact"):
        return "not exact"
    if reduction.ideal_membership(diff, _relations_conditions(n, preset)) is None:
        return "not in the constraint module"
    return None


def _check_condition(report: SuiteReport, e: goldens.GoldenEntry) -> None:
    cs = susy.pipeline(e.n, e.data["stage"], e.preset)
    engine = cs.condition(e.data["k"]) * e.scale()
    report.add(f"golden:{e.id}", engine == e.poly(), "display vs derivation")


def _matches_system(
    system: susy.SusySystem, e: goldens.GoldenEntry, sub: susy.Substitution | None = None
) -> bool:
    """A charge or potential golden, its parameters instantiated by ``sub``
    when given, against the engine's system."""
    engine = getattr(system, f"{e.kind}_{e.data['sign']}")
    if e.kind == "charge":
        display = e.operator()
        if sub is not None:
            display = DiffOperator(e.n, {i: sub.apply(p) for i, p in display.coeffs.items()})
        return engine == display
    display = e.poly() if sub is None else sub.apply(e.poly())
    return engine * Fraction(e.data.get("prefactor", "1")) == display


def _check_system(report: SuiteReport, e: goldens.GoldenEntry) -> None:
    system = _engine_system(e.n, e.data["stage"], e.preset)
    report.add(f"golden:{e.id}", _matches_system(system, e))


def _check_ansatz(report: SuiteReport, e: goldens.GoldenEntry) -> None:
    sub = susy.ansatz_substitution(e.n)
    target = e.data["target"]
    gen = w_gen(int(target[1:]))
    report.add(f"golden:{e.id}", sub.images[gen] == e.poly())


def _check_identity(report: SuiteReport, e: goldens.GoldenEntry) -> None:
    mode = e.data["mode"]
    failure = _cleared(e.poly("lhs") - e.poly("rhs"), e.n, e.preset, mode)
    detail = "is exact" if mode.endswith("exact") else "reduces to constraints"
    report.add(f"golden:{e.id}", failure is None, f"cleared display {detail}")


def _check_charge_identity(report: SuiteReport, e: goldens.GoldenEntry) -> None:
    n, preset, mode = e.n, e.preset, e.data["mode"]
    engine = getattr(_engine_system(n, "transformed", preset), "charge_" + e.data["sign"])
    coeffs = e.parsed("coeffs")
    details = []
    for order, den in e.parsed("denominators").items():
        diff = engine.coefficient(order) * den - coeffs[order]
        failure = _cleared(diff, n, preset, mode)
        if failure:
            details.append(f"order {order} {failure}")
    report.add(f"golden:{e.id}", not details, "; ".join(details))


def _check_potential_identity(report: SuiteReport, e: goldens.GoldenEntry) -> None:
    n, preset = e.n, e.preset
    engine = getattr(_engine_system(n, "transformed", preset), "potential_" + e.data["sign"])
    diff = engine * e.poly("denominator") - e.poly()
    report.add(f"golden:{e.id}", _cleared(diff, n, preset, e.data["mode"]) is None)


def _first_inhomogeneous(parsed: dict[str, DiffPoly]) -> str | None:
    return next((expr for expr, poly in parsed.items()
                 if poly and not poly.is_homogeneous()), None)


def _structural_failure(e: goldens.GoldenEntry) -> str:
    """Why an entry's expressions are malformed, or "" when they are sound."""
    try:
        parsed = e.expressions()
    except DerivOrderError:
        raise
    except Exception as exc:
        return f"parse failure: {exc}"
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
    for n, preset in ((2, "paper"), (3, "paper"), (4, "paper"), (4, "footnote-alt")):
        sub = susy.parameter_substitution(n, susy.preset_parameters(n, preset))
        system = susy.transformed_system(n, preset)
        for e in goldens.corpus().values():
            if e.n == n and e.preset == "generic" and e.kind in ("charge", "potential"):
                report.add(f"preset:{preset}:{e.id}", _matches_system(system, e, sub))


def _parameter_checks(report: SuiteReport) -> None:
    for n in (2, 3, 4):
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
    handlers = {
        "condition": _check_condition,
        "charge": _check_system,
        "potential": _check_system,
        "ansatz": _check_ansatz,
        "identity": _check_identity,
        "charge-identity": _check_charge_identity,
        "potential-identity": _check_potential_identity,
    }
    for e in goldens.corpus().values():
        handler = handlers.get(e.kind)
        if handler is None:
            continue  # integral / residual / jw-shift entries run in their suites
        try:
            handler(report, e)
        except DerivOrderError:
            raise
        except Exception as exc:
            report.add(f"golden:{e.id}", False, f"{type(exc).__name__}: {exc}")
    _general_n_checks(report)
    _preset_instantiation_checks(report)
    _parameter_checks(report)
    return report


# -- weights suite ---------------------------------------------------------------


def suite_weights() -> SuiteReport:
    report = SuiteReport("weights")
    for e in goldens.corpus().values():
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
    for n in (2, 3, 4):
        sub = susy.ansatz_substitution(n)
        report.add(f"ansatz-weight-preserving:n={n}", sub.is_weight_preserving())
    return report


# -- products suite ---------------------------------------------------------------


def suite_products() -> SuiteReport:
    report = SuiteReport("products")
    for n in (2, 3, 4):
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
            lam = got.coefficient(lm) / want.coefficient(lm)
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
        if e.kind != "integral":
            continue
        try:
            _check_integral(report, e)
        except DerivOrderError:
            raise
        except Exception as exc:
            report.add(f"integral:{e.id}", False, f"{type(exc).__name__}: {exc}")
    # trade-off observations for the alternative branch
    try:
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
    except DerivOrderError:
        raise
    except Exception as exc:
        report.add("footnote-tradeoff", False, str(exc))
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
