"""The benchmark's workloads: operations built from a seed, and the checks
their outputs must pass.

Every operation is one call a user makes: a CLI command through
``cli.main`` or one ``ideal_membership`` decision.  Library functions are
looked up on their modules at call time, so a traced run sees them
through the wrappers that ``layers.Tracer`` installs.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from nfoldsusy import cli, goldens, parsing, reduction, suites, susy
from nfoldsusy.diffring import DiffPoly, w
from nfoldsusy.formatting import poly_from_dict

EXPECTED_PATH = Path(__file__).with_name("expected.json")

MEMBERSHIP_NS = (6, 7)
RANDOM_MEMBER_TERMS = 4


@dataclass
class Op:
    """One timed operation; ``check`` returns None or what was wrong."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one CLI command."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text("utf-8"))


# -- verify-all ------------------------------------------------------------------


def verify_argv(suite: str) -> list[str]:
    return ["verify", "--suite", suite, "--format", "json"]


def _verify_check(suite: str, want: dict):
    def check(out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        checks = json.loads(text)["suites"][0]["checks"]
        if len(checks) != want["checks"] or not all(c["passed"] for c in checks):
            passed = sum(c["passed"] for c in checks)
            return f"{passed}/{len(checks)} passed, want {want['checks']}"
        if digest(text) != want["sha256"]:
            return "output differs from the recorded digest"
        return None

    return check


def verify_all_combined(outputs: dict[str, tuple[int, str]], expected: dict) -> str | None:
    """Reassemble ``verify --suite all --format json`` from the per-suite
    outputs and compare it with the digest recorded for the real command."""
    want = expected["verify-all"]
    try:
        reports = [json.loads(outputs[s][1])["suites"][0] for s in suites.SUITE_NAMES]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"cannot reassemble: {type(exc).__name__}: {exc}"
    payload = {"passed": all(r["passed"] for r in reports), "suites": reports}
    total = sum(len(r["checks"]) for r in reports)
    passed = sum(c["passed"] for r in reports for c in r["checks"])
    if (passed, total) != (want["total"], want["total"]):
        return f"{passed}/{total} passed, want {want['total']}/{want['total']}"
    if digest(json.dumps(payload, separators=(",", ":")) + "\n") != want["all_sha256"]:
        return "combined output differs from the recorded digest"
    return None


def verify_all_ops(rng: random.Random, expected: dict) -> list[Op]:
    order = list(suites.SUITE_NAMES)
    rng.shuffle(order)
    want = expected["verify-all"]["suites"]
    return [
        Op(f"verify {s}", lambda s=s: run_cli(verify_argv(s)), _verify_check(s, want[s]))
        for s in order
    ]


# -- membership-probe ------------------------------------------------------------


def eliminated(n: int) -> susy.ConditionSet:
    return susy.eliminate_potentials(susy.derive_conditions(susy.build_system(n)))


def probe_target(n: int, cs: susy.ConditionSet) -> DiffPoly:
    """(I_0'' + I_{n-2} w_0) w_{n-1}^2, a member of weight n+6."""
    w0 = DiffPoly.generator(n, w(0))
    top = DiffPoly.generator(n, w(n - 1))
    return (cs.condition(0).derive(2) + cs.condition(n - 2) * w0) * top**2


def random_member(n: int, cs: susy.ConditionSet, rng: random.Random) -> DiffPoly:
    """sum m * I_j^(s) over a few (j, s, m) drawn from the monomial bases
    of the probe's weight, with small nonzero integer coefficients."""
    weight = n + 6
    gens = sorted(set().union(*(p.base_generators() for _, p in cs.items())))
    columns = []
    for j, cond in cs.items():
        cw = cond.weight()
        for s in range(weight - cw + 1):
            for b in reduction.monomial_basis(n, weight - cw - s, gens):
                columns.append((j, s, b))
    while True:
        target = DiffPoly.zero(n)
        for j, s, b in rng.sample(columns, RANDOM_MEMBER_TERMS):
            coeff = rng.choice((-3, -2, -1, 1, 2, 3))
            target = target + DiffPoly.monomial(n, b, coeff) * cs.condition(j).derive(s)
        if not target.is_zero():
            return target


def _membership_check(target: DiffPoly, member: bool):
    def check(cert) -> str | None:
        if not member:
            return None if cert is None else "certificate found for a non-member"
        if cert is None:
            return "no certificate for a member"
        if cert.target != target:  # re-expansion is checked on construction
            return "certificate is for another target"
        return None

    return check


def membership_ops(rng: random.Random, expected: dict) -> list[Op]:
    ops = []
    for n in MEMBERSHIP_NS:
        cs = eliminated(n)
        probe = probe_target(n, cs)
        top = DiffPoly.generator(n, w(n - 1))
        targets = (
            ("probe", probe, True),
            ("random-member", random_member(n, cs, rng), True),
            ("non-member", probe + top ** (n + 6), False),
        )
        for kind, target, member in targets:
            ops.append(Op(
                f"membership n={n} {kind}",
                lambda n=n, t=target: reduction.ideal_membership(t, eliminated(n)),
                _membership_check(target, member),
            ))
    rng.shuffle(ops)
    return ops


# -- derive-search -----------------------------------------------------------------


TRANSFORMED_PRESETS = {2: ("paper", "generic"), 3: ("paper", "generic"),
                       4: ("paper", "footnote-alt", "generic")}


def derive_search_commands() -> list[list[str]]:
    """The interactive CLI mix, in canonical order."""
    cmds = []
    for n in range(2, 9):
        for stage in ("raw", "eliminated"):
            cmds.append(["derive", "--n", str(n), "--stage", stage, "--format", "json"])
    for n, presets in TRANSFORMED_PRESETS.items():
        for preset in presets:
            cmds.append(["derive", "--n", str(n), "--stage", "transformed",
                         "--preset", preset, "--format", "json"])
    for n in (2, 3, 4):
        for k in range(1, n):
            cmds.append(["search", "--n", str(n), "--k", str(k), "--format", "json"])
    for k in (1, 2, 3):
        cmds.append(["search", "--n", "4", "--k", str(k), "--preset", "footnote-alt",
                     "--format", "json"])
    cmds.append(["search", "--n", "4", "--k", "2", "--policy", "first-order",
                 "--format", "json"])
    return cmds


def _golden_display_error(argv: list[str], text: str) -> str | None:
    """The integrals suite's rule: display == J * scale (+ completion)."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    n, k, preset = int(opts["--n"]), int(opts["--k"]), opts.get("--preset", "paper")
    entry = goldens.integral_entries(n, preset)[k]
    expected = poly_from_dict(json.loads(text)["J"]) * entry.scale()
    if "completion" in entry.data:
        comp = entry.data["completion"]
        combo = {
            int(j): {int(p): parsing.parse(expr, n) for p, expr in pw.items()}
            for j, pw in comp["combo"].items()
        }
        expected = (expected
                    + reduction.apply_combo(combo, susy.transformed_conditions(n, preset))
                    + parsing.parse(comp["kernel"], n))
    if entry.poly() != expected:
        return f"J differs from golden {entry.id}"
    return None


def _derive_search_check(argv: list[str], want: str):
    golden_case = argv[0] == "search" and "--policy" not in argv

    def check(out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if golden_case:
            err = _golden_display_error(argv, text)
            if err:
                return err
        if digest(text) != want:
            return "output differs from the recorded digest"
        return None

    return check


def derive_search_ops(rng: random.Random, expected: dict) -> list[Op]:
    cmds = derive_search_commands()
    rng.shuffle(cmds)
    want = expected["derive-search"]
    return [
        Op(" ".join(argv), lambda argv=argv: run_cli(argv),
           _derive_search_check(argv, want[" ".join(argv)]))
        for argv in cmds
    ]


BUILDERS = {
    "verify-all": verify_all_ops,
    "membership-probe": membership_ops,
    "derive-search": derive_search_ops,
}


def build(workload: str, seed: int, expected: dict) -> list[Op]:
    return BUILDERS[workload](random.Random(seed), expected)


def final_check(workload: str, outputs: dict[str, object], expected: dict) -> str | None:
    """Checks over a whole sample, after every operation has run."""
    if workload == "verify-all":
        by_suite = {label.split()[1]: out for label, out in outputs.items()}
        return verify_all_combined(by_suite, expected)
    return None
