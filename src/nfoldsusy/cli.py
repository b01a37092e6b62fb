"""Command-line front end.

Subcommands: ``derive`` (print a constraint set), ``verify`` (run a named
acceptance suite), ``search`` (find an integral constant), ``emit`` (print
a golden by id).  Exit codes: 0 success, 1 verification failure, 2 usage
error (including an invalid ``NFOLDSUSY_MAX_DERIV`` or
``NFOLDSUSY_DERIV_BOUND``, a derivative beyond the cap, or an output that
cannot be written, a closed stdout included), 3 search exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import goldens, reduction, suites, susy
from .config import ConfigError, max_deriv_order, search_deriv_bound
from .diffring import DerivOrderError
from .formatting import format_poly, poly_to_dict

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SEARCH_EXHAUSTED = 3


def _write(text: str, out: str | None, parser: argparse.ArgumentParser) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            parser.error(f"cannot write --out {out}: {exc.strerror}")
    else:
        print(text)
        sys.stdout.flush()


def _check_ansatz(parser: argparse.ArgumentParser, n: int, preset: str, suffix: str = "") -> None:
    """Refuse an N without the ansatz, or a preset its N lacks (``susy.PRESETS``)."""
    if n not in susy.PRESETS:
        *head, last = susy.PRESETS
        parser.error(f"--n must be {', '.join(map(str, head))} or {last}{suffix}")
    if preset != "generic" and preset not in susy.PRESETS[n]:
        owners = " or ".join(str(m) for m, presets in susy.PRESETS.items() if preset in presets)
        parser.error(f"the {preset} preset exists only for --n {owners}")


def _scale_note(n: int, stage: str, k: int) -> str:
    """The rational prefactor tying a printed condition to its displayed
    normalization, or "" when there is none."""
    if stage == "raw":
        return f"displayed as I_{n}" if k == n else f"displayed as 2*I_{k}"
    if stage == "eliminated":
        return f"displayed as {-2 * n}*I_{k}"
    return susy.TRANSFORMED_NOTES.get(n, {}).get(k, "")


# Each command returns its exit code and what it prints: a dict for
# ``--format json``, lines otherwise, or None for nothing.
Output = tuple[int, dict | list[str] | None]


def cmd_derive(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Output:
    n, stage, preset = args.n, args.stage, args.preset
    if stage in ("raw", "eliminated") and not 2 <= n <= 8:
        parser.error(f"--n must be in 2..8 for stage {stage}")
    if stage == "transformed":
        _check_ansatz(parser, n, preset, " for the transformed stage")
    try:
        cs = susy.pipeline(n, stage, preset)
    except susy.SusyError as exc:
        parser.error(str(exc))

    if args.format == "json":
        return EXIT_OK, {
            "n": n,
            "stage": stage,
            "preset": preset if stage == "transformed" else None,
            "conditions": [
                {
                    "k": k,
                    "note": _scale_note(n, stage, k),
                    "poly": poly_to_dict(p),
                }
                for k, p in cs.items()
            ],
        }
    lines = []
    for k, p in cs.items():
        note = _scale_note(n, stage, k)
        suffix = f"   [{note}]" if note else ""
        label = f"Ibar_{k}" if stage == "transformed" else f"I_{k}"
        lines.append(f"{label} = {format_poly(p, args.format)}{suffix}")
    return EXIT_OK, lines


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Output:
    reports = suites.run_suite(args.suite)
    code = EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED
    if args.format == "json":
        return code, {
            "passed": code == EXIT_OK,
            "suites": [r.to_dict() for r in reports],
        }
    lines = []
    for rep in reports:
        for res in rep.results:
            mark = "ok" if res.passed else "FAIL"
            detail = f"  ({res.detail})" if res.detail else ""
            lines.append(f"[{mark}] {rep.suite}: {res.name}{detail}")
        lines.append(
            f"suite {rep.suite}: "
            f"{sum(r.passed for r in rep.results)}/{len(rep.results)} passed"
        )
    return code, lines


def cmd_search(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Output:
    n, k, preset = args.n, args.k, args.preset
    _check_ansatz(parser, n, preset)
    if preset == "generic":
        parser.error(f"search needs a numeric preset ({' or '.join(susy.PRESET_NAMES)})")
    if not 1 <= k <= n - 1:
        parser.error(f"--k must be in 1..{n - 1} for --n {n}")
    if args.deriv_bound is not None and args.deriv_bound < 0:
        parser.error("--deriv-bound must be a non-negative integer")
    try:
        found = suites.run_search(n, k, preset, policy=args.policy,
                                  max_deriv=args.deriv_bound)
    except reduction.SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_SEARCH_EXHAUSTED, None

    display_note = ""
    e = goldens.integral_entries(n, preset).get(k)
    if e is not None:
        display_note = (
            f"display = {e.data['prefactor']}*J_{k} = ({e.scale()}) * J"
            + (" + recorded completion" if "completion" in e.data else "")
        )
    if args.format == "json":
        return EXIT_OK, {
            "n": n,
            "k": k,
            "preset": preset,
            "J": poly_to_dict(found.j_poly),
            "multipliers": {
                str(j): {str(o): poly_to_dict(c) for o, c in op.coeffs.items()}
                for j, op in found.multipliers.items()
            },
            "display": display_note,
        }
    lines = [f"J_{k} = {format_poly(found.j_poly, args.format)}"]
    for j, op in sorted(found.multipliers.items()):
        lines.append(f"L[{k},{j}] (on Ibar_{j}) = {op!r}")
    for rel, mult in found.relation_multipliers:
        lines.append(f"relation multiplier: ({format_poly(mult)}) * ({format_poly(rel)})")
    if display_note:
        lines.append(display_note)
    if n == 4 and k == 1:
        lines.append("degenerate case: Ibar_1 = u0' integrates to u0 = 2*C1")
    return EXIT_OK, lines


def cmd_emit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Output:
    try:
        e = goldens.entry(args.id)
    except KeyError as exc:
        parser.error(exc.args[0])
    if args.format == "json":
        payload = {"id": e.id, "n": e.n, "kind": e.kind, "provenance": e.provenance}
        payload.update(e.data)
        if "expression" in e.data:
            payload["poly"] = poly_to_dict(e.poly())
        return EXIT_OK, payload
    lines = [f"{e.id} ({e.kind}, n={e.n}): {e.provenance}"]
    if "expression" in e.data:
        lines.append(format_poly(e.poly(), args.format))
    elif "coeffs" in e.data:
        dsym = "\\del" if args.format == "latex" else "d"
        for order, coeff in sorted(e.parsed("coeffs").items(), reverse=True):
            lines.append(f"{dsym}^{order}: {format_poly(coeff, args.format)}")
    else:
        lines.append(json.dumps(e.data, indent=1))
    return EXIT_OK, lines


@cache  # built on the first main call; argparse keeps no per-call state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfoldsusy",
        description="Exact constraint engine for N-fold supersymmetric quantum mechanics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    preset = dict(choices=susy.PRESET_NAMES + ("generic",), default="paper")

    p = sub.add_parser("derive", help="derive and print a constraint set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stage", choices=susy.STAGES, default="raw")
    p.add_argument("--preset", **preset)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("all",) + suites.SUITE_NAMES, default="all")

    p = sub.add_parser("search", help="search for an integral constant")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--preset", **preset)
    p.add_argument("--policy", choices=("multiplicative", "first-order"),
                   default="multiplicative")
    p.add_argument("--deriv-bound", type=int, default=None)

    p = sub.add_parser("emit", help="print a golden corpus entry by id")
    p.add_argument("--id", required=True)

    for p, handler in zip(sub.choices.values(), (cmd_derive, cmd_verify, cmd_search, cmd_emit)):
        p.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
        p.add_argument("--out")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        max_deriv_order()
        search_deriv_bound()
        code, payload = args.handler(args, parser)
    except ConfigError as exc:
        parser.error(str(exc))
    except DerivOrderError as exc:
        parser.error(f"{exc} (NFOLDSUSY_MAX_DERIV={max_deriv_order()})")
    if payload is not None:
        text = (json.dumps(payload, separators=(",", ":")) if args.format == "json"
                else "\n".join(payload))
        try:
            _write(text, args.out, parser)
        except BrokenPipeError:
            # The reader is gone (``| head``).  With stdout on the null
            # device, the interpreter's final flush cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
