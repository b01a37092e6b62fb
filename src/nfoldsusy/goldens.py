"""The golden corpus: closed-form identities stored as data.

Entries live in ``data/goldens.json`` in the canonical expression syntax,
one entry per displayed identity, each with a unique anchor id, the
rational prefactors tying the stored form to the engine's internal
normalization, and a short provenance note.  The verification suites
re-derive every entry from scratch and compare.  Only this module reads the
expression fields, and it parses each string once per derivative cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from .config import max_deriv_order
from .diffring import DiffPoly, Generator, c, replace_constants
from .parsing import parse

# Every field that carries expressions, by shape: 0 is one expression
# string, d > 0 a map whose integer keys nest d deep above expressions, and
# a dict the fields of a nested record.
_FIELDS = {"expression": 0, "lhs": 0, "rhs": 0, "denominator": 0, "coeffs": 1,
           "denominators": 1, "mult_checks": 1, "combo": 2, "combo_orders": 3,
           "completion": {"combo": 2, "kernel": 0}}


@lru_cache(maxsize=None)
def _parsed(text: str, n: int, cap: int) -> DiffPoly:
    """One corpus expression, parsed once per derivative cap; the corpus
    bounds the memo.  Keying on the cap keeps a lower cap raising
    ``DerivCapError`` as ``parse`` does."""
    return parse(text, n)


def _parse(text: str, n: int) -> DiffPoly:
    return _parsed(text, n, max_deriv_order())


def _walk(raw, shape, visit):
    """``raw`` with ``visit`` applied to each expression that ``shape`` names."""
    if isinstance(shape, dict):
        return {key: _walk(raw[key], sub, visit) for key, sub in shape.items() if key in raw}
    if shape == 0:
        return visit(raw)
    return {int(key): _walk(value, shape - 1, visit) for key, value in raw.items()}


@dataclass(frozen=True)
class GoldenEntry:
    id: str
    n: int
    kind: str
    provenance: str
    data: dict

    @property
    def preset(self) -> str:
        return self.data.get("preset", "paper")

    def parsed(self, key: str):
        """The field ``key`` with its expressions parsed: a ``DiffPoly``,
        maps of them keyed by integers, or a record of those."""
        return _walk(self.data[key], _FIELDS[key], lambda text: _parse(text, self.n))

    def poly(self, key: str = "expression") -> DiffPoly:
        return self.parsed(key)

    def scale(self, key: str = "scale") -> Fraction:
        return Fraction(self.data.get(key, "1"))

    def expressions(self) -> dict[str, DiffPoly]:
        """Every expression string the entry carries, parsed, for integrity checks."""
        found: dict[str, DiffPoly] = {}
        _walk(self.data, _FIELDS, lambda text: found.setdefault(text, _parse(text, self.n)))
        return found


@lru_cache(maxsize=1)
def corpus() -> dict[str, GoldenEntry]:
    text = resources.files("nfoldsusy").joinpath("data/goldens.json").read_text("utf-8")
    raw = json.loads(text)
    entries: dict[str, GoldenEntry] = {}
    for item in raw["entries"]:
        entry = GoldenEntry(
            id=item["id"],
            n=item["n"],
            kind=item["kind"],
            provenance=item["provenance"],
            data={k: v for k, v in item.items() if k not in ("id", "n", "kind", "provenance")},
        )
        if entry.id in entries:
            raise ValueError(f"duplicate golden id {entry.id}")
        entries[entry.id] = entry
    return entries


def entry(golden_id: str) -> GoldenEntry:
    got = corpus().get(golden_id)
    if got is None:
        raise KeyError(f"no golden with id {golden_id!r}")
    return got


def integral_entries(n: int, preset: str = "paper") -> dict[int, GoldenEntry]:
    out = {}
    for e in corpus().values():
        if e.kind == "integral" and e.n == n and e.preset == preset:
            out[e.data["k"]] = e
    return out


def constants(n: int, preset: str = "paper") -> dict[Generator, DiffPoly]:
    """C_k -> J_k: each displayed integral constant as a polynomial over
    the transformed variables equal to C_k on shell, lower constants
    expanded.  Built in one pass from the lowest k, never memoized."""
    out: dict[Generator, DiffPoly] = {}
    for k, e in sorted(integral_entries(n, preset).items()):
        out[c(k)] = replace_constants(e.poly() * (1 / e.scale("prefactor")), out)
    return out


def integral_relation(n: int, k: int, preset: str = "paper") -> DiffPoly:
    """display - prefactor*C_k: a polynomial vanishing on shell."""
    e = integral_entries(n, preset)[k]
    return e.poly() - DiffPoly.generator(n, c(k)) * e.scale("prefactor")


def search_relations(n: int, k: int, preset: str = "paper") -> list[DiffPoly]:
    """Established integral relations a search may rewrite with, as recorded
    on the corpus entry (mirroring the by-hand integrations)."""
    e = integral_entries(n, preset).get(k)
    if e is None:
        return []
    return [integral_relation(n, i, preset) for i in e.data.get("relations", ())]


def residual_combos(n: int, product: str) -> dict[int, dict[int, dict[int, DiffPoly]]]:
    """The displayed residual of the ``product`` ("minus" or "plus") charge
    product at N = ``n``: per derivative order, the condition combination
    that its coefficient equals, in the form ``susy.apply_combo`` takes."""
    out = {}
    for e in corpus().values():
        if e.kind == "residual" and e.n == n and e.data["product"] == product:
            if "combo_orders" in e.data:
                out.update(e.parsed("combo_orders"))
            else:
                out[e.data["order"]] = e.parsed("combo")
    return out
