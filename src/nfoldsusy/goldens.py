"""The golden corpus: closed-form identities stored as data.

Entries live in ``data/goldens.json`` in the canonical expression syntax,
one entry per displayed identity, each with a unique anchor id, the
rational prefactors tying the stored form to the engine's internal
normalization, and a short provenance note.  The verification suites
re-derive every entry from scratch and compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from .diffop import DiffOperator
from .diffring import DiffPoly, c, replace_constants
from .parsing import parse


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

    def poly(self, key: str = "expression") -> DiffPoly:
        return parse(self.data[key], self.n)

    def scale(self, key: str = "scale") -> Fraction:
        return Fraction(self.data.get(key, "1"))

    def operator(self, key: str = "coeffs") -> DiffOperator:
        coeffs = {
            int(order): parse(expr, self.n)
            for order, expr in self.data[key].items()
        }
        return DiffOperator(self.n, coeffs)

    def combo(self, key: str = "combo") -> dict[int, dict[int, DiffPoly]]:
        return parse_combo(self.data[key], self.n)

    def expressions(self) -> list[str]:
        """Every expression string carried by the entry, for integrity checks."""
        found: list[str] = []

        def walk(value):
            if isinstance(value, str):
                found.append(value)
            elif isinstance(value, dict):
                for v in value.values():
                    walk(v)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    walk(v)

        for key in ("expression", "lhs", "rhs", "coeffs", "combo", "relations",
                    "mult_checks", "denominator", "denominators", "kernel"):
            if key in self.data:
                walk(self.data[key])
        return found


def parse_combo(raw: dict, n: int) -> dict[int, dict[int, DiffPoly]]:
    """A stored ``{j: {power: expr}}`` condition combination, keyed by
    integers and parsed, in the form ``susy.apply_combo`` takes."""
    return {
        int(j): {int(power): parse(expr, n) for power, expr in powers.items()}
        for j, powers in raw.items()
    }


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


def displayed_j(n: int, k: int, preset: str = "paper") -> DiffPoly:
    """The k-th integral constant as the displayed polynomial over the
    transformed variables, normalized so that it equals C_k on shell;
    lower constants inside it are expanded recursively."""
    entries = integral_entries(n, preset)
    e = entries[k]
    ju = e.poly() * (Fraction(1) / Fraction(e.data["prefactor"]))
    lower = {c(i): displayed_j(n, i, preset) for i in entries if i < k}
    return replace_constants(ju, lower)


def integral_relation(n: int, k: int, preset: str = "paper") -> DiffPoly:
    """display - prefactor*C_k: a polynomial vanishing on shell."""
    e = integral_entries(n, preset)[k]
    pref = Fraction(e.data["prefactor"])
    return e.poly() - DiffPoly.generator(n, c(k)) * pref


def search_relations(n: int, k: int, preset: str = "paper") -> list[DiffPoly]:
    """Established integral relations a search may rewrite with, as recorded
    on the corpus entry (mirroring the by-hand integrations)."""
    e = integral_entries(n, preset).get(k)
    if e is None:
        return []
    return [integral_relation(n, i, preset) for i in e.data.get("relations", ())]
