"""Per-layer tracing of nfoldsusy from outside the package.

``Tracer.install`` replaces each layer's public function with a wrapper
under every name a caller looks it up by: the defining module, every
module that imported it with ``from ... import``, and the class attribute
for ring methods (``DiffPoly.__rmul__`` is an alias of ``__mul__``, so
both are wrapped).  A wrapper records one span (name, start, end, parent)
per call.  Spans stay in memory; ``summary`` turns them into per-layer
counts and self times, and ``write_spans`` writes them out at the end.

Bookkeeping that would need hashing (the ``distinct`` ratios) keeps only
references while the clock runs and is computed in ``summary``, so it does
not inflate the self time of the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

ROOT = -1

# (metric prefix, defining module, attribute path) for every wrapped entry.
ENTRIES = (
    ("cli.main", "cli", "main"),
    ("suites.run_suite", "suites", "run_suite"),
    ("parsing.parse", "parsing", "parse"),
    ("goldens.corpus", "goldens", "corpus"),
    ("susy.build_system", "susy", "build_system"),
    ("susy.derive_conditions", "susy", "derive_conditions"),
    ("susy.eliminate_potentials", "susy", "eliminate_potentials"),
    ("susy.transformed_conditions", "susy", "transformed_conditions"),
    ("susy.transformed_system", "susy", "transformed_system"),
    ("susy.solve_parameters", "susy", "solve_parameters"),
    ("diffring.mul", "diffring", "DiffPoly.__mul__"),
    ("diffring.derive", "diffring", "DiffPoly.derive"),
    ("diffring.substitute", "diffring", "Substitution.apply"),
    ("diffop.compose", "diffop", "DiffOperator.__mul__"),
    ("reduction.monomial_basis", "reduction", "monomial_basis"),
    ("reduction.ideal_membership", "reduction", "ideal_membership"),
    ("reduction.reduce_by_relations", "reduction", "reduce_by_relations"),
    ("reduction.search_integral", "reduction", "search_integral"),
    ("reduction.op_equivalent", "reduction", "op_equivalent"),
    ("reduction.verify_product", "reduction", "verify_product"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("formatting.poly_to_dict", "formatting", "poly_to_dict"),
    ("formatting.format_poly", "formatting", "format_poly"),
)

# Entries whose distinct-argument ratio is reported.
DISTINCT = (
    "parsing.parse",
    "susy.build_system",
    "susy.derive_conditions",
    "susy.eliminate_potentials",
    "susy.transformed_conditions",
)

# Counts reported beside ``calls`` and ``self_s``, per entry.
EXTRA = {
    "reduction.monomial_basis": ("monomials",),
    "reduction.ideal_membership": ("members",),
    "linalg.solve": ("rows_sum", "rows_max", "cols_sum", "cols_max",
                     "nnz_sum", "nnz_max", "infeasible"),
    "linalg.nullspace": ("rows_sum", "cols_sum", "nnz_sum", "rank_sum"),
}

HIGHER_IS_BETTER = {"distinct", "members"}

# Per workload, the wrapped names that must record calls on it, because the
# layer-to-metric map in README.md says the workload is where they show; a
# traced run that sees no call to one of them fails.
DOMINATED = {
    "verify-all": (
        "cli.main", "suites.run_suite", "parsing.parse", "goldens.corpus",
        "susy.build_system", "susy.derive_conditions", "susy.eliminate_potentials",
        "susy.transformed_conditions", "susy.transformed_system",
        "susy.solve_parameters", "diffop.compose", "reduction.op_equivalent",
        "reduction.verify_product", "formatting.format_poly",
    ),
    "membership-probe": (
        "reduction.ideal_membership", "reduction.monomial_basis", "linalg.solve",
    ),
    "derive-search": (
        "cli.main", "diffring.mul", "diffring.derive", "diffring.substitute",
        "reduction.reduce_by_relations", "reduction.search_integral",
        "linalg.nullspace", "formatting.poly_to_dict",
    ),
}


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in output order."""
    specs = []
    for name, _, _ in ENTRIES:
        stats = [("calls", "count"), ("self_s", "s")]
        if name in DISTINCT:
            stats.append(("distinct", "ratio"))
        stats += [(s, "count") for s in EXTRA.get(name, ())]
        for stat, unit in stats:
            better = "higher" if stat in HIGHER_IS_BETTER else "lower"
            specs.append({"name": f"{name}.{stat}", "unit": unit, "better": better})
    return specs


def _distinct_key(fn, args: tuple, kwargs: dict) -> tuple:
    """Hashable identity of a call's inputs, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    key = []
    for value in bound.arguments.values():
        if isinstance(getattr(value, "scale_notes", None), dict):
            # a ConditionSet: its display notes are an unhashable dict
            value = (value.n, value.stage, value.ks, value.conditions, value.preset)
        key.append(value)
    return tuple(key)


class Tracer:
    """Span recorder for one interpreter; create one per sample."""

    def __init__(self) -> None:
        self.names: list[str] = ["op"]
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = [ROOT]
        self.active = True
        self.distinct_calls: dict[str, tuple] = {}  # name -> (function, [(args, kwargs)])
        self.extra: dict[str, dict[str, int]] = {
            n: {s: 0 for s in stats} for n, stats in EXTRA.items()
        }
        self.op_labels: list[str] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        pkg = {
            mod_name: mod
            for mod_name, mod in sys.modules.items()
            if mod_name == "nfoldsusy" or mod_name.startswith("nfoldsusy.")
        }
        for name, module, path in ENTRIES:
            owner = pkg[f"nfoldsusy.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(name, original)
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        setattr(cls, key, wrapper)
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            replaced = 0
            for mod in pkg.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced += 1
            if not replaced:
                raise RuntimeError(f"nothing to wrap for {name}")

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        post = self._post_hook(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent)
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _post_hook(self, name: str, fn):
        """Cheap per-call bookkeeping run after the span closes."""
        if name in DISTINCT:
            store: list = []
            self.distinct_calls[name] = (fn, store)
            return lambda args, kwargs, result: store.append((args, kwargs))
        extra = self.extra.get(name)
        if name == "reduction.monomial_basis":
            def post(args, kwargs, result):
                extra["monomials"] += len(result)
        elif name == "reduction.ideal_membership":
            def post(args, kwargs, result):
                extra["members"] += result is not None
        elif name == "linalg.solve":
            def post(args, kwargs, result):
                rows = args[0] if args else kwargs["rows"]
                ncols = args[2] if len(args) > 2 else kwargs["ncols"]
                nnz = sum(map(len, rows))
                extra["rows_sum"] += len(rows)
                extra["rows_max"] = max(extra["rows_max"], len(rows))
                extra["cols_sum"] += ncols
                extra["cols_max"] = max(extra["cols_max"], ncols)
                extra["nnz_sum"] += nnz
                extra["nnz_max"] = max(extra["nnz_max"], nnz)
                extra["infeasible"] += result is None
        elif name == "linalg.nullspace":
            def post(args, kwargs, result):
                rows = args[0] if args else kwargs["rows"]
                ncols = args[1] if len(args) > 1 else kwargs["ncols"]
                extra["rows_sum"] += len(rows)
                extra["cols_sum"] += ncols
                extra["nnz_sum"] += sum(map(len, rows))
                extra["rank_sum"] += ncols - len(result)
        else:
            return None
        return post

    # -- benchmark-side spans --------------------------------------------------

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (input generation, output checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    @contextmanager
    def op(self, label: str):
        """Root span of one operation; its layer spans are its children."""
        self.op_labels.append(label)
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[sid] = (0, t0, t1, ROOT)

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict[str, float | int]:
        """Per-layer metrics of this interpreter, keyed by metric name."""
        self_time = [0.0] * len(self.spans)
        for sid, (idx, t0, t1, parent) in enumerate(self.spans):
            self_time[sid] += t1 - t0
            if parent != ROOT:
                self_time[parent] -= t1 - t0
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        for sid, (idx, _, _, _) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + self_time[sid]
        out: dict[str, float | int] = {}
        for name, _, _ in ENTRIES:
            n_calls = calls.get(name, 0)
            out[f"{name}.calls"] = n_calls
            out[f"{name}.self_s"] = busy.get(name, 0.0)
            if name in DISTINCT:
                fn, recorded = self.distinct_calls[name]
                keys = {_distinct_key(fn, a, k) for a, k in recorded}
                out[f"{name}.distinct"] = len(keys) / n_calls if n_calls else 0.0
            for stat, value in self.extra.get(name, {}).items():
                out[f"{name}.{stat}"] = value
        return out

    def write_spans(self, path) -> None:
        """Write every span as [name, start, end, parent]; op spans carry
        the operation label in ``ops`` by order of appearance."""
        payload = {
            "names": self.names,
            "ops": self.op_labels,
            "spans": [list(s) for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
