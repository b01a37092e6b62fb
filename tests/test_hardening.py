"""Guard rails: displayed weight values, higher N, drift detection."""

import dataclasses

from nfoldsusy import goldens, suites
from nfoldsusy.cli import main
from nfoldsusy.diffop import DiffOperator
from nfoldsusy.susy import build_system, derive_conditions, eliminate_potentials


def test_displayed_integral_weights():
    # the twofold first integral carries weight 4, the fourfold third one 8
    assert goldens.entry("2fC1").poly().weight() == 4
    assert goldens.entry("4fC3").poly().weight() == 8
    assert goldens.entry("3fC2").poly().weight() == 6
    assert goldens.entry("4fC2").poly().weight() == 6


def test_condition_weights_follow_the_grading():
    for n in range(2, 9):
        el = eliminate_potentials(derive_conditions(build_system(n)))
        for k, p in el.items():
            assert p.weight() == n + 2 - k


def test_cli_handles_up_to_eightfold():
    import contextlib
    import io

    for n in (7, 8):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["derive", "--n", str(n), "--stage", "eliminated"])
        assert code == 0
        assert f"I_{n - 2} = " in out.getvalue()


def _patch_corpus(monkeypatch, edits):
    """The corpus with ``edits(id) -> {field: new value}`` merged into
    each named entry's data."""
    entries = dict(goldens.corpus())
    for golden_id, edit in edits.items():
        e = entries[golden_id]
        entries[golden_id] = dataclasses.replace(e, data={**e.data, **edit(e.data)})
    monkeypatch.setattr(goldens, "corpus", lambda: entries)


def _replaced(key, old, new, order=None):
    """An edit replacing one term ``old`` by ``new`` in the display in
    ``key``, at ``order`` for a map."""
    def edit(data):
        text = data[key] if order is None else data[key][order]
        assert old in text, (key, order, text)
        text = text.replace(old, new)
        return {key: text if order is None else {**data[key], order: text}}
    return edit


def _doubled(key, order=None):
    """An edit doubling the display in ``key``, at ``order`` for a map."""
    def edit(data):
        if order is None:
            return {key: f"2*({data[key]})"}
        return {key: {**data[key], order: f"2*({data[key][order]})"}}
    return edit


# One drifted display per golden kind, each drift changing one term so
# that it is not a multiple of the engine's (every golden carries a scale
# or denominator); P2pm-minus also has a preset check.
DRIFTS = {
    "2fc3p": _replaced("expression", "- 2*w1^2*w1'", "+ 2*w1^2*w1'"),
    "2fP-minus": _replaced("coeffs", "w0", "w0 + w1^2", order="0"),
    "2fV-plus": _replaced("expression", "- 2*w0", "+ 2*w0"),
    "2ftf-w0": _replaced("expression", "+ 1/2*w1'", "- 1/2*w1'"),
    "2fu0-cleared": _replaced("rhs", "+ w1'^2", "- w1'^2"),
    "2fP-final-minus": _replaced("coeffs", "+ 2*w1^2*w1'", "- 2*w1^2*w1'", order="0"),
    "2fV-final-plus": _replaced("expression", "- w1'^2", "+ w1'^2"),
    "P2pm-minus": _replaced("coeffs", "+ 1/2*w1'", "- 1/2*w1'", order="0"),
}

# The same goldens with a whole display, or one whole order, doubled.
DOUBLINGS = {
    "2fc3p": _doubled("expression"),
    "2fP-minus": _doubled("coeffs", "1"),
    "2fV-plus": _doubled("expression"),
    "2ftf-w0": _doubled("expression"),
    "2fu0-cleared": _doubled("rhs"),
    "2fP-final-minus": _doubled("coeffs", "0"),
    "2fV-final-plus": _doubled("expression"),
    "P2pm-minus": _doubled("coeffs", "0"),
}


def test_goldens_suite_detects_corpus_drift(monkeypatch):
    _patch_corpus(monkeypatch, DRIFTS)
    report = suites.suite_goldens()
    failed = {r.name for r in report.results if not r.passed}
    assert failed == {f"golden:{i}" for i in DRIFTS} | {"preset:paper:P2pm-minus"}


def test_goldens_suite_detects_doubled_displays(monkeypatch):
    _patch_corpus(monkeypatch, DOUBLINGS)
    report = suites.suite_goldens()
    failed = {r.name for r in report.results if not r.passed}
    assert failed == {f"golden:{i}" for i in DOUBLINGS} | {"preset:paper:P2pm-minus"}


def test_charge_identity_needs_a_denominator_on_every_order(monkeypatch):
    def drop_order_0(data):
        return {key: {o: t for o, t in data[key].items() if o != "0"}
                for key in ("coeffs", "denominators")}

    _patch_corpus(monkeypatch, {"2fP-final-minus": drop_order_0})
    report = suites.suite_goldens()
    failed = {r.name: r.detail for r in report.results if not r.passed}
    assert failed == {"golden:2fP-final-minus": "order 0 has no denominator"}


def test_weights_suite_fails_an_expression_that_does_not_parse(monkeypatch, capsys):
    _patch_corpus(monkeypatch, {"2fc3p": lambda data: {"expression": "w1 +* w0"}})
    assert main(["verify", "--suite", "weights"]) == 1
    capsys.readouterr()
    report = suites.suite_weights()
    failed = {r.name: r.detail for r in report.results if not r.passed}
    assert list(failed) == ["homogeneous:2fc3p"]
    assert failed["homogeneous:2fc3p"].startswith("ParseError: ")


def test_goldens_suite_builds_the_constants_once_per_golden(monkeypatch):
    """A csubst golden clears every order against one C_k -> J_k map."""
    builds, per_check = [], []
    real_constants, real_check = goldens.constants, suites._check_display

    def constants(n, preset="paper"):
        builds.append((n, preset))
        return real_constants(n, preset)

    def check(report, name, e, preset, sub=None):
        before = len(builds)
        real_check(report, name, e, preset, sub)
        per_check.append(len(builds) - before)

    monkeypatch.setattr(goldens, "constants", constants)
    monkeypatch.setattr(suites, "_check_display", check)
    assert suites.suite_goldens().passed
    assert max(per_check) == 1 and sum(per_check) >= 3


def test_integrals_suite_detects_scale_drift(monkeypatch):
    _patch_corpus(monkeypatch, {"3fC1": lambda data: {"scale": "3"}})
    report = suites.suite_integrals()
    failed = {r.name for r in report.results if not r.passed}
    assert "integral:3fC1" in failed


def test_transposed_charge_goldens_also_cover_higher_orders():
    # the fourfold transposed charge display is literally the engine transpose
    e = goldens.entry("4fP-plus")
    system = build_system(4)
    assert system.charge_plus == DiffOperator(4, e.parsed("coeffs"))


def test_cli_search_fourfold_second_and_determinism():
    import contextlib
    import io

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return code, out.getvalue()

    code, first = run("search", "--n", "4", "--k", "2", "--format", "json")
    assert code == 0
    code, second = run("search", "--n", "4", "--k", "2", "--format", "json")
    assert first == second
    code, out = run("search", "--n", "3", "--k", "1", "--policy", "first-order")
    assert code == 0 and "J_1" in out


def test_concurrent_derivations_agree():
    from concurrent.futures import ThreadPoolExecutor

    from nfoldsusy import transformed_conditions

    def work(_):
        cs = transformed_conditions(3, "paper")
        return cs.condition(0)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(16)))
    assert all(r == results[0] for r in results)
