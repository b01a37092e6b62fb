import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from nfoldsusy import format_poly, parse, poly_from_json, poly_to_json
from nfoldsusy import goldens, suites
from nfoldsusy.diffring import Family, c
from nfoldsusy.parsing import DerivCapError


def test_corpus_loads_with_unique_ids():
    entries = goldens.corpus()
    assert len(entries) > 100
    assert "2fC1" in entries and "4fc5pp" in entries


def test_every_expression_parses_homogeneous_and_round_trips():
    for e in goldens.corpus().values():
        for expr in e.expressions():
            poly = parse(expr, e.n)
            assert poly.is_homogeneous(), (e.id, expr)
            assert parse(format_poly(poly), e.n) == poly, (e.id, expr)
            assert poly_from_json(poly_to_json(poly)) == poly, (e.id, expr)


def test_displayed_j_normalization():
    # the first twofold integral: 16*J1 equals the stored display
    j1 = goldens.constants(2)[c(1)]
    assert j1 * 16 == goldens.entry("2fC1").poly()
    # the fourfold chain replaces C1 inside the second integral
    j2 = goldens.constants(4)[c(2)]
    assert parse("C1", 4).terms.keys().isdisjoint(j2.terms.keys())


def test_constants_expand_each_lower_constant():
    js = goldens.constants(4)
    assert set(js) == {c(1), c(2), c(3)}
    for k, j in js.items():
        assert not any(g.family == Family.C and g.index > 0
                       for m in j.terms for g, _ in m.exps), k


def test_constants_follow_a_patched_corpus(monkeypatch):
    before = goldens.constants(2)[c(1)]
    entries = dict(goldens.corpus())
    e = entries["2fC1"]
    prefactor = Fraction(e.data["prefactor"]) * 2
    entries["2fC1"] = dataclasses.replace(e, data={**e.data, "prefactor": str(prefactor)})
    monkeypatch.setattr(goldens, "corpus", lambda: entries)
    assert goldens.constants(2)[c(1)] * 2 == before


def test_integral_relation_vanishes_on_shell():
    rel = goldens.integral_relation(3, 1)
    assert rel == parse("u1'' + 2*w2*u0 + 12*u1^2 + 4*C1", 3)


@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_suites_pass(suite):
    (report,) = suites.run_suite(suite)
    failures = [r for r in report.results if not r.passed]
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def corpus_parses():
    """Each (text, n) that ``goldens`` hands to ``parse`` over every suite,
    starting from an empty memo."""
    calls = []
    real = goldens.parse
    goldens._parsed.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(goldens, "parse", lambda text, n: calls.append((text, n)) or real(text, n))
        suites.run_suite("all")
    goldens._parsed.cache_clear()
    return calls


def test_each_corpus_expression_reaches_parse_once(corpus_parses):
    repeated = [key for key, count in Counter(corpus_parses).items() if count > 1]
    assert corpus_parses and not repeated, repeated[:3]


def test_every_expression_an_accessor_parses_is_walked(corpus_parses):
    walked = {(text, e.n) for e in goldens.corpus().values() for text in e.expressions()}
    assert not set(corpus_parses) - walked, sorted(set(corpus_parses) - walked)[:3]


def test_the_memo_keeps_a_lower_cap_raising(monkeypatch):
    e = goldens.entry("2fc3pp")
    assert e.poly() == parse(e.data["expression"], e.n)
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "2")
    with pytest.raises(DerivCapError):
        e.poly()
