import ast
import re
import sys
from pathlib import Path

import pytest

import nfoldsusy
from nfoldsusy import (
    DerivOrderError,
    ideal_membership,
    parse,
    transformed_conditions,
)
from nfoldsusy.config import ConfigError, max_deriv_order, search_deriv_bound


def test_decomposition_serializes():
    cs = transformed_conditions(2, "paper")
    target = parse("w1", 2) * cs.condition(0)
    dec = ideal_membership(target, cs)
    data = dec.to_dict()
    assert data["kind"] == "ideal-member"
    assert data["multipliers"][0]["condition"] == 0


def test_deriv_order_cap(monkeypatch):
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", "3")
    assert max_deriv_order() == 3
    p = parse("w1'''", 2)
    with pytest.raises(DerivOrderError):
        p.derive()
    from nfoldsusy import ParseError

    with pytest.raises(ParseError):
        parse("w1''''", 2)
    monkeypatch.delenv("NFOLDSUSY_MAX_DERIV")
    assert parse("w1''''", 2).derive().max_deriv() == 5


def test_search_bound_env(monkeypatch):
    monkeypatch.setenv("NFOLDSUSY_DERIV_BOUND", "4")
    assert search_deriv_bound() == 4
    from nfoldsusy import monomial_basis
    from nfoldsusy.diffring import w

    basis = monomial_basis(2, 6, [w(1)])
    assert all(m.max_deriv() <= 4 for m in basis)


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_invalid_derivative_cap_raises_config_error(monkeypatch, value):
    poly = parse("w1", 2)
    monkeypatch.setenv("NFOLDSUSY_MAX_DERIV", value)
    message = re.escape(f"NFOLDSUSY_MAX_DERIV must be a non-negative integer, got {value!r}")
    with pytest.raises(ConfigError, match=message):
        parse("w1'", 2)
    with pytest.raises(ConfigError, match=message):
        poly.derive()
    with pytest.raises(ConfigError, match=message):
        parse("w1", 2).derive()


def test_config_is_the_only_module_that_reads_the_environment():
    package = Path(nfoldsusy.__file__).parent
    readers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if re.search(r"os\.environ|getenv", path.read_text(encoding="utf-8"))
    ]
    assert readers == ["config.py"]


def test_the_package_needs_nothing_outside_the_standard_library():
    """``dependencies = []`` in pyproject.toml, and every import in the
    package's modules is the standard library or the package itself."""
    tomllib = pytest.importorskip("tomllib")
    package = Path(nfoldsusy.__file__).parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text("utf-8"))
    assert pyproject["project"]["dependencies"] == []
    allowed = sys.stdlib_module_names | {"nfoldsusy"}
    outside = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names if name.split(".")[0] not in allowed]
    assert outside == []
