"""Run-wide bounds, overridable through environment variables.

This is the only module that reads the environment.  Each cap is read on
every call, so a change to the environment takes effect at once; a value
that is not a non-negative integer raises ``ConfigError``.
"""

import os

# Hard cap on derivative orders produced by the ring derivation.  The
# identities handled here never need more than a fifth derivative, so the
# default leaves generous headroom while still catching runaway recursion.
DEFAULT_MAX_DERIV = 12

# Default cap on derivative orders admitted inside searched monomial bases
# (integral-constant search, ideal membership).
DEFAULT_SEARCH_DERIV_BOUND = 12


class ConfigError(ValueError):
    """An environment cap that is not a non-negative integer."""


def _read_cap(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {raw!r}")
    return value


def max_deriv_order() -> int:
    return _read_cap("NFOLDSUSY_MAX_DERIV", DEFAULT_MAX_DERIV)


def search_deriv_bound() -> int:
    return _read_cap("NFOLDSUSY_DERIV_BOUND", DEFAULT_SEARCH_DERIV_BOUND)
