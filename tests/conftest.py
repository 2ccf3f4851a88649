"""Shared test helpers: one reset of the package's caches, run before
every test, and the exact-order check of the builders."""

import sys
from fractions import Fraction as F

import pytest


def reset_caches():
    """Clear every lru_cache of the loaded swqseries modules, so no series
    built in an earlier test or run is shared.  Call it before installing
    a spy: a spy that replaces a cached builder hides its cache."""
    for name, module in list(sys.modules.items()):
        if name == "swqseries" or name.startswith("swqseries."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_caches()


def assert_exact_to(s, order):
    """s claims exactly the order and holds no slot beyond it."""
    assert s.order == order
    assert not s.vals or F(s.base + (len(s.vals) - 1) * s.stride, s.denom) <= order
