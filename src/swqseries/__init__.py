"""Exact verification tools for the characters, fermionic sums and auxiliary
polynomial identities of the N=1 super-triplet vertex algebra family.

Importing the package loads none of its modules: `QSeries` and
`VerificationReport` are imported on first access (PEP 562)."""

__all__ = ["QSeries", "VerificationReport"]
__version__ = "0.1.0"

_LAZY = {"QSeries": "qseries", "VerificationReport": "report"}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
