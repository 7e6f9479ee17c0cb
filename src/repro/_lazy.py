"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule — and every third-party dependency behind them —
the first time anything under the package is imported.  The compile path
needs only a few of them, so the packages on its import chain declare
their re-exports as a table instead::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.paulis.strings": ("PauliString",),
    })

and a name's submodule is imported on first attribute access.  The
resolved value is cached in the package's namespace, so every later
access is an ordinary global lookup.  ``from package import name`` and
``from package import *`` (driven by ``__all__``) behave as before.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule's dotted name to the names it provides.
    """
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return __getattr__, __dir__
