"""Package exports resolved on first use (PEP 562).

A package ``__init__`` names each export once, in a table keyed by the
module that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.cache.cache": "Cache CacheConfig",
    })

Importing the package then imports none of those modules: the first
``package.Cache`` (or ``from package import Cache``) imports
``repro.cache.cache`` and caches the value on the package, so later
lookups never reach ``__getattr__`` again.  ``__all__`` and ``dir()``
come from the same table.

This module imports nothing from ``repro``, so every package can use it
without pulling in another.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping
from typing import Any


def lazy_exports(package: str, table: Mapping[str, str]) -> tuple[
        Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``,
    whose exports ``table`` maps module name → space-separated names."""
    namespace = vars(sys.modules[package])
    owners = {name: module for module, names in table.items()
              for name in names.split()}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(module), name)
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted({*namespace, *owners})

    return __getattr__, __dir__, list(owners)
