"""Lazy package exports (PEP 562).

A package ``__init__`` lists its public names once, in a table mapping
each name to the submodule that defines it (``"module"``, or
``"module:attribute"`` when the package renames it), and takes its
module ``__getattr__`` and ``__dir__`` from :func:`lazy_exports`.  A
submodule is imported the first time one of its names is read; the
object is then cached in the package globals, so later reads cost a
plain attribute lookup and every read returns the same object.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` resolving ``exports``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        target = exports.get(name)
        if target is None:
            # A submodule nothing has imported yet (``repro.measure.scan``
            # after a bare ``import repro``) still resolves as an attribute.
            # Private names never do: a probe for ``__main__`` must not
            # run the CLI.
            if not name.startswith("_"):
                try:
                    return importlib.import_module(f"{package}.{name}")
                except ModuleNotFoundError as exc:
                    if exc.name != f"{package}.{name}":
                        raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module, _, attribute = target.partition(":")
        value = getattr(importlib.import_module(module), attribute or name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
