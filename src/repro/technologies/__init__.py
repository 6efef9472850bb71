"""Pluggable cell-technology backends behind the measurement seam.

The paper's measurement structure only touches the array through three
electrical terminals — the shared **plate**, the **bitlines**, and the
**wordlines**.  Everything memory-technology-specific (cell electrical
model, defect semantics, variation maps, parameter corners, quality
thresholds) lives behind that seam, so the same sequencer, scan engine,
closed-form kernel, resilience ladder, run-ledger
fingerprints and drift charts can measure other memories unchanged.

This package owns the seam.  A backend implements
:class:`~repro.technologies.base.CellTechnology` and registers under a
short name; consumers resolve it with :func:`get`:

    from repro.technologies import get

    backend = get("fecap")
    array = backend.build_array(32, 16, macro_rows=8, seed=0)
    structure = backend.design_structure(array)

Shipped backends:

- ``edram`` — the paper's 1T1C eDRAM stack (the default; bit-exact with
  the pre-registry construction path),
- ``fecap`` — ferroelectric-capacitor array with hysteretic polarization
  state and cumulative read-disturb (capacitive read per
  arXiv:2506.09480),
- ``1t``    — capacitorless 1T floating-body array whose headline
  measurement is retention time (arXiv:1910.03907).

Registration is **lazy**: importing this module imports no backend, so
:func:`names` is cheap enough for ``ScanConfig`` validation on every
construction.  A backend module is imported the first time :func:`get`
resolves its name, and the instance is cached for the process lifetime
(backends are stateless; per-array state lives on the arrays).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from repro.errors import TechnologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.technologies.base import CellTechnology

__all__ = ["get", "names", "register", "unregister", "CellTechnology"]

#: Lazy registry: name -> (module, attribute) of the backend class.
_SPECS: dict[str, tuple[str, str]] = {
    "edram": ("repro.technologies.edram", "EDRAMTechnology"),
    "fecap": ("repro.technologies.fecap", "FeCapTechnology"),
    "1t": ("repro.technologies.one_t", "Capacitorless1TTechnology"),
}

#: Resolved singleton backends, filled on first :func:`get`.
_INSTANCES: dict[str, "CellTechnology"] = {}


def names() -> tuple[str, ...]:
    """Registered backend names, in registration order.  Import-free."""
    return tuple(_SPECS)


def get(name: str) -> "CellTechnology":
    """Resolve a backend by name (importing its module on first use).

    Raises :class:`~repro.errors.TechnologyError` for unknown names,
    listing what *is* registered — the CLI and ``ScanConfig`` surface
    this message directly.
    """
    backend = _INSTANCES.get(name)
    if backend is not None:
        return backend
    spec = _SPECS.get(name)
    if spec is None:
        raise TechnologyError(
            f"unknown cell technology {name!r} "
            f"(registered: {', '.join(names())})"
        )
    module, attribute = spec
    backend = getattr(importlib.import_module(module), attribute)()
    if backend.name != name:
        raise TechnologyError(
            f"backend {module}:{attribute} says its name is "
            f"{backend.name!r} but is registered as {name!r}"
        )
    _INSTANCES[name] = backend
    return backend


def register(name: str, backend: "CellTechnology | tuple[str, str]") -> None:
    """Register a backend under ``name``.

    ``backend`` is either a ready :class:`CellTechnology` instance or a
    lazy ``(module, attribute)`` pair.  Re-registering an existing name
    replaces it (last registration wins) — tests use this to install
    probe backends; pair it with :func:`unregister` in a ``finally``.
    """
    if isinstance(backend, tuple):
        _SPECS[name] = backend
        _INSTANCES.pop(name, None)
        return
    if backend.name != name:
        raise TechnologyError(
            f"backend name {backend.name!r} does not match "
            f"registration name {name!r}"
        )
    _SPECS[name] = (type(backend).__module__, type(backend).__qualname__)
    _INSTANCES[name] = backend


def unregister(name: str) -> None:
    """Remove a registered backend (unknown names are a no-op)."""
    _SPECS.pop(name, None)
    _INSTANCES.pop(name, None)


def __getattr__(attr: str):  # pragma: no cover - import convenience
    # ``from repro.technologies import CellTechnology`` without paying
    # the base-module import on plain registry use.
    if attr == "CellTechnology":
        from repro.technologies.base import CellTechnology

        return CellTechnology
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")
