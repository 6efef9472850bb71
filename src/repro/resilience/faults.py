"""Deterministic fault injection: make the stack fail on purpose.

Robustness claims are worthless untested — "the wafer survives a dead
worker" means nothing until a test kills a worker at a chosen die and
asserts the lot still comes back complete.  This module is that
trigger: a :class:`FaultPlan` describes *where* (a named fault site plus
attribute matchers), *when* (skip counts, firing limits, seeded
probabilities) and *how* (raise an exception, kill the process, stall)
the stack should fail, and :func:`fault_point` calls sprinkled at the
stack's failure boundaries consult the ambient plan.

Determinism is the design centre: a plan fires as a pure function of
the (site, attributes, per-fault invocation count, seed) tuple — never
of wall-clock time or OS scheduling — so a chaos test that kills a
shard worker at die 2 does exactly that on every run, and a resumed scan sees
exactly the faults an uninterrupted scan would have seen for the macros
it actually re-executes.

Fault sites currently instrumented (grep ``fault_point(`` for truth):

======================  ===============================================
``solver.dc``           entry of :func:`repro.circuit.dc.dc_solve_vector`
``solver.newton``       each Newton rung attempt (attrs: ``rung``)
``sequencer.measure``   per engine-tier cell (attrs: row/col, global)
``scan.closed_form``    per closed-form macro; in a kernel scan it fires
                        after the macro's slab pass (attrs: macro)
``scan.macro_done``     parent-side, after a macro lands; in a kernel
                        scan per macro after the slab pass, before the
                        slab's checkpoint persist (attrs: macro)
``wafer.die_done``      parent-side, after a die lands (attrs: die)
``durable.write``       in :func:`~repro.resilience.durable.durable_write`,
                        after the tmp is fsynced, before the rename
                        (attrs: target — file name, parent — its
                        directory's name)
``durable.append``      in :func:`~repro.resilience.durable.durable_append`,
                        before any byte is appended — a checkpoint
                        segment or a ledger manifest line (attrs:
                        target, parent)
``durable.link``        in :func:`~repro.resilience.durable.durable_link`,
                        after the finished run file is linked at the
                        tmp, before the rename (attrs: target, parent)
======================  ===============================================

Zero-cost when disarmed: :func:`fault_point` is one context-variable
read and a ``None`` check.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.errors import ResilienceError

__all__ = [
    "Fault",
    "FaultPlan",
    "fault_point",
    "inject",
    "install_plan",
    "active_fault_plan",
]

#: Supported fault behaviours.
_KINDS = ("raise", "kill", "sleep")

#: Exit status used by ``kill`` faults — distinctive in waitpid output.
KILL_EXIT_STATUS = 86

#: True inside fleet shard worker processes (set at worker start-up);
#: ``kill`` faults only fire there, so a mis-targeted plan can never
#: take down the parent interpreter.
_IN_WORKER = False


def mark_worker_process() -> None:
    """Flag this process as a fleet shard worker (enables ``kill``)."""
    global _IN_WORKER
    _IN_WORKER = True


@dataclass(frozen=True)
class Fault:
    """One planned failure.

    Parameters
    ----------
    site:
        Name of the :func:`fault_point` this fault arms.
    error:
        Exception instance raised when the fault fires (``kind="raise"``).
    kind:
        ``"raise"`` (default), ``"kill"`` (``os._exit`` — worker
        processes only; a no-op elsewhere), or ``"sleep"`` (stall for
        ``seconds`` — drives timeout supervision).
    match:
        Attribute selectors; the fault only considers invocations whose
        ``fault_point`` attributes equal every listed value (e.g.
        ``{"macro": 2}``).
    times:
        Maximum firings (``None`` = unlimited).  Counted per fault over
        matching invocations, within one process.
    after:
        Matching invocations to let pass before the first firing.
    seconds:
        Stall duration for ``kind="sleep"``.
    probability:
        When set, each eligible invocation fires with this probability,
        decided by a seeded hash of (site, attributes, count) — random
        in distribution, reproducible in fact.
    """

    site: str
    error: BaseException | None = None
    kind: str = "raise"
    match: Mapping[str, Any] = field(default_factory=dict)
    times: int | None = 1
    after: int = 0
    seconds: float = 0.0
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r} (expected one of {_KINDS})"
            )
        if self.kind == "raise" and self.error is None:
            raise ResilienceError(f"fault at {self.site!r}: kind 'raise' needs error=")
        if self.kind == "sleep" and self.seconds <= 0:
            raise ResilienceError(f"fault at {self.site!r}: kind 'sleep' needs seconds>0")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ResilienceError(
                f"fault at {self.site!r}: probability {self.probability} outside [0, 1]"
            )

    def matches(self, site: str, attrs: Mapping[str, Any]) -> bool:
        if site != self.site:
            return False
        return all(attrs.get(key) == value for key, value in self.match.items())


class FaultPlan:
    """An armed set of :class:`Fault` entries plus their firing state.

    Plans are picklable; invocation counters are per-process runtime
    state and reset on unpickle, so a plan handed to another process
    starts fresh there.
    """

    def __init__(self, faults: tuple[Fault, ...] | list[Fault] = (), seed: int = 0) -> None:
        self.faults = tuple(faults)
        self.seed = seed
        self._counts: dict[int, int] = {}
        self._fired: dict[int, int] = {}
        self.firings: list[tuple[str, dict[str, Any], str]] = []

    def __getstate__(self) -> dict[str, Any]:
        return {"faults": self.faults, "seed": self.seed}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["faults"], state["seed"])

    def _chance(self, fault: Fault, site: str, attrs: Mapping[str, Any], count: int) -> bool:
        if fault.probability is None:
            return True
        key = f"{self.seed}:{site}:{sorted(attrs.items())!r}:{count}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        u = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return u < fault.probability

    def fire(self, site: str, attrs: Mapping[str, Any]) -> None:
        """Trigger every armed fault matching this invocation."""
        for index, fault in enumerate(self.faults):
            if not fault.matches(site, attrs):
                continue
            count = self._counts.get(index, 0)
            self._counts[index] = count + 1
            if count < fault.after:
                continue
            fired = self._fired.get(index, 0)
            if fault.times is not None and fired >= fault.times:
                continue
            if not self._chance(fault, site, attrs, count):
                continue
            self._fired[index] = fired + 1
            self.firings.append((site, dict(attrs), fault.kind))
            if fault.kind == "sleep":
                time.sleep(fault.seconds)
            elif fault.kind == "kill":
                if _IN_WORKER:
                    os._exit(KILL_EXIT_STATUS)
                # Outside a worker a kill would take the whole session
                # down — record the firing and stand down instead.
            else:
                raise fault.error  # type: ignore[misc]  # validated non-None


_ACTIVE: ContextVar["FaultPlan | None"] = ContextVar("repro_fault_plan", default=None)


def active_fault_plan() -> "FaultPlan | None":
    """The ambient plan, or ``None`` when fault injection is disarmed."""
    return _ACTIVE.get()


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the ``with`` block."""
    token = _ACTIVE.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE.reset(token)


def install_plan(plan: "FaultPlan | None") -> None:
    """Arm ``plan`` process-wide (worker start-up; no scoping needed)."""
    _ACTIVE.set(plan)


def fault_point(site: str, **attrs: Any) -> None:
    """Declare a failure boundary; fires the ambient plan if armed."""
    plan = _ACTIVE.get()
    if plan is not None:
        plan.fire(site, attrs)
