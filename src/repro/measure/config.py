"""Scan configuration: one frozen object instead of a kwarg pile.

The scan entry points take their options — ``preflight`` for the ERC
pass, ``force_engine`` for reference mode, ``tier`` for per-cell
measurements — and the observability and resilience attachments
(tracer, metrics, progress, ledger, fault plan, checkpoint) as one
immutable :class:`ScanConfig` that callers build once and reuse:

    from repro.measure import ScanConfig
    from repro.obs import Tracer, MetricsRegistry

    config = ScanConfig(tracer=Tracer(), metrics=MetricsRegistry())
    result = ArrayScanner(array, structure).scan(config)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.errors import MeasurementError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetricsRegistry
from repro.obs.progress import NULL_PROGRESS, JsonlProgress, NullProgress, ProgressReporter
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger
    from repro.resilience.checkpoint import Checkpointer
    from repro.resilience.faults import FaultPlan

__all__ = ["ScanConfig"]

#: Valid per-cell measurement tiers.
_TIERS = ("charge", "transient")


@dataclass(frozen=True)
class ScanConfig:
    """Immutable configuration consumed by the scan entry points.

    Attributes
    ----------
    preflight:
        Run the static ERC pass (:mod:`repro.lint`) before scanning and
        raise :class:`~repro.errors.RuleViolation` on unwaived errors.
    force_engine:
        Route every macro through the exact charge engine (reference
        mode; slow).
    tier:
        Per-cell measurement tier for
        :meth:`~repro.measure.scan.ArrayScanner.measure_cell`:
        ``"charge"`` or ``"transient"``.
    technology:
        Cell-technology backend name (:mod:`repro.technologies`) the
        scan is running against: ``"edram"`` (default), ``"fecap"``,
        ``"1t"``, or any name registered at construction time.  The
        scanner validates it against the array's own technology tag —
        the backend supplies post-scan physics (e.g. ferroelectric
        read-disturb) and per-run ledger scalars, so a mismatch would
        silently apply the wrong physics.  Data-affecting: part of the
        config fingerprint and the resume key set.
    tracer:
        Span recorder (:class:`repro.obs.Tracer`).  Defaults to the
        zero-cost :data:`repro.obs.NULL_TRACER`.
    metrics:
        Metrics registry (:class:`repro.obs.MetricsRegistry`), installed
        ambiently for the duration of the scan so engine-level
        instruments land in it too.  Defaults to the no-op registry.
    progress:
        Live progress reporter (:class:`repro.obs.ProgressReporter` for a
        TTY status line, :class:`repro.obs.JsonlProgress` for a
        machine-readable event stream).  Defaults to the zero-cost
        :data:`repro.obs.NULL_PROGRESS`.
    ledger:
        When set, the driver that runs — the scan, ``measure_wafer``
        or the diagnosis pipeline — records one run manifest into this
        :class:`repro.obs.RunLedger` on completion (provenance: config
        hash, seed, stats, per-run and calibrated-bitmap scalars, and
        the handle's label and trace path) and hands back its run id.
        Its record finishes ``checkpoint``.  ``None`` records nothing.
    faults:
        A :class:`repro.resilience.FaultPlan` armed for the duration of
        the scan (chaos testing; ``None`` = disarmed).
    checkpoint:
        A :class:`repro.resilience.Checkpointer` persisting
        completed-macro state through the run ledger so an interrupted
        scan can ``--resume``.  ``None`` checkpoints nothing.

    Derive variants with :meth:`dataclasses.replace` or
    :meth:`ScanConfig.with_options`.
    """

    preflight: bool = False
    force_engine: bool = False
    tier: str = "charge"
    technology: str = "edram"
    tracer: Tracer | NullTracer = field(default=NULL_TRACER, compare=False)
    metrics: MetricsRegistry | NullMetricsRegistry = field(
        default=NULL_METRICS, compare=False
    )
    progress: ProgressReporter | JsonlProgress | NullProgress = field(
        default=NULL_PROGRESS, compare=False
    )
    ledger: "RunLedger | None" = field(default=None, compare=False)
    faults: "FaultPlan | None" = field(default=None, compare=False)
    checkpoint: "Checkpointer | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.tier not in _TIERS:
            raise MeasurementError(
                f"unknown tier {self.tier!r} (expected one of {_TIERS})"
            )
        # Lazy import: repro.technologies.names() is import-free (the
        # registry imports no backend module), so this stays cheap on
        # every ScanConfig construction and avoids an import cycle.
        from repro.technologies import names

        if self.technology not in names():
            raise MeasurementError(
                f"unknown technology {self.technology!r} "
                f"(registered: {', '.join(names())})"
            )

    def with_options(self, **changes: Any) -> "ScanConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    @property
    def observed(self) -> bool:
        """True when a real tracer or metrics registry is attached."""
        return self.tracer.enabled or self.metrics.enabled

