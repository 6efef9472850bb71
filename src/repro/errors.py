"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library-level failures with a
single ``except`` clause while letting programming errors (``TypeError``,
``KeyError`` from misuse of plain dicts, ...) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class NetlistError(ReproError):
    """A circuit netlist is malformed (unknown node, duplicate element, ...)."""


class ConvergenceError(ReproError):
    """A nonlinear or transient solve failed to converge.

    Attributes
    ----------
    iterations:
        Number of Newton iterations performed before giving up.
    residual:
        Final residual norm (amps for KCL residuals).
    """

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class SingularCircuitError(ReproError):
    """The MNA system is singular (floating node, voltage-source loop, ...).

    Attributes
    ----------
    nodes:
        Names of the offending node(s), when the ERC diagnosis pass
        could identify them (empty tuple otherwise).
    diagnostics:
        Structured lint findings (``repro.lint`` Diagnostic objects)
        explaining the singularity, when available.
    """

    def __init__(
        self,
        message: str,
        nodes: tuple[str, ...] = (),
        diagnostics: tuple = (),
    ):
        super().__init__(message)
        self.nodes = nodes
        self.diagnostics = diagnostics


class TechnologyError(ReproError):
    """A technology card or device parameter set is invalid."""


class ArrayConfigError(ReproError):
    """An eDRAM array geometry or addressing request is invalid."""


class DefectError(ReproError):
    """A defect specification cannot be applied to the target array."""


class MeasurementError(ReproError):
    """The measurement structure was driven outside its legal flow."""


class ScanMismatchError(MeasurementError):
    """Two scans cannot be compared (shape, dtype or depth disagree).

    Raised by :meth:`repro.measure.scan.ScanResult.diff` (and the
    :class:`ScanResult` constructor's internal-consistency check) so a
    mismatched reference fails with the offending shapes named instead
    of a numpy broadcast error deep in array arithmetic.
    """


class ObservabilityError(ReproError):
    """The tracing/metrics subsystem was misused (misnested spans,
    metric kind conflict, malformed trace file, ...)."""


class LedgerError(ObservabilityError):
    """The run ledger was misused or is unreadable (unknown run id,
    malformed manifest line, missing artifact, ...)."""


class ResilienceError(ReproError):
    """The resilience subsystem was misused (malformed fault plan,
    invalid retry policy, checkpoint/config mismatch, ...)."""


class CheckpointError(ResilienceError):
    """A scan/wafer checkpoint is unusable (unknown id, fingerprint
    mismatch against the resuming configuration, corrupted file, ...)."""


class FleetError(ResilienceError):
    """The fleet orchestrator cannot proceed (bad shard partition,
    shard fingerprint mismatch, unmergeable lot, corrupt lease, ...)."""


class CalibrationError(ReproError):
    """An abacus or specification window cannot be built or inverted."""


class DiagnosisError(ReproError):
    """A bitmap analysis or repair computation received invalid input."""


class LintError(ReproError):
    """The static-analysis subsystem was misused (unknown rule code,
    invalid target kind, unreadable source file, ...)."""


class RuleViolation(LintError):
    """A lint/ERC pre-flight check found error-severity violations.

    Raised by ``ArrayScanner.scan(..., preflight=True)`` and
    ``MeasurementSequencer`` pre-flight so a structurally bad network is
    diagnosed with stable rule codes instead of a solver blow-up.

    Attributes
    ----------
    diagnostics:
        The offending ``repro.lint`` Diagnostic objects (error severity,
        unwaived), in report order.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = diagnostics
