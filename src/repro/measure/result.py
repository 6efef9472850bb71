"""Measurement result containers and code semantics.

The structure returns a small integer **code** — the number of completed
current steps before OUT flipped:

- ``code == 0``: OUT flipped on the very first step.  Per the paper this
  is ambiguous between "capacitance below the range floor", "capacitor
  shorted" and "capacitor open" — all three leave the REF transistor off.
- ``1 <= code <= num_steps - 1``: in-range; the abacus maps it to a
  capacitance estimate.
- ``code == num_steps``: OUT never flipped; capacitance at or above the
  range ceiling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import MeasurementError


class CodeMeaning(enum.Enum):
    """Coarse interpretation of a raw code (paper §2, last paragraph)."""

    UNDER_RANGE = "under_range"  # code 0: C < floor, short, or open
    IN_RANGE = "in_range"
    OVER_RANGE = "over_range"  # code == num_steps: C >= ceiling

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of one cell measurement.

    Parameters
    ----------
    code:
        Completed current steps before the OUT flip (0..num_steps).
    num_steps:
        Converter depth (20 in the paper).
    vgs:
        Internal charge-sharing voltage V_GS in volts (observable in
        simulation, not on silicon — kept for analysis and debugging).
    flip_time:
        OUT rise time in seconds for transient-tier measurements, or
        ``None`` for static tiers / never-flipped.
    tier:
        Which execution tier produced this result
        (``"transient"``, ``"charge"`` or ``"closed_form"``).
    address:
        Optional (row, col) of the measured cell.
    """

    code: int
    num_steps: int = 20
    vgs: float = float("nan")
    flip_time: float | None = None
    tier: str = "charge"
    address: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.code <= self.num_steps:
            raise MeasurementError(
                f"code {self.code} outside 0..{self.num_steps}"
            )

    @property
    def meaning(self) -> CodeMeaning:
        """Coarse range classification of this code."""
        if self.code == 0:
            return CodeMeaning.UNDER_RANGE
        if self.code == self.num_steps:
            return CodeMeaning.OVER_RANGE
        return CodeMeaning.IN_RANGE

    @property
    def in_range(self) -> bool:
        """True when the abacus can invert this code to a capacitance."""
        return self.meaning is CodeMeaning.IN_RANGE


@dataclass(frozen=True)
class ChargeBatch:
    """Outcome of one stacked charge-tier measurement of several cells.

    Returned by
    :meth:`repro.measure.sequencer.MeasurementSequencer.measure_charge`
    when it is given index arrays.

    Parameters
    ----------
    vgs:
        V_GS of every target in volts, in target order (NaN where the
        target failed).
    failed:
        Boolean mask of targets whose solve failed.
    errors:
        Per target, ``None`` or the solver error that failed it
        (:class:`~repro.errors.SingularCircuitError` or
        :class:`~repro.errors.ConvergenceError`).
    """

    vgs: np.ndarray
    failed: np.ndarray
    errors: tuple[Exception | None, ...]


@dataclass
class FlowTrace:
    """Per-phase record of a charge-tier measurement (debug/teaching aid).

    Maps phase names to the plate and gate voltages at the end of each
    phase; populated by
    :meth:`repro.measure.sequencer.MeasurementSequencer.measure_charge`
    when tracing is enabled.
    """

    plate: dict[str, float] = field(default_factory=dict)
    gate: dict[str, float] = field(default_factory=dict)

    def record(self, phase_name: str, plate_v: float, gate_v: float) -> None:
        """Store end-of-phase node voltages."""
        self.plate[phase_name] = plate_v
        self.gate[phase_name] = gate_v
