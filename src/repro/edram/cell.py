"""The 1T1C eDRAM cell.

A cell is one n-MOS access transistor in series with a storage capacitor
whose far plate is the shared plate node.  The class carries both the
*structural* truth (drawn capacitance, defect) and the *behavioural*
state (stored voltage, time of last refresh) used by array operations.

The distinction between :attr:`capacitance` (drawn / as-fabricated value,
what the measurement structure tries to read) and
:meth:`effective_capacitance` (what the cell electrically presents at the
plate when selected, after defects) is load-bearing: a LOW_CAP cell has a
reduced value in *both*; an OPEN cell has a normal drawn value but
presents ~0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.edram.defects import CellDefect, DefectKind
from repro.errors import DefectError
from repro.units import fA


def drooped_voltage(
    v_written: float | np.ndarray,
    t_written: float | np.ndarray,
    time: float | np.ndarray,
    leak_current: float | np.ndarray,
    capacitance: float | np.ndarray,
) -> float | np.ndarray:
    """Stored level at ``time`` after linear junction-leakage droop, volts.

    A constant junction current drains the node from the level written
    at ``t_written``; the result clamps at 0 V.  Elementwise on scalars
    or planes: a plane evaluates the same IEEE operations in the same
    order as one cell does, so both agree bit for bit.
    """
    dt = np.maximum(0.0, time - t_written)
    return np.maximum(0.0, v_written - leak_current * dt / capacitance)


@dataclass
class DRAMCell:
    """State of a single 1T1C cell.

    Parameters
    ----------
    capacitance:
        As-fabricated storage capacitance in farads (defect-free drawn
        value modified by process variation).
    leak_current:
        Junction leakage pulling the storage node toward ground, amperes.
    defect:
        Optional attached :class:`~repro.edram.defects.CellDefect`.
    v_storage:
        Behavioural storage-node voltage, volts.
    t_written:
        Behavioural timestamp of the last write/refresh, seconds.

    Cells of an :class:`~repro.edram.array.EDRAMArray` keep their
    functional-test state in the array's planes instead
    (:class:`~repro.edram.operations.ArrayOperations`); the two
    behavioural fields serve standalone cells.
    """

    capacitance: float
    leak_current: float = 1.0 * fA
    defect: CellDefect | None = None
    v_storage: float = 0.0
    t_written: float = 0.0

    #: Attributes whose mutation an owning array must observe to keep its
    #: bulk matrices coherent (behavioural state is deliberately excluded:
    #: stored data does not affect what the structure measures).
    _WATCHED = ("capacitance", "defect", "leak_current")

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name in self._WATCHED:
            # Installed by EDRAMArray after construction; absent on
            # standalone cells and during dataclass __init__.
            watcher = self.__dict__.get("_watcher")
            if watcher is not None:
                array, row, col = watcher
                array._note_cell_changed(row, col)

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise DefectError(f"cell capacitance must be positive, got {self.capacitance}")
        if self.leak_current < 0:
            raise DefectError(f"leak current must be >= 0, got {self.leak_current}")

    # ------------------------------------------------------------------
    # Defects
    # ------------------------------------------------------------------

    def apply_defect(self, defect: CellDefect) -> None:
        """Attach a defect; parametric kinds also rescale the capacitance."""
        if self.defect is not None:
            raise DefectError("cell already carries a defect")
        self.defect = defect
        if defect.kind in (DefectKind.LOW_CAP, DefectKind.HIGH_CAP):
            self.capacitance *= defect.factor
        elif defect.kind == DefectKind.RETENTION:
            self.leak_current *= defect.factor

    def has_defect(self, kind: DefectKind) -> bool:
        """True if the cell carries a defect of the given kind."""
        return self.defect is not None and self.defect.kind == kind

    # ------------------------------------------------------------------
    # Electrical presentation
    # ------------------------------------------------------------------

    def effective_capacitance(self) -> float:
        """Capacitance the cell presents at the plate when selected.

        - OPEN / ACCESS_OPEN: the capacitor (or its ground return) is
          disconnected → ~0 F.
        - SHORT: the capacitor is a resistive short; it holds no charge
          → 0 F for charge-sharing purposes (the short also discharges
          the plate, which the measurement models separately via
          :meth:`is_plate_shorted`).
        - otherwise: the (possibly parametrically shifted) capacitance.
        """
        if self.defect is None:
            return self.capacitance
        kind = self.defect.kind
        if kind in (DefectKind.OPEN, DefectKind.ACCESS_OPEN, DefectKind.SHORT):
            return 0.0
        return self.capacitance

    def is_plate_shorted(self) -> bool:
        """True if a dielectric short ties the storage node to the plate."""
        return self.has_defect(DefectKind.SHORT)

    def can_write(self) -> bool:
        """True if a bitline write can reach the storage node."""
        return not (
            self.has_defect(DefectKind.OPEN) or self.has_defect(DefectKind.ACCESS_OPEN)
        )

    # ------------------------------------------------------------------
    # Behavioural state
    # ------------------------------------------------------------------

    def write(self, voltage: float, time: float) -> None:
        """Set the stored level (full-swing write through the access FET)."""
        if self.can_write():
            self.v_storage = voltage
        self.t_written = time

    def stored_voltage(self, time: float, plate_bias: float) -> float:
        """Storage-node voltage at ``time`` including leakage decay.

        Leakage is a constant junction current toward ground, so the
        stored level decays linearly and clamps at 0 V.  A SHORT cell
        always sits at the plate bias; an OPEN cell's float is modelled
        as holding its last written level without leakage relief (its
        node is tiny, decay is fast, but it is unreadable anyway).
        """
        if self.is_plate_shorted():
            return plate_bias
        return float(
            drooped_voltage(
                self.v_storage, self.t_written, time, self.leak_current, self.capacitance
            )
        )

    def retention_time(self, v_written: float, v_min: float) -> float:
        """Seconds until a written ``v_written`` droops to ``v_min``."""
        if v_min >= v_written:
            return 0.0
        if self.leak_current == 0.0:
            return float("inf")
        return (v_written - v_min) * self.capacitance / self.leak_current
