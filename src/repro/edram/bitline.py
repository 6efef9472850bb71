"""Bitline charge-sharing arithmetic for the behavioural read path.

A DRAM read is itself a charge-sharing event: the bitline is precharged
to V_DD/2, the wordline opens the access transistor, and the cell and
bitline capacitances redistribute charge, producing a small signal
voltage that the sense amplifier resolves.  This module implements that
arithmetic for the behavioural array operations and for the naive
bitline-side measurement baseline (the thing the paper's plate-node
connection is designed to avoid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro.errors import ArrayConfigError

#: One cell's value or a plane of them (the arithmetic is elementwise).
_Cells = TypeVar("_Cells", float, np.ndarray)


@dataclass(frozen=True)
class Bitline:
    """One bitline's electrical summary.

    Parameters
    ----------
    capacitance:
        Total parasitic bitline capacitance in farads.
    precharge_voltage:
        Equalisation level before sensing, volts (V_DD/2 scheme).
    """

    capacitance: float
    precharge_voltage: float

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise ArrayConfigError(
                f"bitline capacitance must be positive, got {self.capacitance}"
            )

    def share_with_cell(self, cell_capacitance: _Cells, cell_voltage: _Cells) -> _Cells:
        """Bitline voltage after charge-sharing with one cell.

        Standard DRAM read signal:
        ``V_BL' = (C_BL·V_pre + C_cell·V_cell) / (C_BL + C_cell)``.
        A zero cell capacitance (open cell) leaves the precharge level
        untouched.
        """
        if np.any(np.less(cell_capacitance, 0)):
            raise ArrayConfigError(
                f"cell capacitance must be >= 0, got {cell_capacitance}"
            )
        total = self.capacitance + cell_capacitance
        return (
            self.capacitance * self.precharge_voltage
            + cell_capacitance * cell_voltage
        ) / total

    def read_signal(self, cell_capacitance: _Cells, cell_voltage: _Cells) -> _Cells:
        """Signed sense signal ΔV = V_BL' − V_precharge, volts.

        Positive for a stored '1' (cell above the precharge level).
        """
        return (
            self.share_with_cell(cell_capacitance, cell_voltage)
            - self.precharge_voltage
        )

    def transfer_ratio(self, cell_capacitance: float) -> float:
        """The attenuation C_cell/(C_cell + C_BL) a stored level suffers.

        This is the figure of merit the paper's intro worries about: with
        C_BL ≈ 10–20× the cell capacitance, only a few percent of the
        stored swing reaches the bitline, which is why measuring the
        capacitor *through the bitline* is hopeless.
        """
        if cell_capacitance < 0:
            raise ArrayConfigError(
                f"cell capacitance must be >= 0, got {cell_capacitance}"
            )
        return cell_capacitance / (cell_capacitance + self.capacitance)
