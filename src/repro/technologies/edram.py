"""The default backend: the paper's 1T1C eDRAM stack.

This is a thin re-registration of the existing :mod:`repro.edram` /
:mod:`repro.tech` machinery behind the :class:`CellTechnology` seam.
Its construction recipes are **bit-exact** with the historical direct
paths (the CLI's array synthesis, the wafer model's die fabrication,
the scanner's default structure) — pinned by property tests — so moving
callers onto the registry changes no data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.technologies.base import CellTechnology
from repro.units import fF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.edram.array import EDRAMArray
    from repro.tech.parameters import TechnologyCard


class EDRAMTechnology(CellTechnology):
    """1T1C eDRAM per the source paper (DATE 2005)."""

    name = "edram"
    display = "1T1C eDRAM, 0.18 um (the paper's technology)"
    headline = "capacitance"
    reference = "DATE 2005 (source paper)"
    mismatch_sigma = 0.8 * fF

    def base_card(self) -> "TechnologyCard":
        from repro.tech.parameters import default_technology

        return default_technology()

    def build_array(
        self,
        rows: int,
        cols: int,
        *,
        macro_rows: int | None = None,
        macro_cols: int = 2,
        seed: int = 0,
        nominal: float | None = None,
        with_defects: bool = False,
        tech: "TechnologyCard | None" = None,
    ) -> "EDRAMArray":
        from repro.edram.array import EDRAMArray
        from repro.edram.variation_map import (
            compose_maps,
            mismatch_map,
            uniform_map,
        )

        card = tech if tech is not None else self.base_card()
        if nominal is None:
            nominal = card.cell_capacitance
        shape = (rows, cols)
        capacitance = compose_maps(
            uniform_map(shape, nominal),
            mismatch_map(shape, self.mismatch_sigma, seed=seed),
        )
        array = EDRAMArray(
            rows, cols, tech=card, macro_cols=macro_cols,
            macro_rows=macro_rows, capacitance_map=capacitance,
        )
        array.seed = seed
        if with_defects:
            self.inject_defects(array, seed)
        return array

    def measurement_range(self) -> tuple[float, float, int]:
        # The paper's sentence: "scaled in a range of eDRAM capacitor of
        # 10 fF – 55 fF", 20 converter steps.
        return (10.0 * fF, 55.0 * fF, 20)

    def spec_window(self) -> tuple[float, float]:
        # The historical diagnose CLI window: 24–36 fF around the 30 fF
        # nominal.
        return (24.0 * fF, 36.0 * fF)
