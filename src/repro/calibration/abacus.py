"""The abacus: code ↔ capacitance calibration map (paper Figure 3).

The paper builds its abacus "from a set of simulation": sweep the target
capacitance, record the current step at which OUT switches, and use the
resulting staircase to translate codes back into capacitance.  This
module provides that map two ways:

- :meth:`Abacus.analytic` inverts the closed-form transfer chain
  (charge-sharing algebra → REF sink current → code boundary) exactly;
- :meth:`Abacus.from_simulation` reproduces the paper's procedure by
  bisecting each code boundary with real charge-tier measurements on a
  nominal macro.

Both agree (pinned by tests) because the closed form *is* the charge
algebra.  An abacus is specific to one structure design and one macro
geometry — exactly like the paper's, which is specific to their design
and their 0.18 µm kit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.calibration.design import nominal_background
from repro.edram.array import EDRAMArray
from repro.errors import CalibrationError
from repro.measure.sequencer import MeasurementSequencer
from repro.measure.structure import MeasurementStructure
from repro.units import aF, fF, to_fF, to_uA


@dataclass(frozen=True)
class AbacusRow:
    """One line of the abacus table.

    ``c_min``/``c_max`` bound the capacitances producing ``code``
    (farads; ``c_max`` is ``inf`` for the over-range code), and
    ``current`` is the DAC output at that step.
    """

    code: int
    c_min: float
    c_max: float
    current: float

    @property
    def c_mid(self) -> float:
        """Bin midpoint (the capacitance estimate for this code), farads."""
        if np.isinf(self.c_max):
            return self.c_min
        return 0.5 * (self.c_min + self.c_max)

    @property
    def width(self) -> float:
        """Bin width in farads (inf for the over-range code)."""
        return self.c_max - self.c_min


class Abacus:
    """Calibrated code ↔ capacitance map for one structure + macro geometry.

    Construct through :meth:`analytic` or :meth:`from_simulation`; the
    raw constructor takes explicit bin edges (farads), where ``edges[k]``
    is the capacitance at which the code transitions ``k → k+1``.
    """

    def __init__(self, structure: MeasurementStructure, edges: np.ndarray) -> None:
        edges = np.asarray(edges, dtype=float)
        if edges.shape != (structure.design.num_steps,):
            raise CalibrationError(
                f"need {structure.design.num_steps} edges, got {edges.shape}"
            )
        if np.any(np.diff(edges) < 0):
            raise CalibrationError("abacus edges must be non-decreasing")
        self.structure = structure
        self.edges = edges
        #: ``mids[code]`` is the code's bin midpoint (``row(code).c_mid``).
        self.mids = np.array([self.row(k).c_mid for k in range(self.num_steps + 1)])

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def for_array(cls, structure: MeasurementStructure, array: "EDRAMArray") -> "Abacus":
        """Analytic abacus matching an array's macro tiling."""
        return cls.analytic(
            structure, array.macro_rows, array.macro_cols, bitline_rows=array.rows
        )

    @classmethod
    def analytic(
        cls,
        structure: MeasurementStructure,
        rows: int,
        macro_cols: int,
        bitline_rows: int | None = None,
    ) -> "Abacus":
        """Exact abacus from the closed-form transfer chain.

        Reads the structure's memoized boundary table, so a scanner built
        on the same structure afterwards solves no boundary again.
        """
        tech = structure.tech
        background = nominal_background(tech, rows, macro_cols, bitline_rows)
        creft = structure.c_ref_total
        edges = []
        for code, v in enumerate(structure.code_boundaries().tolist(), start=1):
            if v >= tech.vdd:
                raise CalibrationError(
                    f"code {code} boundary requires V_GS {v:.3f} V >= V_DD; "
                    "the design cannot reach full scale on this macro"
                )
            x = creft * v / (tech.vdd - v)
            edges.append(max(0.0, x - background))
        return cls(structure, np.maximum.accumulate(np.asarray(edges)))

    @classmethod
    def from_simulation(
        cls,
        structure: MeasurementStructure,
        rows: int,
        macro_cols: int,
        c_max_search: float = 100.0 * fF,
        tolerance: float = 0.005 * fF,
        bitline_rows: int | None = None,
    ) -> "Abacus":
        """The paper's procedure: locate each boundary by simulation.

        Bisects the target capacitance of cell (0, 0) of a nominal macro
        with the exact charge tier until each code transition is pinned
        to ``tolerance``.
        """
        total_rows = bitline_rows if bitline_rows is not None else rows
        if total_rows % rows != 0:
            raise CalibrationError(
                f"bitline_rows ({total_rows}) must be a multiple of the tile rows ({rows})"
            )

        def code_of(cm: float) -> int:
            array = EDRAMArray(
                total_rows,
                macro_cols,
                tech=structure.tech,
                macro_cols=macro_cols,
                macro_rows=rows,
            )
            array.cell(0, 0).capacitance = max(cm, 1.0 * aF)
            sequencer = MeasurementSequencer(array.macro(0), structure)
            return sequencer.measure_charge(0, 0).code

        edges = []
        lo = 0.0
        for code in range(1, structure.design.num_steps + 1):
            if code_of(c_max_search) < code:
                # Boundary beyond the search ceiling: saturate.
                edges.append(c_max_search)
                continue
            a, b = lo, c_max_search
            while b - a > tolerance:
                mid = 0.5 * (a + b)
                if code_of(mid) < code:
                    a = mid
                else:
                    b = mid
            edge = 0.5 * (a + b)
            edges.append(edge)
            lo = edge  # boundaries are ordered; restart from the last one
        return cls(structure, np.asarray(edges))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def num_steps(self) -> int:
        """Converter depth of the underlying structure."""
        return self.structure.design.num_steps

    @property
    def range_floor(self) -> float:
        """Lowest capacitance distinguishable from code 0, farads."""
        return float(self.edges[0])

    @property
    def range_ceiling(self) -> float:
        """Capacitance at which the code saturates, farads."""
        return float(self.edges[-1])

    def code_for_capacitance(self, capacitance: float) -> int:
        """Code an ideal measurement of ``capacitance`` would produce."""
        if capacitance < 0:
            raise CalibrationError(f"capacitance must be >= 0, got {capacitance}")
        return int(np.searchsorted(self.edges, capacitance, side="right"))

    def row(self, code: int) -> AbacusRow:
        """The abacus line for ``code``."""
        if not 0 <= code <= self.num_steps:
            raise CalibrationError(f"code {code} outside 0..{self.num_steps}")
        c_min = 0.0 if code == 0 else float(self.edges[code - 1])
        c_max = float("inf") if code == self.num_steps else float(self.edges[code])
        return AbacusRow(
            code=code,
            c_min=c_min,
            c_max=c_max,
            current=code * self.structure.design.delta_i,
        )

    def rows(self) -> list[AbacusRow]:
        """All abacus lines, code 0 to full scale."""
        return [self.row(code) for code in range(self.num_steps + 1)]

    def estimate(self, code: int) -> float | None:
        """Capacitance estimate for ``code`` (bin midpoint), farads.

        Returns ``None`` for the two out-of-range codes: code 0 is
        ambiguous (under-range / short / open, per the paper) and the
        full-scale code only bounds the value from below.
        """
        if code == 0 or code == self.num_steps:
            return None
        return self.row(code).c_mid

    def estimate_matrix(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`estimate`; out-of-range codes become NaN."""
        codes = np.asarray(codes)
        return np.where((codes == 0) | (codes == self.num_steps), np.nan, self.mids[codes])

    def quantization_error(self, capacitance: float) -> float:
        """Worst-case relative error of the estimate at ``capacitance``.

        Half the bin width over the value; ``inf`` outside the range.
        """
        code = self.code_for_capacitance(capacitance)
        if code == 0 or code == self.num_steps:
            return float("inf")
        return 0.5 * self.row(code).width / capacitance

    def table(self) -> str:
        """Human-readable abacus table (the Figure-3 data, as text)."""
        lines = [f"{'code':>4}  {'I (uA)':>8}  {'C range (fF)':>20}  {'estimate (fF)':>13}"]
        for row in self.rows():
            if np.isinf(row.c_max):
                c_range = f">= {to_fF(row.c_min):6.2f}"
                est = "(over range)"
            elif row.code == 0:
                c_range = f"<  {to_fF(row.c_max):6.2f}"
                est = "(ambiguous)"
            else:
                c_range = f"{to_fF(row.c_min):6.2f} .. {to_fF(row.c_max):6.2f}"
                est = f"{to_fF(row.c_mid):13.2f}"
            lines.append(
                f"{row.code:>4}  {to_uA(row.current):8.3f}  {c_range:>20}  {est:>13}"
            )
        return "\n".join(lines)
