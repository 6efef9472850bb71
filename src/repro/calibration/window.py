"""Specification windows in the current domain.

Per the paper: "This current value is used as an image of the capacitor
value, thus a specification window is defined in current."  Production
screening never inverts the abacus per cell — it simply compares the raw
code (equivalently the DAC current at the flip) against precomputed
limits.  :class:`SpecificationWindow` implements that comparison plus the
bookkeeping between the current, code and capacitance views.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.calibration.abacus import Abacus
from repro.errors import CalibrationError


class SpecVerdict(enum.Enum):
    """Outcome of screening one code against the window."""

    PASS = "pass"
    FAIL_LOW = "fail_low"
    FAIL_HIGH = "fail_high"
    AMBIGUOUS_ZERO = "ambiguous_zero"  # code 0: under-range / short / open
    OVER_RANGE = "over_range"  # full-scale code

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SpecificationWindow:
    """Pass window expressed as an inclusive code interval.

    Build with :meth:`from_capacitance` to translate a capacitance spec
    (e.g. 30 fF ± 20 %) into codes through an abacus.
    """

    code_lo: int
    code_hi: int
    num_steps: int
    delta_i: float
    #: ``table[code]`` is ``classify(code)``: a verdict depends on the code alone.
    table: tuple[SpecVerdict, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.code_lo <= self.code_hi < self.num_steps:
            raise CalibrationError(
                f"window codes must satisfy 0 < lo <= hi < {self.num_steps}, "
                f"got [{self.code_lo}, {self.code_hi}]"
            )
        object.__setattr__(self, "table", tuple(map(self.classify, range(self.num_steps + 1))))

    @classmethod
    def from_capacitance(
        cls, abacus: Abacus, c_min: float, c_max: float
    ) -> "SpecificationWindow":
        """Window passing capacitances in ``[c_min, c_max]``.

        The code interval is the smallest one containing every code that
        an in-spec capacitance can produce.
        """
        if not 0 < c_min < c_max:
            raise CalibrationError(f"need 0 < c_min < c_max, got [{c_min}, {c_max}]")
        code_lo = abacus.code_for_capacitance(c_min)
        code_hi = abacus.code_for_capacitance(c_max)
        if code_lo == 0 or code_hi == abacus.num_steps:
            raise CalibrationError(
                "capacitance spec extends outside the measurable range; "
                "re-design the structure for a wider range first"
            )
        return cls(
            code_lo=code_lo,
            code_hi=code_hi,
            num_steps=abacus.num_steps,
            delta_i=abacus.structure.design.delta_i,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def current_lo(self) -> float:
        """Lower window limit in the current domain, amperes."""
        return self.code_lo * self.delta_i

    @property
    def current_hi(self) -> float:
        """Upper window limit in the current domain, amperes."""
        return self.code_hi * self.delta_i

    # ------------------------------------------------------------------
    # Screening
    # ------------------------------------------------------------------

    def classify(self, code: int) -> SpecVerdict:
        """Screen one measurement code against the window."""
        if not 0 <= code <= self.num_steps:
            raise CalibrationError(f"code {code} outside 0..{self.num_steps}")
        if code == 0:
            return SpecVerdict.AMBIGUOUS_ZERO
        if code == self.num_steps:
            return SpecVerdict.OVER_RANGE
        if code < self.code_lo:
            return SpecVerdict.FAIL_LOW
        if code > self.code_hi:
            return SpecVerdict.FAIL_HIGH
        return SpecVerdict.PASS

    def code_index(self, codes: np.ndarray) -> np.ndarray:
        """``codes`` as table indices; the first out-of-range code (row-major) raises."""
        index = np.asarray(codes, dtype=np.intp)
        bad = np.flatnonzero((index < 0) | (index > self.num_steps))
        if bad.size:
            raise CalibrationError(f"code {int(index.flat[bad[0]])} outside 0..{self.num_steps}")
        return index

    def passes(self, code: int) -> bool:
        """True when the code lands inside the window."""
        return self.classify(code) is SpecVerdict.PASS
