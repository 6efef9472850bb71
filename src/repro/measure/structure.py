"""Design constants and static behaviour of the measurement structure.

:class:`MeasurementDesign` collects every sizing decision of the paper's
structure: the REF transistor geometry (whose gate capacitance *is*
C_REF), the current-DAC step, converter depth, phase timing, switch and
inverter sizes, and local parasitics.  :class:`MeasurementStructure`
binds a design to a technology card and answers the static questions the
charge/closed-form tiers need — most importantly the code produced by a
given charge-sharing voltage V_GS.

Defaults correspond to a structure sized for the paper's Figure-1
configuration (a 2×2 macro-cell) on the nominal technology card, giving
the 10–55 fF / 20-step / ~6 % behaviour the paper reports.  For other
macro geometries use :func:`repro.calibration.design.design_structure`,
which re-sizes C_REF and ΔI so the same capacitance range maps onto the
full code scale (the paper's "abacus obtained from a set of simulation"
workflow).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.circuit.mosfet import Mosfet
from repro.errors import MeasurementError
from repro.measure.current_dac import ProgrammableCurrentReference
from repro.measure.sense import InverterDesign, SenseChain
from repro.tech.parameters import TechnologyCard
from repro.units import fF, nA, ns, uA, um


@dataclass(frozen=True)
class MeasurementDesign:
    """Sizing of one embedded measurement structure.

    Parameters
    ----------
    w_ref, l_ref:
        REF transistor geometry, metres.  C_REF = C_ox·W·L.
    delta_i:
        Current-DAC step, amperes.
    num_steps:
        Converter depth (20 in the paper).
    phase_duration:
        Duration of each of the five flow phases, seconds (10 ns).
    gate_parasitic:
        Stray capacitance on the C_REF / gate node (wiring + LEC
        junction), farads.
    drain_parasitic:
        Stray capacitance on the REF drain node, farads.
    w_switch, l_switch:
        Geometry of the PRG / LEC / STD / S_BLi pass transistors.
    inverter:
        Sense-chain inverter geometry.
    mirror_knee:
        Compliance knee of the current-mirror output, volts.
    """

    w_ref: float = 4.3 * um
    l_ref: float = 1.08 * um
    delta_i: float = 4.0 * uA
    num_steps: int = 20
    phase_duration: float = 10.0 * ns
    gate_parasitic: float = 1.0 * fF
    drain_parasitic: float = 2.0 * fF
    w_switch: float = 0.36 * um
    l_switch: float = 0.18 * um
    inverter: InverterDesign = field(default_factory=InverterDesign)
    mirror_knee: float = 0.05

    def __post_init__(self) -> None:
        if min(self.w_ref, self.l_ref, self.w_switch, self.l_switch) <= 0:
            raise MeasurementError("device geometries must be positive")
        if self.delta_i <= 0:
            raise MeasurementError(f"delta_i must be positive, got {self.delta_i}")
        if self.num_steps < 2:
            raise MeasurementError(f"num_steps must be >= 2, got {self.num_steps}")
        if self.phase_duration <= 0:
            raise MeasurementError("phase_duration must be positive")
        if self.gate_parasitic < 0 or self.drain_parasitic < 0:
            raise MeasurementError("parasitics must be >= 0")

    @property
    def step_duration(self) -> float:
        """Time per current step so the ramp fits one phase, seconds."""
        return self.phase_duration / self.num_steps

    @property
    def flow_duration(self) -> float:
        """Total five-phase flow duration, seconds (50 ns in the paper)."""
        return 5.0 * self.phase_duration

    def c_ref(self, tech: TechnologyCard) -> float:
        """The reference capacitance C_REF (REF gate capacitance), farads."""
        return tech.nmos.gate_capacitance(self.w_ref, self.l_ref)

    def with_delta_i(self, delta_i: float) -> "MeasurementDesign":
        """Copy of this design with a different DAC step."""
        return replace(self, delta_i=delta_i)


class MeasurementStructure:
    """A designed structure bound to a technology card.

    Provides the structure's derived quantities (C_REF, DAC, sense
    threshold) and the **static analog-to-digital conversion**: the code
    a given V_GS produces, which the charge and closed-form tiers use in
    place of simulating the phase-5 ramp.
    """

    def __init__(self, tech: TechnologyCard, design: MeasurementDesign | None = None) -> None:
        self.tech = tech
        self.design = design if design is not None else MeasurementDesign()
        self.dac = ProgrammableCurrentReference(self.design.delta_i, self.design.num_steps)
        self.sense = SenseChain(tech, self.design.inverter)
        # The tech card and design are frozen, so the threshold is a
        # constant of the structure; every boundary bisection reads it.
        self._threshold = self.sense.threshold
        self._ref = Mosfet(
            "REF", "drain", "gate", "0", tech.nmos,
            w=self.design.w_ref, l=self.design.l_ref,
        )
        self._boundaries: "np.ndarray | None" = None

    @property
    def c_ref(self) -> float:
        """C_REF in farads."""
        return self.design.c_ref(self.tech)

    @property
    def c_ref_total(self) -> float:
        """C_REF plus the gate-node wiring parasitic, farads."""
        return self.c_ref + self.design.gate_parasitic

    def ref_sink_current(self, vgs: float, vds: float | None = None) -> float:
        """Current the REF transistor sinks at (vgs, vds), amperes.

        ``vds`` defaults to the sense threshold — the bias at which the
        OUT flip condition is evaluated.
        """
        if vds is None:
            vds = self._threshold
        return self._ref.ids(vds, vgs, 0.0)

    def code_for_vgs(self, vgs: float) -> int:
        """Static conversion: the code phase 5 produces for a given V_GS.

        OUT flips during the first step whose injected current exceeds
        what REF can sink with its drain at the sense threshold; the code
        is the number of completed steps before that, i.e.
        ``floor(I_sink / ΔI)`` clamped to the scale.
        """
        i_sink = self.ref_sink_current(vgs)
        if i_sink <= 0.0:
            return 0
        code = int(i_sink / self.design.delta_i * (1.0 + 1e-12))
        return min(code, self.design.num_steps)

    def vgs_for_code_boundary(self, code: int) -> float:
        """The V_GS at which the output code transitions ``code-1 → code``.

        Solved by bisection on the monotone REF sink current; used by the
        accuracy analysis to express quantization bin edges in volts.
        """
        if not 1 <= code <= self.design.num_steps:
            raise MeasurementError(f"code {code} outside 1..{self.design.num_steps}")
        target = code * self.design.delta_i
        lo, hi = 0.0, 3.0 * self.tech.vdd
        if self.ref_sink_current(hi) < target:
            raise MeasurementError(
                f"REF transistor cannot sink {target} A at any V_GS; "
                "delta_i is oversized for this design"
            )
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.ref_sink_current(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def code_boundaries(self) -> np.ndarray:
        """V_GS levels at which the code increments (length ``num_steps``).

        Memoized: each boundary costs an 80-iteration bisection, and the
        table is a pure function of the design and technology, so every
        scanner sharing this structure (e.g. one per wafer die) reuses
        one solve.
        """
        if self._boundaries is None:
            self._boundaries = np.array(
                [self.vgs_for_code_boundary(k) for k in range(1, self.design.num_steps + 1)]
            )
        return self._boundaries

    def codes_for_vgs(self, vgs: "np.ndarray | float") -> np.ndarray:
        """Vectorized static conversion (matches :meth:`code_for_vgs`).

        A single ``np.searchsorted`` against the memoized boundary table.
        """
        return np.searchsorted(self.code_boundaries(), np.asarray(vgs), side="right")

    @property
    def min_detectable_step(self) -> float:
        """Smallest DAC step that can flip OUT within one step time, amperes.

        The flip requires the net injected current to slew the REF drain
        past the sense threshold inside ``step_duration``:
        ``ΔI_min = C_drain · V_threshold / t_step``.  Designs below this
        bias the transient-tier code late relative to the static tiers.
        """
        return (
            self.design.drain_parasitic
            * self.sense.threshold
            / self.design.step_duration
        )

    @property
    def is_slew_safe(self) -> bool:
        """True when the DAC step can flip OUT within one step time."""
        return self.design.delta_i >= self.min_detectable_step

    def subthreshold_leak_ok(self) -> bool:
        """Design sanity: the off-state REF leakage stays below ΔI/100."""
        return self.ref_sink_current(0.0) < max(self.design.delta_i / 100.0, 1.0 * nA)
