"""The paper's contribution: the embedded capacitor measurement structure.

This package implements the test structure of Figure 1 and its five-phase
measurement flow (§2 of the paper):

1. **Discharge** — every capacitor in the macro-cell and the structure is
   grounded (all wordlines on, all bitlines driven low, PRG and LEC on,
   IN low).
2. **Charge C_m** — only the target cell's capacitor is charged: its
   wordline stays on, its bitline stays grounded, every other bitline is
   raised to V_DD, LEC is off, and IN drives the plate to V_DD through
   PRG.  PRG opens at the end of the phase.
3. **Isolate** — every bitline-select transistor except the target's
   opens, leaving C_m as the only capacitor actively held on the plate.
4. **Charge share** — LEC closes; C_m shares charge with C_REF (the gate
   capacitance of the REF transistor), setting V_GS.
5. **Convert** — the programmable current reference I_REFP ramps through
   ``num_steps`` equal increments under shift-register control.  When the
   injected current exceeds what REF can sink below V_DD/2, the drain
   rises past the inverter threshold and OUT flips; the register position
   at the flip is the digital code.

Three execution tiers produce the same code and are cross-validated:

- :meth:`MeasurementSequencer.measure_transient` — full MNA transient on
  the real-transistor netlist (the Figure-2 reproduction),
- :meth:`MeasurementSequencer.measure_charge` — exact ideal-switch
  charge-redistribution flow plus a static I-V conversion,
- :class:`repro.measure.scan.ArrayScanner` — vectorized closed-form
  evaluation of the same algebra for whole-array scans.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.measure.config import ScanConfig
    from repro.measure.result import MeasurementResult, CodeMeaning
    from repro.measure.shift_register import ShiftRegister
    from repro.measure.current_dac import ProgrammableCurrentReference
    from repro.measure.sense import SenseChain, InverterDesign
    from repro.measure.structure import MeasurementDesign, MeasurementStructure
    from repro.measure.phases import PhasePlan, Phase
    from repro.measure.sequencer import MeasurementSequencer
    from repro.measure.kernel import KernelConstants, closed_form_vgs_plane
    from repro.measure.scan import ArrayScanner, ScanResult
    from repro.measure.stats import ScanStats
    from repro.measure.noise import NoiseAnalysis, NoiseBudget
    from repro.measure.faults import FaultSpec, FaultySequencer, StructureFault, fault_signature

_EXPORTS = {
    "MeasurementResult": "repro.measure.result",
    "CodeMeaning": "repro.measure.result",
    "ShiftRegister": "repro.measure.shift_register",
    "ProgrammableCurrentReference": "repro.measure.current_dac",
    "SenseChain": "repro.measure.sense",
    "InverterDesign": "repro.measure.sense",
    "MeasurementDesign": "repro.measure.structure",
    "MeasurementStructure": "repro.measure.structure",
    "PhasePlan": "repro.measure.phases",
    "Phase": "repro.measure.phases",
    "MeasurementSequencer": "repro.measure.sequencer",
    "KernelConstants": "repro.measure.kernel",
    "closed_form_vgs_plane": "repro.measure.kernel",
    "ArrayScanner": "repro.measure.scan",
    "ScanConfig": "repro.measure.config",
    "ScanResult": "repro.measure.scan",
    "ScanStats": "repro.measure.stats",
    "NoiseAnalysis": "repro.measure.noise",
    "NoiseBudget": "repro.measure.noise",
    "FaultSpec": "repro.measure.faults",
    "FaultySequencer": "repro.measure.faults",
    "StructureFault": "repro.measure.faults",
    "fault_signature": "repro.measure.faults",
}

__all__ = [
    "MeasurementResult",
    "CodeMeaning",
    "ShiftRegister",
    "ProgrammableCurrentReference",
    "SenseChain",
    "InverterDesign",
    "MeasurementDesign",
    "MeasurementStructure",
    "PhasePlan",
    "Phase",
    "MeasurementSequencer",
    "KernelConstants",
    "closed_form_vgs_plane",
    "ArrayScanner",
    "ScanConfig",
    "ScanResult",
    "ScanStats",
    "NoiseAnalysis",
    "NoiseBudget",
    "FaultSpec",
    "FaultySequencer",
    "StructureFault",
    "fault_signature",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
