"""A small, self-contained analog circuit simulator.

This package substitutes for the proprietary SPICE + design-kit flow the
paper used to validate the measurement structure (DESIGN.md §2).  It
provides:

- :class:`Circuit` — netlist container (nodes + elements),
- linear elements (:class:`Resistor`, :class:`Capacitor`,
  :class:`VoltageSource`, :class:`CurrentSource`, :class:`Switch`),
- a level-1/EKV-interpolated :class:`Mosfet`,
- waveform stimuli (:mod:`repro.circuit.stimulus`),
- a DC operating-point solver (:func:`dc_operating_point`),
- a fixed-step transient solver (:func:`transient_analysis`) producing
  :class:`Waveform` results,
- an exact charge-redistribution engine for switched-capacitor networks
  (:class:`CapacitorNetwork`), used as the fast path for array-scale
  measurement scans.

The two solver tiers (transient MNA vs charge engine) are cross-validated
in ``tests/integration/test_solver_agreement.py``.

Names resolve lazily from ``_EXPORTS`` (:mod:`repro._lazy`): the
measurement structure needs only :class:`Mosfet`, and loading it must
not load the MNA, DC and transient solvers.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.circuit.netlist import Circuit, GROUND
    from repro.circuit.elements import (
        Resistor,
        Capacitor,
        VoltageSource,
        CurrentSource,
        Switch,
    )
    from repro.circuit.mosfet import Mosfet
    from repro.circuit.stimulus import (
        Stimulus,
        Constant,
        Step,
        Pulse,
        PiecewiseLinear,
        Clock,
        Staircase,
    )
    from repro.circuit.dc import dc_operating_point
    from repro.circuit.transient import transient_analysis, TransientOptions
    from repro.circuit.waveform import Waveform
    from repro.circuit.charge import CapacitorNetwork, ChargeState

_EXPORTS = {
    "Circuit": "repro.circuit.netlist",
    "GROUND": "repro.circuit.netlist",
    "Resistor": "repro.circuit.elements",
    "Capacitor": "repro.circuit.elements",
    "VoltageSource": "repro.circuit.elements",
    "CurrentSource": "repro.circuit.elements",
    "Switch": "repro.circuit.elements",
    "Mosfet": "repro.circuit.mosfet",
    "Stimulus": "repro.circuit.stimulus",
    "Constant": "repro.circuit.stimulus",
    "Step": "repro.circuit.stimulus",
    "Pulse": "repro.circuit.stimulus",
    "PiecewiseLinear": "repro.circuit.stimulus",
    "Clock": "repro.circuit.stimulus",
    "Staircase": "repro.circuit.stimulus",
    "dc_operating_point": "repro.circuit.dc",
    "transient_analysis": "repro.circuit.transient",
    "TransientOptions": "repro.circuit.transient",
    "Waveform": "repro.circuit.waveform",
    "CapacitorNetwork": "repro.circuit.charge",
    "ChargeState": "repro.circuit.charge",
}

__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Switch",
    "Mosfet",
    "Stimulus",
    "Constant",
    "Step",
    "Pulse",
    "PiecewiseLinear",
    "Clock",
    "Staircase",
    "dc_operating_point",
    "transient_analysis",
    "TransientOptions",
    "Waveform",
    "CapacitorNetwork",
    "ChargeState",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
