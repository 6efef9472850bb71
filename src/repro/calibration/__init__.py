"""Calibration layer: structure sizing, abacus, accuracy, spec windows.

The paper extracts capacitance in two moves: *design* the structure so
that the capacitance range of interest spans the 20-step code scale, and
*calibrate* with an abacus ("Using the abacus obtained from a set of
simulation, Figure 3 shows the current steps versus the capacitor
values").  This package implements both:

- :func:`design_structure` sizes C_REF and the DAC step ΔI for a given
  macro geometry so that ``[c_lo, c_hi]`` maps onto codes 0..num_steps;
- :class:`Abacus` is the code ↔ capacitance map, generated analytically
  or by sweeping the charge engine (the paper's way), with inversion and
  bin arithmetic;
- :class:`AccuracyReport` quantifies the quantization accuracy (the
  paper's "6 %" claim);
- :class:`SpecificationWindow` expresses pass/fail limits in the current
  domain, as the paper specifies.

Names resolve lazily from ``_EXPORTS`` (:mod:`repro._lazy`): importing
one submodule does not load the others.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.calibration.design import design_structure, nominal_background
    from repro.calibration.abacus import Abacus, AbacusRow
    from repro.calibration.accuracy import AccuracyReport, accuracy_sweep
    from repro.calibration.window import SpecificationWindow
    from repro.calibration.dither import DitheredConverter, DitheredResult
    from repro.calibration.sensitivity import plate_error_from_cbl, plate_error_from_vth
    from repro.calibration.linearity import (
        LinearityReport,
        analyze_linearity,
        lazy_linear_estimate,
    )
    from repro.calibration.reference import (
        InstrumentCheck,
        InstrumentStatus,
        InstrumentVerdict,
        ReferenceBank,
    )

_EXPORTS = {
    "design_structure": "repro.calibration.design",
    "nominal_background": "repro.calibration.design",
    "Abacus": "repro.calibration.abacus",
    "AbacusRow": "repro.calibration.abacus",
    "AccuracyReport": "repro.calibration.accuracy",
    "accuracy_sweep": "repro.calibration.accuracy",
    "SpecificationWindow": "repro.calibration.window",
    "DitheredConverter": "repro.calibration.dither",
    "DitheredResult": "repro.calibration.dither",
    "plate_error_from_cbl": "repro.calibration.sensitivity",
    "plate_error_from_vth": "repro.calibration.sensitivity",
    "LinearityReport": "repro.calibration.linearity",
    "analyze_linearity": "repro.calibration.linearity",
    "lazy_linear_estimate": "repro.calibration.linearity",
    "InstrumentCheck": "repro.calibration.reference",
    "InstrumentStatus": "repro.calibration.reference",
    "InstrumentVerdict": "repro.calibration.reference",
    "ReferenceBank": "repro.calibration.reference",
}

__all__ = [
    "design_structure",
    "nominal_background",
    "Abacus",
    "AbacusRow",
    "AccuracyReport",
    "accuracy_sweep",
    "SpecificationWindow",
    "DitheredConverter",
    "DitheredResult",
    "plate_error_from_cbl",
    "plate_error_from_vth",
    "LinearityReport",
    "analyze_linearity",
    "lazy_linear_estimate",
    "InstrumentCheck",
    "InstrumentStatus",
    "InstrumentVerdict",
    "ReferenceBank",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
