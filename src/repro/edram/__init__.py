"""Behavioural + structural model of an embedded DRAM (eDRAM) array.

This package is the substrate the measurement structure operates on: a
grid of 1T1C cells organised into *macro-cells* (column groups sharing a
plate node, per Figure 1 of the paper), with bitline/wordline parasitics,
a sense amplifier, retention/leakage behaviour, defect injection and
spatially correlated capacitance variation.

Two views of the same array coexist:

- a **structural** view (per-cell capacitance, defect state, parasitic
  geometry) consumed by the measurement netlist builders, and
- a **behavioural** view (write/read/refresh with charge-sharing sensing)
  consumed by the march-test digital baseline.

Names resolve lazily from ``_EXPORTS`` (:mod:`repro._lazy`): a die
stack needs only the defect codes and the variation maps, not the
array model, its sense amplifier or its functional operations.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.edram.defects import DefectKind, CellDefect, DefectInjector
    from repro.edram.cell import DRAMCell
    from repro.edram.array import EDRAMArray, MacroCell, CellAddress
    from repro.edram.senseamp import SenseAmplifier
    from repro.edram.operations import ArrayOperations
    from repro.edram.leakage import RetentionModel
    from repro.edram.variation_map import (
        uniform_map,
        mismatch_map,
        linear_tilt_map,
        radial_map,
        edge_rolloff_map,
        cluster_defect_map,
        compose_maps,
    )

_EXPORTS = {
    "DefectKind": "repro.edram.defects",
    "CellDefect": "repro.edram.defects",
    "DefectInjector": "repro.edram.defects",
    "DRAMCell": "repro.edram.cell",
    "EDRAMArray": "repro.edram.array",
    "MacroCell": "repro.edram.array",
    "CellAddress": "repro.edram.array",
    "SenseAmplifier": "repro.edram.senseamp",
    "ArrayOperations": "repro.edram.operations",
    "RetentionModel": "repro.edram.leakage",
    "uniform_map": "repro.edram.variation_map",
    "mismatch_map": "repro.edram.variation_map",
    "linear_tilt_map": "repro.edram.variation_map",
    "radial_map": "repro.edram.variation_map",
    "edge_rolloff_map": "repro.edram.variation_map",
    "cluster_defect_map": "repro.edram.variation_map",
    "compose_maps": "repro.edram.variation_map",
}

__all__ = [
    "DefectKind",
    "CellDefect",
    "DefectInjector",
    "DRAMCell",
    "EDRAMArray",
    "MacroCell",
    "CellAddress",
    "SenseAmplifier",
    "ArrayOperations",
    "RetentionModel",
    "uniform_map",
    "mismatch_map",
    "linear_tilt_map",
    "radial_map",
    "edge_rolloff_map",
    "cluster_defect_map",
    "compose_maps",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
