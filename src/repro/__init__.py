"""repro — reproduction of "A New Embedded Measurement Structure for
eDRAM Capacitor" (Lopez, Portal, Née — DATE 2005).

The library simulates, end to end, an embedded DFT structure that
measures the storage capacitance of every 1T1C cell in an eDRAM array as
a small digital code, and the analog-bitmap diagnosis methodology built
on it.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
the paper-vs-measured record.

Quick tour (see ``examples/quickstart.py`` for the runnable version)::

    from repro import (
        EDRAMArray, design_structure, Abacus, ArrayScanner, AnalogBitmap,
    )

    array = EDRAMArray(rows=16, cols=32, macro_cols=2)
    structure = design_structure(array.tech, array.rows, array.macro_cols)
    abacus = Abacus.analytic(structure, array.rows, array.macro_cols)
    bitmap = AnalogBitmap(ArrayScanner(array, structure).scan(), abacus)
    print(bitmap.mean_capacitance())

Subpackages
-----------
- :mod:`repro.tech` — synthetic 0.18 µm eDRAM technology cards
- :mod:`repro.technologies` — pluggable cell-technology backends
  (eDRAM default, ferroelectric capacitor, capacitorless 1T)
- :mod:`repro.circuit` — MNA circuit simulator + charge engine
- :mod:`repro.edram` — array substrate, defects, variation
- :mod:`repro.measure` — the paper's measurement structure (core)
- :mod:`repro.calibration` — structure sizing, abacus, accuracy, windows
- :mod:`repro.bitmap` — analog/digital bitmaps, signatures
- :mod:`repro.diagnosis` — classification, process monitoring, repair
- :mod:`repro.baselines` — march tests, bitline-side measurement, probe
- :mod:`repro.obs` — tracing, metrics, live progress, the run ledger
  and cross-run drift detection
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.errors import ReproError
    from repro.tech import TechnologyCard, default_technology, Corner, corner_technology
    from repro.edram import EDRAMArray, DefectKind, CellDefect, DefectInjector
    from repro.measure import (
        MeasurementDesign,
        MeasurementStructure,
        MeasurementSequencer,
        MeasurementResult,
        ArrayScanner,
        ScanConfig,
    )
    from repro.obs import (
        DriftEngine,
        MetricsRegistry,
        ProgressReporter,
        RunLedger,
        Tracer,
        check_ledger,
    )
    from repro.calibration import (
        design_structure,
        Abacus,
        accuracy_sweep,
        SpecificationWindow,
    )
    from repro.bitmap import AnalogBitmap, DigitalBitmap, categorize, fit_gradient
    from repro.diagnosis import (
        CellClassifier,
        ProcessMonitor,
        FailureAnalyzer,
        RepairPlanner,
        DiagnosisPipeline,
    )
    from repro.technologies import (
        CellTechnology,
        get as get_technology,
        names as technology_names,
        register as register_technology,
    )
    from repro.controller import BISTController, TestScheduler, ScanOrder
    from repro.wafer import WaferModel, WaferReport
    from repro.io import save_scan, load_scan, save_abacus, load_abacus
    from repro.baselines import mats_pp, march_c_minus, BitlineMeasurement, DirectProbe

_EXPORTS = {
    "ReproError": "repro.errors",
    "TechnologyCard": "repro.tech",
    "default_technology": "repro.tech",
    "Corner": "repro.tech",
    "corner_technology": "repro.tech",
    "EDRAMArray": "repro.edram",
    "DefectKind": "repro.edram",
    "CellDefect": "repro.edram",
    "DefectInjector": "repro.edram",
    "MeasurementDesign": "repro.measure",
    "MeasurementStructure": "repro.measure",
    "MeasurementSequencer": "repro.measure",
    "MeasurementResult": "repro.measure",
    "ArrayScanner": "repro.measure",
    "ScanConfig": "repro.measure",
    "CellTechnology": "repro.technologies",
    "get_technology": "repro.technologies:get",
    "technology_names": "repro.technologies:names",
    "register_technology": "repro.technologies:register",
    "Tracer": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "ProgressReporter": "repro.obs",
    "RunLedger": "repro.obs",
    "DriftEngine": "repro.obs",
    "check_ledger": "repro.obs",
    "design_structure": "repro.calibration",
    "Abacus": "repro.calibration",
    "accuracy_sweep": "repro.calibration",
    "SpecificationWindow": "repro.calibration",
    "AnalogBitmap": "repro.bitmap",
    "DigitalBitmap": "repro.bitmap",
    "categorize": "repro.bitmap",
    "fit_gradient": "repro.bitmap",
    "CellClassifier": "repro.diagnosis",
    "ProcessMonitor": "repro.diagnosis",
    "FailureAnalyzer": "repro.diagnosis",
    "RepairPlanner": "repro.diagnosis",
    "DiagnosisPipeline": "repro.diagnosis",
    "BISTController": "repro.controller",
    "TestScheduler": "repro.controller",
    "ScanOrder": "repro.controller",
    "WaferModel": "repro.wafer",
    "WaferReport": "repro.wafer",
    "save_scan": "repro.io",
    "load_scan": "repro.io",
    "save_abacus": "repro.io",
    "load_abacus": "repro.io",
    "mats_pp": "repro.baselines",
    "march_c_minus": "repro.baselines",
    "BitlineMeasurement": "repro.baselines",
    "DirectProbe": "repro.baselines",
}

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "TechnologyCard",
    "default_technology",
    "Corner",
    "corner_technology",
    "EDRAMArray",
    "DefectKind",
    "CellDefect",
    "DefectInjector",
    "MeasurementDesign",
    "MeasurementStructure",
    "MeasurementSequencer",
    "MeasurementResult",
    "ArrayScanner",
    "ScanConfig",
    "CellTechnology",
    "get_technology",
    "technology_names",
    "register_technology",
    "Tracer",
    "MetricsRegistry",
    "ProgressReporter",
    "RunLedger",
    "DriftEngine",
    "check_ledger",
    "design_structure",
    "Abacus",
    "accuracy_sweep",
    "SpecificationWindow",
    "AnalogBitmap",
    "DigitalBitmap",
    "categorize",
    "fit_gradient",
    "CellClassifier",
    "ProcessMonitor",
    "FailureAnalyzer",
    "RepairPlanner",
    "DiagnosisPipeline",
    "BISTController",
    "TestScheduler",
    "ScanOrder",
    "WaferModel",
    "WaferReport",
    "save_scan",
    "load_scan",
    "save_abacus",
    "load_abacus",
    "mats_pp",
    "march_c_minus",
    "BitlineMeasurement",
    "DirectProbe",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
