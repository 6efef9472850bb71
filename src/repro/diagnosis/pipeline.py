"""One-call diagnosis pipeline.

Everything the library does to a device under test, orchestrated in the
order a test program would run it:

1. functional test (March C− + retention pause) → digital bitmap,
2. analog scan through the embedded structures → analog bitmap,
3. per-cell classification (analog codes refined with digital results),
4. signature categorization + root-cause analysis,
5. process statistics (Cpk, gradient),
6. BISR repair allocation over the union of must-repair cells.

The :class:`PipelineReport` bundles every artefact plus a text summary;
``examples/failure_analysis.py`` shows the pieces individually, this is
the production wrapper.
"""

from __future__ import annotations

from contextlib import nullcontext as _null
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from repro.baselines.march import march_c_minus, retention_test
from repro.bitmap.analog import AnalogBitmap
from repro.bitmap.digital import DigitalBitmap
from repro.calibration.abacus import Abacus
from repro.calibration.window import SpecificationWindow
from repro.diagnosis.classifier import CellClassifier, CellVerdict
from repro.diagnosis.failure_analysis import FailureAnalyzer, Finding
from repro.diagnosis.process_monitor import ProcessMonitor, ProcessReport
from repro.diagnosis.repair import RepairPlan, RepairPlanner
from repro.edram.array import EDRAMArray
from repro.edram.operations import ArrayOperations
from repro.errors import DiagnosisError
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner, ScanResult
from repro.measure.structure import MeasurementStructure
from repro.obs.metrics import use_metrics


@dataclass
class PipelineReport:
    """Every artefact one pipeline run produced."""

    digital: DigitalBitmap
    scan: ScanResult
    analog: AnalogBitmap
    verdicts: np.ndarray
    findings: list[Finding]
    process: ProcessReport
    repair: RepairPlan
    must_repair: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def summary(self) -> str:
        """Human-readable run summary."""
        counts = CellClassifier.verdict_counts(self.verdicts)
        anomalies = sum(n for v, n in counts.items() if v is not CellVerdict.IN_SPEC)
        lines = [
            f"digital fails       : {self.digital.fail_count}",
            f"analog anomalies    : {anomalies}",
            "verdicts            : "
            + ", ".join(f"{v.value}={n}" for v, n in sorted(
                counts.items(), key=lambda kv: -kv[1]
            )),
            f"process             : {self.process.summary()}",
            f"findings            : {len(self.findings)} root-caused groups",
            f"repair              : "
            + ("SUCCESS" if self.repair.success else f"{len(self.repair.uncovered)} uncovered")
            + f" (rows {sorted(self.repair.spare_rows_used)}, "
            f"cols {sorted(self.repair.spare_cols_used)})",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable summary (the CLI's ``--json`` payload)."""
        return {
            "digital_fails": int(self.digital.fail_count),
            "verdicts": {v.value: n for v, n in CellClassifier.verdict_counts(self.verdicts).items()},
            "findings": [finding.describe() for finding in self.findings],
            "process": self.process.summary(),
            "repair": {
                "success": bool(self.repair.success),
                "uncovered": len(self.repair.uncovered),
                "spare_rows_used": sorted(self.repair.spare_rows_used),
                "spare_cols_used": sorted(self.repair.spare_cols_used),
            },
            "scan_stats": (
                self.scan.stats.to_dict() if self.scan.stats is not None else None
            ),
        }


class DiagnosisPipeline:
    """Configured pipeline, reusable across dies of one product.

    Parameters
    ----------
    spec_lo, spec_hi:
        Capacitance specification, farads.
    spare_rows, spare_cols:
        Redundancy budget for the repair stage.
    retention_pause:
        Pause of the retention screen, seconds.
    structure:
        Optional pre-designed structure; designed on first use otherwise.
    """

    def __init__(
        self,
        spec_lo: float,
        spec_hi: float,
        spare_rows: int = 4,
        spare_cols: int = 4,
        retention_pause: float = 0.2,
        structure: MeasurementStructure | None = None,
    ) -> None:
        if not 0 < spec_lo < spec_hi:
            raise DiagnosisError(f"need 0 < spec_lo < spec_hi, got [{spec_lo}, {spec_hi}]")
        if retention_pause < 0:
            raise DiagnosisError("retention_pause must be >= 0")
        self.spec_lo = spec_lo
        self.spec_hi = spec_hi
        self.spare_rows = spare_rows
        self.spare_cols = spare_cols
        self.retention_pause = retention_pause
        self._structure = structure
        self._abacus: Abacus | None = None
        self._geometry: tuple[int, int, int, str] | None = None

    def _structure_for(self, array: EDRAMArray) -> tuple[MeasurementStructure, Abacus]:
        # Structure sizing is technology-aware: the backend supplies the
        # measurement range the converter must cover (for eDRAM this is
        # the historical 10-55 fF default, bit-identically).  The cache
        # key carries the technology so a pipeline reused across arrays
        # of different memories re-designs.
        from repro.technologies import get as get_technology

        technology = getattr(array, "technology", "edram")
        geometry = (array.macro_rows, array.macro_cols, array.rows, technology)
        if self._structure is None or self._geometry != geometry:
            self._structure = get_technology(technology).design_structure(
                array, bitline_rows=array.rows
            )
            self._abacus = Abacus.for_array(self._structure, array)
            self._geometry = geometry
        elif self._abacus is None:
            self._abacus = Abacus.for_array(self._structure, array)
        return self._structure, self._abacus

    def run(self, array: EDRAMArray, config: ScanConfig | None = None) -> PipelineReport:
        """Run the full pipeline against one array.

        ``config`` carries the scan options (tracer, metrics, ...)
        through to the analog-scan stage; its tracer additionally
        records one ``diagnosis`` span with a ``stage:*`` child per
        pipeline stage, and its metrics registry is installed ambiently
        for the whole run.  When ``config.ledger`` is set the pipeline
        records one ``diagnosis`` manifest (the scan stage itself stays
        unrecorded — one run, one ledger line) and ``report.scan.run_id``
        names it: the scan planes are its artifact.
        """
        # A default config inherits the array's technology (the scan
        # stage validates the pairing); an explicit config must already
        # match.
        config = (
            config
            if config is not None
            else ScanConfig(technology=getattr(array, "technology", "edram"))
        )
        tracer = config.tracer
        ledger = config.ledger
        if ledger is not None:
            config = config.with_options(ledger=None)
        structure, abacus = self._structure_for(array)
        start = perf_counter()
        cpu_start = process_time()

        with use_metrics(config.metrics) if config.metrics.enabled else _null():
            with tracer.span("diagnosis", rows=array.rows, cols=array.cols):
                # 1. Functional + retention baseline.
                with tracer.span("stage:functional"):
                    digital = march_c_minus().run(ArrayOperations(array)).merge(
                        retention_test(
                            ArrayOperations(array), pause=self.retention_pause
                        )
                    )

                # 2. Analog scan.
                with tracer.span("stage:scan"):
                    scan = ArrayScanner(array, structure).scan(config)
                analog = AnalogBitmap(scan, abacus)
                window = SpecificationWindow.from_capacitance(
                    abacus, self.spec_lo, self.spec_hi
                )

                # 3. Classification (digital results refine code-0 cells).
                with tracer.span("stage:classify"):
                    classifier = CellClassifier(
                        analog, window, macro_cols=array.macro_cols
                    )
                    verdicts = classifier.classify_all(digital.fails)

                # 4. Root-cause analysis.
                with tracer.span("stage:root_cause"):
                    findings = FailureAnalyzer().analyze(verdicts)

                # 5. Process statistics.
                with tracer.span("stage:process"):
                    process = ProcessMonitor(self.spec_lo, self.spec_hi).report(
                        analog
                    )

                # 6. Repair over the union of hard fails and out-of-spec cells.
                with tracer.span("stage:repair"):
                    must_repair = digital.fails | analog.out_of_spec(window)
                    repair = RepairPlanner(self.spare_rows, self.spare_cols).plan(
                        must_repair
                    )

        report = PipelineReport(
            digital=digital,
            scan=scan,
            analog=analog,
            verdicts=verdicts,
            findings=findings,
            process=process,
            repair=repair,
            must_repair=must_repair,
        )
        if ledger is not None:
            scan.run_id = ledger.record_diagnosis(
                report,
                config,
                array=array,
                wall_seconds=perf_counter() - start,
                cpu_seconds=process_time() - cpu_start,
            ).run_id
        return report
