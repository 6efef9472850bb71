"""Scan telemetry: wall time, tier mix, throughput and kernel time.

Production test economics are throughput economics — the paper's
structure wins because it measures every cell in microseconds, and the
ROADMAP's north star is a scan that runs as fast as the hardware allows.
:class:`ScanStats` makes that measurable: every
:meth:`~repro.measure.scan.ArrayScanner.scan` attaches one to its
:class:`~repro.measure.scan.ScanResult`, recording how long the scan
took, which execution tier handled how many cells and how long the
batched kernel's slab passes took.  An engine macro's own time is its
``macro`` span on the scan's tracer.  The CLI prints the summary;
``benchmarks/bench_perf_scan.py`` serialises it into ``BENCH_scan.json``
so the repository keeps a performance trajectory across changes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ScanStats:
    """Telemetry of one whole-array scan.

    Attributes
    ----------
    total_cells:
        Cells scanned (rows × cols).
    wall_seconds:
        End-to-end scan wall time, including assembly.
    closed_form_cells, engine_cells:
        Cells produced by the vectorized closed form vs the exact
        charge engine (bridge fallback / ``force_engine``).
    kernel_cells, kernel_seconds:
        Cells landed from the batched kernel and the summed wall time
        of its macro-row slab passes (a subset of the closed-form
        cells; both 0 when every macro rode the engine).  With nothing
        restored from a checkpoint and no tile FAILED, ``kernel_cells``
        plus ``engine_cells`` is ``total_cells``.
    degraded_cells, failed_cells:
        Cells whose value came from a fallback rung (DEGRADED) or is a
        flagged placeholder (FAILED) — see
        :class:`repro.resilience.CellQuality`.
    """

    total_cells: int
    wall_seconds: float
    closed_form_cells: int
    engine_cells: int
    kernel_cells: int = 0
    kernel_seconds: float = 0.0
    degraded_cells: int = 0
    failed_cells: int = 0

    @property
    def cells_per_second(self) -> float:
        """Scan throughput; the headline production-test figure."""
        if self.wall_seconds <= 0.0:
            return float("inf") if self.total_cells else 0.0
        return self.total_cells / self.wall_seconds

    def to_metrics(self, registry) -> None:
        """Fold this scan's telemetry into a metrics registry.

        Counters accumulate across scans sharing the registry (a wafer
        of dies adds up); gauges describe the most recent scan.  The
        no-op registry absorbs everything, so callers can publish
        unconditionally.
        """
        registry.counter("scan.runs", "whole-array scans executed").inc()
        registry.counter("scan.cells", "cells scanned").inc(self.total_cells)
        registry.counter(
            "scan.cells_closed_form", "cells via the vectorized closed form"
        ).inc(self.closed_form_cells)
        registry.counter(
            "scan.cells_engine", "cells via the exact charge engine"
        ).inc(self.engine_cells)
        registry.gauge("scan.wall_seconds", "last scan wall time").set(
            self.wall_seconds
        )
        registry.gauge("scan.cells_per_second", "last scan throughput").set(
            self.cells_per_second
        )
        if self.kernel_cells:
            registry.counter(
                "scan.cells_kernel", "cells via the batched kernel"
            ).inc(self.kernel_cells)
            registry.gauge(
                "scan.kernel_seconds", "last scan's summed kernel slab passes"
            ).set(self.kernel_seconds)
        if self.degraded_cells:
            registry.counter(
                "scan.cells_degraded", "cells produced by a fallback rung"
            ).inc(self.degraded_cells)
        if self.failed_cells:
            registry.counter(
                "scan.cells_failed", "cells flagged FAILED (placeholder value)"
            ).inc(self.failed_cells)

    def to_dict(self) -> dict:
        """JSON-ready view."""
        return {
            "total_cells": self.total_cells,
            "wall_seconds": self.wall_seconds,
            "cells_per_second": self.cells_per_second,
            "closed_form_cells": self.closed_form_cells,
            "engine_cells": self.engine_cells,
            "kernel_cells": self.kernel_cells,
            "kernel_seconds": self.kernel_seconds,
            "degraded_cells": self.degraded_cells,
            "failed_cells": self.failed_cells,
        }

    def summary(self) -> str:
        """Human-readable multi-line summary (printed by the CLI)."""
        lines = [
            f"scan: {self.total_cells} cells in {self.wall_seconds:.3f} s "
            f"({self.cells_per_second:,.0f} cells/s)",
            f"tiers: {self.closed_form_cells} closed-form, "
            f"{self.engine_cells} engine",
        ]
        if self.kernel_cells:
            lines.append(
                f"kernel: {self.kernel_cells} cells in batched passes "
                f"({self.kernel_seconds * 1e3:.2f} ms)"
            )
        if self.degraded_cells or self.failed_cells:
            lines.append(
                f"quality: {self.degraded_cells} degraded, "
                f"{self.failed_cells} failed"
            )
        return "\n".join(lines)
