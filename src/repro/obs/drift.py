"""Cross-run drift detection: EWMA / CUSUM control charts over the ledger.

The analog bitmap's industrial job is SPC — watching the capacitor
module walk out of spec across dies and lots before functional test
notices.  This module runs that watch over **recorded runs**: each
scalar the ledger keeps per run (capacitance mean/σ, code-histogram
centroid, converter flip-step size, scan throughput) becomes an
individuals series, and two standard control charts flag excursions:

- **EWMA** (exponentially weighted moving average) with time-varying
  control limits — sensitive to small sustained shifts,
- **tabular CUSUM** (one-sided high/low cumulative sums) — sensitive to
  slow drifts that never trip a single-point rule.

The control σ for a physics scalar comes from the *within-run* spread
recorded alongside it (e.g. ``cap_sigma_fF`` guards ``cap_mean_fF``) —
robust with the short histories a CI gate sees; scalars without a
companion fall back to a moving-range estimate, which deliberately
cannot alarm on two points (no flaky throughput gates).

Findings are the same structured :class:`~repro.lint.diagnostics.Diagnostic`
shape the lint subsystem uses, collected into a
:class:`~repro.lint.diagnostics.LintReport` whose exit-code semantics
make ``repro runs check`` usable directly as a CI gate: physics drift is
``ERROR`` (exit 1), performance drift is ``WARNING`` (reported, exit 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import LedgerError
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.obs.ledger import RunLedger, RunManifest

__all__ = [
    "ScalarSpec",
    "SeriesCheck",
    "DriftEngine",
    "DEFAULT_SCALARS",
    "LOT_SCALARS",
    "check_ledger",
    "check_bench_history",
]


@dataclass(frozen=True)
class ScalarSpec:
    """What to chart for one per-run scalar.

    Attributes
    ----------
    name:
        Scalar key in :attr:`RunManifest.scalars`.
    sigma_from:
        Companion scalar holding the within-run spread used as the
        control σ (``None`` → moving-range estimate from the series).
    severity:
        Severity of out-of-control findings; ``WARNING`` keeps noisy
        performance scalars out of the exit code.
    """

    name: str
    sigma_from: str | None = None
    severity: Severity = Severity.ERROR


#: The scalars ``repro runs check`` charts by default.
DEFAULT_SCALARS: tuple[ScalarSpec, ...] = (
    ScalarSpec("cap_mean_fF", "cap_sigma_fF"),
    ScalarSpec("vgs_mean", "vgs_sigma"),
    ScalarSpec("code_centroid", "code_sigma"),
    ScalarSpec("flip_step_mean"),
    ScalarSpec("cells_per_second", severity=Severity.WARNING),
    # Resilience quality scalars: both are 0 on healthy runs, so the
    # flat-history epsilon sigma makes any regression flag immediately.
    # DEGRADED cells still carry a usable value -> WARNING; FAILED
    # cells are placeholders -> ERROR.
    ScalarSpec("degraded_cells", severity=Severity.WARNING),
    ScalarSpec("failed_cells"),
)

#: The scalars charted for ``kind="lot"`` manifests — the fleet merge's
#: cross-fab/cross-lot diet, including the radial and zone spatial
#: signatures the paper's process-monitoring use case watches.
LOT_SCALARS: tuple[ScalarSpec, ...] = (
    ScalarSpec("cap_mean_fF", "cap_sigma_fF"),
    ScalarSpec("radial_centre_fF", "cap_sigma_fF"),
    ScalarSpec("radial_drop_fF", "cap_sigma_fF"),
    ScalarSpec("zone_centre_fF", "cap_sigma_fF"),
    ScalarSpec("zone_mid_fF", "cap_sigma_fF"),
    ScalarSpec("zone_edge_fF", "cap_sigma_fF"),
    # Coverage scalars are 0 on healthy lots, so the flat-history
    # epsilon sigma flags the first lot that loses a die range.  Lost
    # coverage is an ERROR; supervision churn that still produced a
    # complete lot is advisory.
    ScalarSpec("failed_dies"),
    ScalarSpec("shard_respawns", severity=Severity.WARNING),
)


@dataclass
class SeriesCheck:
    """Chart evaluation of one scalar series.

    ``flagged`` holds the indices (into ``values``) that any chart put
    out of control; ``methods[i]`` names the chart(s) that fired there.
    """

    name: str
    values: list[float]
    target: float
    sigma: float
    ewma: list[float] = field(default_factory=list)
    ewma_limits: list[float] = field(default_factory=list)
    cusum_hi: list[float] = field(default_factory=list)
    cusum_lo: list[float] = field(default_factory=list)
    flagged: list[int] = field(default_factory=list)
    methods: dict[int, list[str]] = field(default_factory=dict)

    @property
    def in_control(self) -> bool:
        return not self.flagged


def _moving_range_sigma(values: list[float]) -> float:
    """Individuals-chart σ estimate: mean moving range / d2 (d2=1.128)."""
    if len(values) < 2:
        return 0.0
    ranges = [abs(b - a) for a, b in zip(values, values[1:])]
    return (sum(ranges) / len(ranges)) / 1.128


class DriftEngine:
    """EWMA + CUSUM evaluator over per-run scalar series.

    Parameters
    ----------
    lam:
        EWMA smoothing weight (0 < λ ≤ 1); 0.3 reacts within 2–3 runs.
    ewma_k:
        EWMA control-limit width in σ units.
    cusum_k:
        CUSUM allowance (slack) in σ units — drifts smaller than this
        accumulate nothing.
    cusum_h:
        CUSUM decision interval in σ units.
    min_runs:
        Series shorter than this are reported as insufficient history
        (``INFO``) instead of being charted.
    """

    def __init__(
        self,
        lam: float = 0.3,
        ewma_k: float = 3.0,
        cusum_k: float = 0.5,
        cusum_h: float = 4.0,
        min_runs: int = 2,
    ) -> None:
        if not 0.0 < lam <= 1.0:
            raise LedgerError(f"EWMA lambda must be in (0, 1], got {lam}")
        if min(ewma_k, cusum_k, cusum_h) < 0:
            raise LedgerError("chart widths must be non-negative")
        if min_runs < 2:
            raise LedgerError("drift detection needs min_runs >= 2")
        self.lam = lam
        self.ewma_k = ewma_k
        self.cusum_k = cusum_k
        self.cusum_h = cusum_h
        self.min_runs = min_runs

    # -- charts ---------------------------------------------------------

    def check_series(
        self,
        name: str,
        values: list[float],
        sigma: float | None = None,
        target: float | None = None,
    ) -> SeriesCheck:
        """Chart one series; the first value anchors the target baseline."""
        if not values:
            raise LedgerError(f"cannot chart an empty series for {name!r}")
        values = [float(v) for v in values]
        target = values[0] if target is None else float(target)
        if sigma is None or sigma <= 0.0:
            sigma = _moving_range_sigma(values)
        if sigma <= 0.0:
            # A perfectly flat history: any departure at all is a shift.
            # Scale-free epsilon keeps the charts finite.
            sigma = max(abs(target), 1.0) * 1e-9
        check = SeriesCheck(name=name, values=values, target=target, sigma=sigma)

        lam, k = self.lam, self.ewma_k
        z = target
        s_hi = s_lo = 0.0
        for i, x in enumerate(values):
            z = lam * x + (1.0 - lam) * z
            limit = (
                k * sigma
                * math.sqrt(lam / (2.0 - lam) * (1.0 - (1.0 - lam) ** (2 * (i + 1))))
            )
            check.ewma.append(z)
            check.ewma_limits.append(limit)
            zscore = (x - target) / sigma
            s_hi = max(0.0, s_hi + zscore - self.cusum_k)
            s_lo = max(0.0, s_lo - zscore - self.cusum_k)
            check.cusum_hi.append(s_hi)
            check.cusum_lo.append(s_lo)
            if i == 0:
                continue  # the baseline point defines the target
            methods = []
            if abs(z - target) > limit:
                methods.append("ewma")
            if s_hi > self.cusum_h or s_lo > self.cusum_h:
                methods.append("cusum")
            if methods:
                check.flagged.append(i)
                check.methods[i] = methods
        return check

    # -- ledger-level evaluation ----------------------------------------

    def check_runs(
        self,
        manifests: list[RunManifest],
        specs: tuple[ScalarSpec, ...] = DEFAULT_SCALARS,
        subject: str = "run ledger",
    ) -> LintReport:
        """Chart every spec'd scalar over ``manifests``; returns a report.

        Finding codes: ``DRF001`` (EWMA out of control), ``DRF002``
        (CUSUM drift), ``DRF000`` (insufficient history, ``INFO``).
        """
        report = LintReport()
        if len(manifests) < self.min_runs:
            report.add(Diagnostic(
                code="DRF000",
                slug="insufficient-history",
                severity=Severity.INFO,
                message=(
                    f"only {len(manifests)} recorded run(s); drift detection "
                    f"needs at least {self.min_runs}"
                ),
                subject=subject,
            ))
            return report
        for spec in specs:
            rows = [
                (m.run_id, m.scalars[spec.name], m.scalars.get(spec.sigma_from or ""))
                for m in manifests
                if spec.name in m.scalars
            ]
            if len(rows) < self.min_runs:
                continue
            run_ids = [r[0] for r in rows]
            values = [r[1] for r in rows]
            sigmas = [r[2] for r in rows if r[2] is not None]
            sigma = _median(sigmas) if sigmas else None
            check = self.check_series(spec.name, values, sigma=sigma)
            for i in check.flagged:
                methods = "+".join(check.methods[i])
                code = "DRF001" if "ewma" in check.methods[i] else "DRF002"
                slug = (
                    "ewma-out-of-control"
                    if code == "DRF001" else "cusum-drift"
                )
                report.add(Diagnostic(
                    code=code,
                    slug=slug,
                    severity=spec.severity,
                    message=(
                        f"{spec.name} out of control at run {run_ids[i]} "
                        f"({methods}): value {values[i]:.6g}, "
                        f"target {check.target:.6g}, sigma {check.sigma:.3g}"
                    ),
                    subject=subject,
                    nodes=(run_ids[i],),
                ))
        return report


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def check_ledger(
    ledger: RunLedger,
    kind: str | None = None,
    specs: tuple[ScalarSpec, ...] = DEFAULT_SCALARS,
    engine: DriftEngine | None = None,
) -> LintReport:
    """Run the drift engine over a ledger (optionally one run kind).

    Charting ``kind="lot"`` with the default spec set automatically
    switches to :data:`LOT_SCALARS` — lot manifests carry spatial and
    coverage scalars the per-scan defaults know nothing about.
    """
    engine = engine if engine is not None else DriftEngine()
    if kind == "lot" and specs is DEFAULT_SCALARS:
        specs = LOT_SCALARS
    manifests = ledger.runs()
    if kind is not None:
        manifests = [m for m in manifests if m.kind == kind]
    return engine.check_runs(manifests, specs, subject=str(ledger.root))


def check_bench_history(
    history: list[dict],
    engine: DriftEngine | None = None,
    subject: str = "BENCH_scan.json",
) -> LintReport:
    """Chart the benchmark trajectory (throughput + speedup, WARNING).

    ``history`` is the list kept in ``BENCH_scan.json``; entries missing
    a charted figure are skipped.  Performance regressions are reported
    as ``DRF003`` warnings — visible in CI logs, never a hard gate.
    """
    engine = engine if engine is not None else DriftEngine()
    report = LintReport()
    for name in (
        "cells_per_second",
        "speedup_serial_vs_seed",
        # Kernel-vs-serial ratio is intra-run (same machine, same load)
        # so it charts cleanly across hosts; older entries predate the
        # batched kernel and are skipped by the isinstance filter.
        "kernel_speedup_vs_serial",
    ):
        rows = [
            (str(e.get("git_rev", f"#{i}")), float(e[name]))
            for i, e in enumerate(history)
            if isinstance(e, dict) and isinstance(e.get(name), (int, float))
        ]
        if len(rows) < engine.min_runs:
            continue
        check = engine.check_series(name, [v for _, v in rows])
        for i in check.flagged:
            # Only regressions warn; a faster run is not a defect.
            improving = (
                check.values[i] > check.target
            )
            if improving:
                continue
            report.add(Diagnostic(
                code="DRF003",
                slug="bench-regression",
                severity=Severity.WARNING,
                message=(
                    f"{name} regressed at {rows[i][0]}: "
                    f"{check.values[i]:.6g} vs baseline {check.target:.6g}"
                ),
                subject=subject,
                nodes=(rows[i][0],),
            ))
    return report
