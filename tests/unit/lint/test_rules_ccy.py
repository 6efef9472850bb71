"""Concurrency rule CCY004: config-fingerprint drift."""

from repro.lint import REGISTRY, LintReport, lint_project
from repro.lint.diagnostics import Severity


# ----------------------------------------------------------------------
# CCY004 fingerprint-drift (project target)
# ----------------------------------------------------------------------


def _run_ccy004(**context):
    # The synthetic-set tests probe the consistency checks in isolation;
    # pinned-field enforcement has its own tests below.
    context.setdefault("pinned_fields", ())
    spec = REGISTRY.get("CCY004")
    report = LintReport()
    report.extend(spec.run(None, context))
    return report


def test_ccy004_live_codebase_is_clean():
    assert lint_project(only=("CCY004",)).ok


def test_ccy004_missing_data_field_is_error():
    report = _run_ccy004(
        data_fields=["force_engine", "tier", "oversample"],
        fingerprint_keys={"force_engine", "tier"},
    )
    assert not report.ok
    assert any("oversample" in d.message for d in report.errors)


def test_ccy004_stale_fingerprint_key_is_warning():
    report = _run_ccy004(
        data_fields=["force_engine", "tier"],
        fingerprint_keys={"force_engine", "tier", "ghost"},
    )
    assert report.ok  # warnings only
    warning = next(iter(report.warnings))
    assert warning.severity is Severity.WARNING
    assert "ghost" in warning.message


def test_ccy004_pinned_field_present_everywhere_is_clean():
    report = _run_ccy004(
        data_fields=["force_engine", "tier", "technology"],
        fingerprint_keys={"force_engine", "tier", "technology"},
        pinned_fields=("technology",),
    )
    assert report.ok


def test_ccy004_pinned_field_dropped_everywhere_is_error():
    # Flipping technology to compare=False AND dropping it from the
    # fingerprint is self-consistent — only the pinned check sees it.
    report = _run_ccy004(
        data_fields=["force_engine", "tier"],
        fingerprint_keys={"force_engine", "tier"},
        pinned_fields=("technology",),
    )
    assert not report.ok
    errors = [d for d in report.errors if "pinned" in d.message]
    assert errors and "technology" in errors[0].message


def test_ccy004_live_codebase_pins_technology():
    # The live introspection path (no context overrides) must see
    # ScanConfig.technology in both sets.
    from dataclasses import fields as dataclass_fields

    from repro.measure.config import ScanConfig
    from repro.obs.ledger import config_fingerprint

    assert "technology" in {f.name for f in dataclass_fields(ScanConfig) if f.compare}
    assert "technology" in config_fingerprint(ScanConfig())
    assert lint_project(only=("CCY004",)).ok
