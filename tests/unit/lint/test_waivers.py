"""Waiver files: matching, expiry, and the WVR001 expired-waiver warning."""

import json
from datetime import date

import pytest

from repro.errors import LintError
from repro.lint import LintReport, Waiver, apply_waivers, load_waivers
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.waivers import EXPIRED_WAIVER_CODE

TODAY = date(2026, 6, 1)


def _finding(code="PY002", location="src/mod.py:7", subject="src/mod.py"):
    return Diagnostic(
        code=code, slug="bare-assert", severity=Severity.ERROR,
        message="assert used as runtime validation",
        subject=subject, location=location,
    )


def test_waiver_requires_code():
    with pytest.raises(LintError, match="code"):
        Waiver(code="")


def test_waiver_rejects_malformed_expiry():
    with pytest.raises(LintError, match="YYYY-MM-DD"):
        Waiver(code="PY002", expires="June 2026")


def test_waiver_matches_code_and_location_substring():
    waiver = Waiver(code="PY002", location="mod.py")
    assert waiver.matches(_finding())
    assert not waiver.matches(_finding(code="PY001"))
    assert not waiver.matches(_finding(location="src/other.py:3",
                                       subject="src/other.py"))


def test_live_waiver_marks_finding_waived():
    report = LintReport([_finding()])
    apply_waivers(report, [Waiver(code="PY002", expires="2026-12-31")],
                  today=TODAY)
    assert report.ok
    assert report.exit_code == 0
    d = next(iter(report))
    assert d.waived
    # Waived findings stay in the report for audit.
    assert len(report) == 1


def test_expired_waiver_stops_suppressing_and_warns():
    report = LintReport([_finding()])
    apply_waivers(report, [Waiver(code="PY002", expires="2026-01-01",
                                  reason="migration window")],
                  today=TODAY)
    # The finding is back to being a live error...
    assert not report.ok
    assert report.exit_code == 1
    # ...and the expired waiver surfaces as a WVR001 warning.
    warnings = report.warnings
    assert len(warnings) == 1
    w = warnings[0]
    assert w.code == EXPIRED_WAIVER_CODE
    assert "expired 2026-01-01" in w.message
    assert "still matching 1 finding(s)" in w.message
    assert "migration window" in w.message


def test_stale_expired_waiver_matching_nothing_still_warns():
    report = LintReport()
    apply_waivers(report, [Waiver(code="DET002", expires="2025-01-01")],
                  today=TODAY)
    assert len(report.warnings) == 1
    assert "matching nothing (stale entry)" in report.warnings[0].message


def test_waiver_without_expiry_never_expires():
    waiver = Waiver(code="PY002")
    assert not waiver.expired(date(2999, 1, 1))


def test_load_waivers_roundtrip(tmp_path):
    path = tmp_path / "waivers.json"
    path.write_text(json.dumps([
        {"code": "PY002", "location": "mod.py", "reason": "legacy",
         "expires": "2026-12-31"},
        {"code": "DET001"},
    ]), encoding="utf-8")
    waivers = load_waivers(path)
    assert [w.code for w in waivers] == ["PY002", "DET001"]
    assert waivers[0].expires == "2026-12-31"


def test_load_waivers_rejects_unknown_keys(tmp_path):
    path = tmp_path / "waivers.json"
    path.write_text(json.dumps([{"code": "PY002", "until": "2026-01-01"}]),
                    encoding="utf-8")
    with pytest.raises(LintError, match="unknown keys"):
        load_waivers(path)


def test_load_waivers_rejects_non_list(tmp_path):
    path = tmp_path / "waivers.json"
    path.write_text(json.dumps({"code": "PY002"}), encoding="utf-8")
    with pytest.raises(LintError, match="JSON list"):
        load_waivers(path)


def test_load_waivers_missing_file(tmp_path):
    with pytest.raises(LintError, match="cannot read"):
        load_waivers(tmp_path / "absent.json")
