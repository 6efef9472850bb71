"""Diagnostic/LintReport mechanics and the rule registry contract."""

import json

import pytest

from repro.errors import LintError
from repro.lint import REGISTRY, Diagnostic, LintReport, Severity
from repro.lint.registry import RuleRegistry, RuleSpec, rule


def _diag(code="ERC001", severity=Severity.ERROR, nodes=(), waived=False):
    return Diagnostic(
        code=code,
        slug="floating-node",
        severity=severity,
        message="node 'x' dangles",
        subject="fixture",
        nodes=nodes,
        waived=waived,
    )


# ---------------------------------------------------------------------------
# Diagnostic
# ---------------------------------------------------------------------------


def test_diagnostic_format_carries_code_and_subject():
    line = _diag().format()
    assert "ERC001" in line
    assert "floating-node" in line
    assert "[fixture]" in line


def test_diagnostic_format_prefers_location():
    d = Diagnostic(
        code="PY001",
        slug="raw-si-literal",
        severity=Severity.ERROR,
        message="raw literal",
        location="src/x.py:7",
    )
    assert "(src/x.py:7)" in d.format()


def test_diagnostic_to_dict_roundtrips_json():
    payload = json.loads(json.dumps(_diag(nodes=("a", "b")).to_dict()))
    assert payload["code"] == "ERC001"
    assert payload["nodes"] == ["a", "b"]
    assert payload["waived"] is False


# ---------------------------------------------------------------------------
# LintReport
# ---------------------------------------------------------------------------


def test_report_severity_filters_and_exit_code():
    report = LintReport()
    report.add(_diag(severity=Severity.ERROR))
    report.add(_diag(code="UNT001", severity=Severity.WARNING))
    report.add(_diag(code="XYZ001", severity=Severity.INFO))
    assert len(report.errors) == 1
    assert len(report.warnings) == 1
    assert not report.ok
    assert report.exit_code == 1


def test_warnings_only_report_is_ok():
    report = LintReport([_diag(severity=Severity.WARNING)])
    assert report.ok
    assert report.exit_code == 0


def test_waive_nodes_suppresses_matching_findings():
    report = LintReport(
        [_diag(nodes=("s1_0", "plate")), _diag(nodes=("s2_1",))]
    )
    report.waive_nodes({"s1_0"})
    assert len(report.errors) == 1
    assert report.errors[0].nodes == ("s2_1",)
    # Waived findings stay visible for audit.
    assert len(report) == 2
    assert "(1 waived)" in report.summary()


def test_waive_nodes_with_empty_set_is_noop():
    report = LintReport([_diag(nodes=("a",))])
    report.waive_nodes(set())
    assert not report.ok


def test_merge_and_by_code():
    a = LintReport([_diag()])
    b = LintReport([_diag(code="ERC002")])
    a.merge(b)
    assert a.codes() == {"ERC001", "ERC002"}
    assert len(a.by_code("ERC002")) == 1


def test_format_text_ends_with_summary():
    report = LintReport([_diag()])
    assert report.format_text().splitlines()[-1] == report.summary()


def test_to_json_payload_shape():
    report = LintReport([_diag(), _diag(code="UNT001", severity=Severity.WARNING)])
    payload = json.loads(report.to_json())
    assert payload["error_count"] == 1
    assert payload["warning_count"] == 1
    assert payload["ok"] is False
    assert len(payload["diagnostics"]) == 2


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_builtin_registry_has_all_documented_codes():
    assert set(REGISTRY.codes()) >= {
        "ERC001", "ERC002", "ERC003", "ERC004", "ERC005", "ERC006",
        "PRM001", "UNT001", "PY001", "PY002",
        "CCY004",
        "DET001", "DET002", "DET003", "DET004",
    }


def test_registry_rejects_duplicate_codes():
    reg = RuleRegistry()
    spec = RuleSpec("T001", "t", "circuit", Severity.ERROR, "", lambda s, c: [])
    reg.register(spec)
    with pytest.raises(LintError, match="duplicate"):
        reg.register(spec)


def test_registry_rejects_unknown_target():
    reg = RuleRegistry()
    spec = RuleSpec("T001", "t", "nonsense", Severity.ERROR, "", lambda s, c: [])
    with pytest.raises(LintError, match="unknown target"):
        reg.register(spec)


def test_registry_get_unknown_code_names_known_ones():
    with pytest.raises(LintError, match="ERC001"):
        REGISTRY.get("NOPE99")


def test_for_target_filters_by_code():
    specs = REGISTRY.for_target("circuit", only=("ERC001",))
    assert [s.code for s in specs] == ["ERC001"]
    with pytest.raises(LintError):
        REGISTRY.for_target("nonsense")


def test_rule_decorator_returns_registered_spec():
    reg_before = len(REGISTRY)

    # Use a private registry so the global one stays pristine.
    private = RuleRegistry()

    def fake_rule(code):
        def decorate(fn):
            spec = RuleSpec(code, "fake", "circuit", Severity.INFO, "", fn)
            return private.register(spec)

        return decorate

    @fake_rule("FAKE01")
    def my_rule(subject, context):
        yield my_rule.diagnostic("hello", subject="s")

    assert isinstance(my_rule, RuleSpec)
    found = my_rule.run(object())
    assert found[0].code == "FAKE01"
    assert found[0].severity is Severity.INFO
    assert len(REGISTRY) == reg_before


def test_rule_decorator_registers_globally_and_uses_docstring_summary():
    # The public decorator mutates the global registry; register a
    # throwaway rule and verify, then remove it to keep tests isolated.
    @rule("TMP999", "throwaway", target="circuit")
    def tmp_rule(subject, context):
        """First docstring line becomes the summary."""
        return []

    try:
        assert "TMP999" in REGISTRY
        assert REGISTRY.get("TMP999").summary.startswith("First docstring line")
    finally:
        del REGISTRY._rules["TMP999"]
