"""Pre-flight hooks: sequencer/scanner integration, waivers, ERC-aided errors."""

import pytest

from repro.edram.defects import CellDefect, DefectKind
from repro.errors import RuleViolation, SingularCircuitError
from repro.lint import preflight_array, preflight_macro, raise_on_errors
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.measure.sequencer import MeasurementSequencer
from tests.unit.lint import fixtures


def _healthy():
    array = fixtures.small_array()
    return array, fixtures.structure_for(array)


def _shorted():
    array = fixtures.small_array()
    array.cell(1, 0).apply_defect(CellDefect(DefectKind.SHORT))
    return array, fixtures.structure_for(array)


# ---------------------------------------------------------------------------
# preflight_macro / preflight_array
# ---------------------------------------------------------------------------


def test_healthy_macro_preflight_is_empty():
    array, structure = _healthy()
    report = preflight_macro(array.macro(0), structure)
    assert len(report) == 0


def test_known_defect_findings_are_waived():
    array, structure = _shorted()
    report = preflight_macro(array.macro(0), structure)
    assert report.ok
    waived = [d for d in report if d.waived]
    assert waived and waived[0].code == "ERC004"
    assert "s1_0" in waived[0].nodes


def test_strict_preflight_keeps_defect_errors():
    array, structure = _shorted()
    report = preflight_macro(array.macro(0), structure, waive_known_defects=False)
    assert not report.ok
    assert report.errors[0].code == "ERC004"


def test_preflight_array_merges_all_macros():
    array, structure = _shorted()
    report = preflight_array(array, structure, waive_known_defects=False)
    assert "ERC004" in report.codes()
    assert preflight_array(array, structure).ok


# ---------------------------------------------------------------------------
# raise_on_errors
# ---------------------------------------------------------------------------


def test_raise_on_errors_passes_clean_reports_through():
    array, structure = _healthy()
    report = preflight_macro(array.macro(0), structure)
    assert raise_on_errors(report) is report


def test_raise_on_errors_names_codes_and_nodes():
    array, structure = _shorted()
    report = preflight_macro(array.macro(0), structure, waive_known_defects=False)
    with pytest.raises(RuleViolation, match="ERC004") as excinfo:
        raise_on_errors(report)
    assert "s1_0" in str(excinfo.value)
    assert excinfo.value.diagnostics
    assert excinfo.value.diagnostics[0].code == "ERC004"


# ---------------------------------------------------------------------------
# Sequencer / scanner hooks
# ---------------------------------------------------------------------------


def test_sequencer_preflight_uses_cached_network():
    array, structure = _shorted()
    seq = MeasurementSequencer(array.macro(0), structure)
    assert seq.preflight().ok
    assert not seq.preflight(waive_known_defects=False).ok


def test_measure_charge_with_preflight_on_healthy_macro():
    array, structure = _healthy()
    seq = MeasurementSequencer(array.macro(0), structure)
    plain = seq.measure_charge(0, 0)
    checked = seq.measure_charge(0, 0, preflight=True)
    assert checked.code == plain.code


def test_measure_charge_preflight_tolerates_known_defects():
    # The waiver is the point: scans must still measure defective arrays.
    array, structure = _shorted()
    seq = MeasurementSequencer(array.macro(0), structure)
    result = seq.measure_charge(0, 0, preflight=True)
    assert result.code >= 0


def test_measure_charge_preflight_raises_on_sabotaged_network():
    # Damage the *cached* network in a way no injected defect explains:
    # hang an unreachable charged node off the C_REF side.
    array, structure = _healthy()
    seq = MeasurementSequencer(array.macro(0), structure)
    built = seq._charge_network()
    built.network.add_capacitor("CSNEAK", "sneak", "gate", 5e-15)
    seq._pristine = built.network.snapshot()  # re-baseline the sabotaged topology
    with pytest.raises(RuleViolation, match="ERC003"):
        seq.measure_charge(0, 0, preflight=True)


def test_scan_preflight_matches_plain_scan():
    array, structure = _shorted()
    plain = ArrayScanner(array, structure).scan()
    checked = ArrayScanner(array, structure).scan(ScanConfig(preflight=True))
    assert (plain.codes == checked.codes).all()


# ---------------------------------------------------------------------------
# ERC-aided solver errors
# ---------------------------------------------------------------------------


def test_preflight_violation_raises_before_any_scan_work(monkeypatch):
    """A failing preflight must raise before any tile is measured."""
    import repro.lint as lint_pkg
    from repro.lint.diagnostics import Diagnostic, LintReport, Severity

    bad = LintReport([
        Diagnostic(
            code="ERC003", slug="charge-trap", severity=Severity.ERROR,
            message="unreachable charged node", subject="macro[0]",
            nodes=("s0_0",),
        )
    ])
    monkeypatch.setattr(lint_pkg, "preflight_array", lambda *a, **k: bad)

    def _boom(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("scan work ran despite failed preflight")

    monkeypatch.setattr(ArrayScanner, "kernel_planes", _boom)
    monkeypatch.setattr(ArrayScanner, "_scan_macro", _boom)

    from repro.edram.array import EDRAMArray

    array = EDRAMArray(8, 8, macro_rows=4, macro_cols=4)
    with pytest.raises(RuleViolation, match="ERC003") as excinfo:
        ArrayScanner(array).scan(ScanConfig(preflight=True))
    assert any(d.code == "ERC003" for d in excinfo.value.diagnostics)


def test_singular_mna_error_names_offending_nodes():
    from repro.circuit.dc import dc_operating_point

    with pytest.raises(SingularCircuitError) as excinfo:
        dc_operating_point(fixtures.bad_vsource_loop())
    err = excinfo.value
    assert "ERC diagnosis" in str(err)
    assert "ERC005" in str(err)
    assert "in" in err.nodes
    assert any(d.code == "ERC005" for d in err.diagnostics)


def test_charge_conflict_error_names_shorted_nodes():
    net = fixtures.good_charge_network()
    net.drive("gate", 1.0)
    net.close_switch("LEC")
    with pytest.raises(SingularCircuitError) as excinfo:
        net.settle()
    assert set(excinfo.value.nodes) == {"plate", "gate"}
