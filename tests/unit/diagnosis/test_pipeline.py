"""One-call diagnosis pipeline."""

import pytest

from repro.diagnosis.classifier import CellVerdict
from repro.diagnosis.pipeline import DiagnosisPipeline
from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectInjector, DefectKind
from repro.edram.variation_map import compose_maps, mismatch_map, uniform_map
from repro.errors import DiagnosisError
from repro.units import fF


@pytest.fixture(scope="module")
def pipeline():
    return DiagnosisPipeline(spec_lo=24 * fF, spec_hi=36 * fF)


def _array(tech, seed=3, defects=True):
    capacitance = compose_maps(
        uniform_map((32, 8), 30 * fF), mismatch_map((32, 8), 0.7 * fF, seed=seed)
    )
    array = EDRAMArray(32, 8, tech=tech, macro_cols=2, macro_rows=8,
                       capacitance_map=capacitance)
    if defects:
        injector = DefectInjector(array, seed=seed)
        injector.inject(4, 2, CellDefect(DefectKind.SHORT))
        injector.inject(20, 5, CellDefect(DefectKind.LOW_CAP, factor=0.6))
        injector.inject(10, 6, CellDefect(DefectKind.RETENTION, factor=5000.0))
    return array


def test_validation():
    with pytest.raises(DiagnosisError):
        DiagnosisPipeline(spec_lo=36 * fF, spec_hi=24 * fF)
    with pytest.raises(DiagnosisError):
        DiagnosisPipeline(spec_lo=1.0, spec_hi=2.0, retention_pause=-1.0)


def test_healthy_array_report(pipeline, tech):
    report = pipeline.run(_array(tech, defects=False))
    assert report.digital.fail_count == 0
    assert report.findings == []
    assert report.repair.success
    assert report.process.cpk > 1.0


def test_defective_array_report(pipeline, tech):
    report = pipeline.run(_array(tech))
    assert report.digital.fail_count >= 2  # short + retention
    assert report.verdicts[20, 5] is CellVerdict.LOW_CAP
    assert report.verdicts[4, 2] in (CellVerdict.SHORT, CellVerdict.OPEN_OR_UNDER)
    assert len(report.findings) >= 2
    assert report.repair.success
    assert report.must_repair[4, 2]
    assert report.must_repair[20, 5]
    # Retention defect: digitally failing, analog in-spec -> still repaired.
    assert report.must_repair[10, 6]


def test_summary_renders(pipeline, tech):
    text = pipeline.run(_array(tech)).summary()
    for key in ("digital fails", "analog anomalies", "process", "repair"):
        assert key in text


def test_structure_is_cached_per_geometry(pipeline, tech):
    pipeline.run(_array(tech, seed=4))
    first = pipeline._structure
    pipeline.run(_array(tech, seed=5))
    assert pipeline._structure is first  # same geometry -> same design


def test_geometry_change_triggers_redesign(tech):
    pipeline = DiagnosisPipeline(spec_lo=24 * fF, spec_hi=36 * fF)
    pipeline.run(_array(tech))
    first = pipeline._structure
    small = EDRAMArray(8, 4, tech=tech, macro_cols=2, macro_rows=8)
    pipeline.run(small)
    assert pipeline._structure is not first


def test_one_boundary_table_per_run(tech, monkeypatch):
    """A run solves each of the ``num_steps`` code boundaries exactly once.

    The e2e benchmark's ``calibration.calls == 3`` counts three wrapped
    calls per diagnose op — ``design_structure``, ``Abacus.for_array``
    and the ``Abacus.analytic`` nested in it — not three boundary
    solves: the designed structure memoizes its table, and the abacus
    and the scanner both read it.
    """
    from repro.measure.structure import MeasurementStructure

    solved = []
    original = MeasurementStructure.vgs_for_code_boundary

    def counting(self, code):
        solved.append(code)
        return original(self, code)

    monkeypatch.setattr(MeasurementStructure, "vgs_for_code_boundary", counting)
    array = _array(tech)
    array.cell(9, 2).apply_defect(CellDefect(DefectKind.BRIDGE))  # an engine macro
    report = DiagnosisPipeline(spec_lo=24 * fF, spec_hi=36 * fF).run(array)
    num_steps = report.scan.num_steps
    assert sorted(solved) == list(range(1, num_steps + 1))
