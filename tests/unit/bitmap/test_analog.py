"""Analog bitmap wrapper."""

import numpy as np
import pytest

from repro.bitmap.analog import AnalogBitmap
from repro.calibration.window import SpecificationWindow
from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.edram.variation_map import compose_maps, mismatch_map, uniform_map
from repro.errors import DiagnosisError
from repro.measure.scan import ArrayScanner
from repro.units import fF


@pytest.fixture()
def bitmap(tech, structure_8x2, abacus_8x2):
    cap = compose_maps(
        uniform_map((8, 4), 30 * fF), mismatch_map((8, 4), 1 * fF, seed=2)
    )
    arr = EDRAMArray(8, 4, tech=tech, macro_cols=2, capacitance_map=cap)
    arr.cell(2, 1).apply_defect(CellDefect(DefectKind.SHORT))
    arr.cell(5, 3).apply_defect(CellDefect(DefectKind.LOW_CAP, factor=0.5))
    scan = ArrayScanner(arr, structure_8x2).scan()
    return AnalogBitmap(scan, abacus_8x2)


def test_shape(bitmap):
    assert bitmap.shape == (8, 4)


def test_masks_partition_cells(bitmap):
    total = bitmap.under_range | bitmap.over_range | bitmap.in_range
    assert total.all()
    assert not (bitmap.under_range & bitmap.in_range).any()


def test_short_is_under_range(bitmap):
    assert bitmap.under_range[2, 1]


def test_estimates_follow_codes(bitmap):
    assert np.isnan(bitmap.estimates[2, 1])
    healthy = bitmap.estimates[0, 0]
    assert 20 * fF < healthy < 40 * fF


def test_statistics(bitmap):
    assert bitmap.mean_capacitance() == pytest.approx(30 * fF, rel=0.1)
    assert bitmap.std_capacitance() < 5 * fF


def test_low_cap_cell_reads_low(bitmap):
    assert bitmap.estimates[5, 3] < 20 * fF


def test_outliers_flags_defects(bitmap):
    flags = bitmap.outliers(3.0)
    assert flags[2, 1]  # short (under range)
    assert flags[5, 3]  # low cap


def test_outliers_validation(bitmap):
    with pytest.raises(DiagnosisError):
        bitmap.outliers(0.0)


def test_classify_against_window(bitmap, abacus_8x2):
    window = SpecificationWindow.from_capacitance(abacus_8x2, 24 * fF, 36 * fF)
    verdicts = bitmap.classify(window)
    assert verdicts[2, 1] == "ambiguous_zero"
    assert verdicts[5, 3] == "fail_low"
    assert verdicts[0, 0] == "pass"
    out = bitmap.out_of_spec(window)
    assert out[2, 1] and out[5, 3] and not out[0, 0]


def test_profiles(bitmap):
    rows = bitmap.row_profile()
    cols = bitmap.column_profile()
    assert rows.shape == (8,)
    assert cols.shape == (4,)
    assert np.nanmean(rows) == pytest.approx(30 * fF, rel=0.1)


def test_code_histogram_counts_all(bitmap):
    assert sum(bitmap.code_histogram().values()) == 32


def test_depth_mismatch_rejected(bitmap, tech, structure_2x2, abacus_2x2):
    from repro.calibration.design import design_structure
    from repro.calibration.abacus import Abacus

    shallow = design_structure(tech, 2, 2, num_steps=8)
    ab8 = Abacus.analytic(shallow, 2, 2)
    with pytest.raises(DiagnosisError):
        AnalogBitmap(bitmap.scan, ab8)


def test_all_out_of_range_statistics_raise(tech, structure_2x2, abacus_2x2):
    arr = EDRAMArray(2, 2, tech=tech)
    for r in range(2):
        for c in range(2):
            arr.cell(r, c).capacitance = 1 * fF  # all under range
    scan = ArrayScanner(arr, structure_2x2).scan()
    bm = AnalogBitmap(scan, abacus_2x2)
    with pytest.raises(DiagnosisError):
        bm.mean_capacitance()


def test_recorded_scan_never_builds_the_estimate_plane(
    tmp_path, monkeypatch, tech, structure_8x2
):
    """The ledger's bitmap scalars read the codes, not the estimates."""
    from repro.calibration.abacus import Abacus
    from repro.measure.config import ScanConfig
    from repro.obs.ledger import RunLedger

    def refuse(self, codes):  # pragma: no cover - must not be reached
        raise AssertionError("estimate plane built for a recorded scan")

    monkeypatch.setattr(Abacus, "estimate_matrix", refuse)
    ledger = RunLedger(tmp_path)
    array = EDRAMArray(8, 4, tech=tech, macro_cols=2)
    ArrayScanner(array, structure_8x2).scan(ScanConfig(ledger=ledger))
    (manifest,) = ledger.runs()
    assert "cap_mean_fF" in manifest.scalars


def test_estimates_are_built_once_on_first_read(bitmap, abacus_8x2):
    np.testing.assert_array_equal(
        bitmap.estimates, abacus_8x2.estimate_matrix(bitmap.codes)
    )
    assert bitmap.estimates is bitmap.estimates
