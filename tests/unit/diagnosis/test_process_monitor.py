"""Process monitoring statistics."""

import numpy as np
import pytest

from repro.bitmap.analog import AnalogBitmap
from repro.diagnosis.process_monitor import ProcessMonitor
from repro.edram.array import EDRAMArray
from repro.edram.variation_map import (
    compose_maps,
    linear_tilt_map,
    mismatch_map,
    uniform_map,
)
from repro.errors import DiagnosisError
from repro.measure.scan import ArrayScanner, ScanResult
from repro.units import fF


@pytest.fixture(scope="module")
def monitor():
    return ProcessMonitor(spec_lo=24 * fF, spec_hi=36 * fF)


def _bitmap(tech, structure, abacus, mean=30 * fF, sigma=1 * fF, tilt=0.0, seed=0):
    shape = (8, 4)
    cap = compose_maps(
        uniform_map(shape, mean),
        mismatch_map(shape, sigma, seed=seed),
        linear_tilt_map(shape, col_slope=tilt),
    )
    arr = EDRAMArray(8, 4, tech=None, macro_cols=2, capacitance_map=cap)
    return AnalogBitmap(ArrayScanner(arr, structure).scan(), abacus)


def test_validation():
    with pytest.raises(DiagnosisError):
        ProcessMonitor(spec_lo=36 * fF, spec_hi=24 * fF)


def test_healthy_report(monitor, tech, structure_8x2, abacus_8x2):
    report = monitor.report(_bitmap(tech, structure_8x2, abacus_8x2))
    assert report.mean == pytest.approx(30 * fF, rel=0.05)
    assert report.cpk > 0.5
    assert report.in_range_fraction == 1.0
    assert "Cpk" in report.summary()


def test_cpk_penalizes_off_centre_process(monitor, tech, structure_8x2, abacus_8x2):
    centred = monitor.report(_bitmap(tech, structure_8x2, abacus_8x2, mean=30 * fF))
    skewed = monitor.report(_bitmap(tech, structure_8x2, abacus_8x2, mean=26 * fF))
    assert skewed.cpk < centred.cpk


def test_drift_detection(monitor, tech, structure_8x2, abacus_8x2):
    stable = [
        _bitmap(tech, structure_8x2, abacus_8x2, mean=30 * fF, seed=s)
        for s in range(3)
    ]
    assert not monitor.detect_drift(stable)
    drifting = stable + [
        _bitmap(tech, structure_8x2, abacus_8x2, mean=24 * fF, seed=9)
    ]
    assert monitor.detect_drift(drifting)


def test_drift_series_shape(monitor, tech, structure_8x2, abacus_8x2):
    bitmaps = [_bitmap(tech, structure_8x2, abacus_8x2, seed=s) for s in range(3)]
    series = monitor.drift_series(bitmaps)
    assert series.shape == (3,)


def test_drift_validation(monitor, tech, structure_8x2, abacus_8x2):
    with pytest.raises(DiagnosisError):
        monitor.drift_series([])
    with pytest.raises(DiagnosisError):
        monitor.detect_drift([_bitmap(tech, structure_8x2, abacus_8x2)])


def test_failing_fraction(monitor, tech, structure_8x2, abacus_8x2):
    healthy = monitor.failing_fraction(_bitmap(tech, structure_8x2, abacus_8x2))
    assert healthy < 0.2
    shifted = monitor.failing_fraction(
        _bitmap(tech, structure_8x2, abacus_8x2, mean=22 * fF)
    )
    assert shifted > 0.8


def test_failing_fraction_counts_out_of_range_cells(monitor, abacus_8x2):
    """Codes 0 and full scale have no estimate (NaN), yet they fail."""
    codes = np.zeros((8, 4), dtype=int)
    codes[:, 2:] = abacus_8x2.num_steps
    scan = ScanResult(
        codes=codes, vgs=np.zeros((8, 4)), num_steps=abacus_8x2.num_steps,
        tiers=np.full((8, 4), "c"),
    )
    assert monitor.failing_fraction(AnalogBitmap(scan, abacus_8x2)) == 1.0


class TestSampleSizePlanning:
    def test_formula(self, monitor):
        from repro.units import fF

        n = monitor.samples_needed(drift_to_detect=1 * fF, cell_sigma=2 * fF,
                                   confidence_sigma=3.0)
        assert n == 36  # (3*2/1)^2

    def test_smaller_drift_needs_more_samples(self, monitor):
        from repro.units import fF

        big = monitor.samples_needed(2 * fF, 2 * fF)
        small = monitor.samples_needed(0.5 * fF, 2 * fF)
        assert small > big

    def test_validation(self, monitor):
        import pytest as _pytest
        from repro.errors import DiagnosisError

        with _pytest.raises(DiagnosisError):
            monitor.samples_needed(0.0, 1.0)
        with _pytest.raises(DiagnosisError):
            monitor.samples_needed(1.0, 1.0, confidence_sigma=0.0)
