"""Persistence of scans and abaci."""

import numpy as np
import pytest

from repro.calibration.abacus import Abacus
from repro.calibration.design import design_structure
from repro.edram.array import EDRAMArray
from repro.errors import CalibrationError, MeasurementError
from repro.io import load_abacus, load_scan, save_abacus, save_scan
from repro.measure.scan import ArrayScanner


@pytest.fixture()
def scan(tech, structure_2x2):
    array = EDRAMArray(4, 4, tech=tech)
    return ArrayScanner(array, structure_2x2).scan()


class TestScanIO:
    def test_roundtrip(self, scan, tmp_path):
        path = save_scan(scan, tmp_path / "scan")
        assert path.suffix == ".npz"
        loaded = load_scan(path)
        for plane in ("vgs", "codes", "tiers", "quality"):
            got, want = getattr(loaded, plane), getattr(scan, plane)
            assert got.dtype == want.dtype, plane
            assert np.array_equal(got, want), plane
        assert loaded.num_steps == scan.num_steps

    def test_vgs_roundtrip_is_bit_exact(self, scan, tmp_path):
        loaded = load_scan(save_scan(scan, tmp_path / "scan"))
        assert loaded.vgs.tobytes() == scan.vgs.tobytes()

    def test_pre_change_npz_is_refused_naming_its_format(self, scan, tmp_path):
        path = tmp_path / "old.npz"
        np.savez_compressed(path, format=np.array(2), codes=scan.codes)
        with pytest.raises(MeasurementError, match="pre-change .npz"):
            load_scan(path)

    def test_other_container_kind_is_refused(self, abacus_2x2, tmp_path):
        path = save_abacus(abacus_2x2, tmp_path / "abacus")
        with pytest.raises(MeasurementError, match="not a 'scan'"):
            load_scan(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MeasurementError):
            load_scan(tmp_path / "nope.npz")

    def test_explicit_suffix_kept(self, scan, tmp_path):
        path = save_scan(scan, tmp_path / "data.npz")
        assert path.name == "data.npz"


class TestAbacusIO:
    def test_roundtrip(self, structure_2x2, abacus_2x2, tmp_path):
        path = save_abacus(abacus_2x2, tmp_path / "abacus")
        assert path.suffix == ".npz"
        loaded = load_abacus(path, structure_2x2)
        assert loaded.edges.dtype == abacus_2x2.edges.dtype
        assert np.array_equal(loaded.edges, abacus_2x2.edges)

    def test_missing_file(self, structure_2x2, tmp_path):
        with pytest.raises(CalibrationError):
            load_abacus(tmp_path / "nope.npz", structure_2x2)

    def test_fingerprint_mismatch_rejected(self, tech, abacus_2x2, tmp_path):
        path = save_abacus(abacus_2x2, tmp_path / "abacus")
        other = design_structure(tech, 8, 2)  # different design
        with pytest.raises(CalibrationError):
            load_abacus(path, other)

    def test_torn_file_is_refused(self, structure_2x2, abacus_2x2, tmp_path):
        path = save_abacus(abacus_2x2, tmp_path / "abacus")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CalibrationError, match="unreadable abacus"):
            load_abacus(path, structure_2x2)

    def test_codes_survive_roundtrip(self, structure_2x2, abacus_2x2, tmp_path):
        from repro.units import fF

        path = save_abacus(abacus_2x2, tmp_path / "abacus")
        loaded = load_abacus(path, structure_2x2)
        for cm in (12, 30, 50):
            assert loaded.code_for_capacitance(cm * fF) == (
                abacus_2x2.code_for_capacitance(cm * fF)
            )
