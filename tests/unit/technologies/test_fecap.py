"""FeCap backend: polarization physics, read-disturb, cache coherence."""

import numpy as np
import pytest

from repro.edram.defects import CellDefect, DefectInjector, DefectKind
from repro.errors import ArrayConfigError
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.obs.ledger import RunLedger
from repro.technologies import get
from repro.technologies.fecap import FeCapArray, fecap_technology_card
from repro.units import fF
from tests.reference_scan import reference_scan


def _small(seed=0, **kwargs):
    return get("fecap").build_array(8, 4, macro_rows=4, seed=seed, **kwargs)


class TestPolarizationModel:
    def test_written_state_capacitance_is_lin_plus_switch(self):
        array = FeCapArray(4, 2)
        card = fecap_technology_card()
        np.testing.assert_allclose(
            array.capacitance_view(), card.cell_capacitance
        )

    def test_depolarized_cell_presents_the_dielectric_floor(self):
        array = FeCapArray(4, 2, polarization=-1.0)
        np.testing.assert_allclose(array.capacitance_view(), 15.0 * fF)

    def test_polarization_validated(self):
        with pytest.raises(ArrayConfigError):
            FeCapArray(4, 2, polarization=1.5)
        with pytest.raises(ArrayConfigError):
            FeCapArray(4, 2, read_disturb=1.0)

    def test_polarization_view_is_read_only(self):
        view = FeCapArray(4, 2).polarization_view()
        with pytest.raises(ValueError):
            view[0, 0] = 0.0


class TestReadDisturb:
    def test_disturb_decays_polarization_and_capacitance(self):
        array = FeCapArray(4, 2, read_disturb=0.1)
        before = array.capacitance_view().copy()
        array.apply_read_disturb()
        np.testing.assert_allclose(array.polarization_view(), 0.9)
        assert np.all(array.capacitance_view() < before)
        assert array.reads == 1

    def test_multi_read_disturb_compounds(self):
        one_by_one = FeCapArray(4, 2, read_disturb=0.1)
        batched = FeCapArray(4, 2, read_disturb=0.1)
        for _ in range(3):
            one_by_one.apply_read_disturb()
        batched.apply_read_disturb(reads=3)
        np.testing.assert_allclose(
            one_by_one.polarization_view(), batched.polarization_view()
        )

    def test_disturb_bumps_version_for_cache_eviction(self):
        array = FeCapArray(4, 2)
        version = array.version
        array.apply_read_disturb()
        assert array.version > version

    def test_disturb_reapplies_parametric_defect_factors(self):
        array = FeCapArray(4, 2, read_disturb=0.1)
        DefectInjector(array).inject(0, 0, CellDefect(kind=DefectKind.LOW_CAP, factor=0.5))
        array.apply_read_disturb()
        plane = array.capacitance_view()
        # The defective cell stays at half its neighbours' (uniform) value.
        assert plane[0, 0] == pytest.approx(0.5 * plane[1, 1])

    def test_zero_disturb_rate_leaves_planes_untouched(self):
        array = FeCapArray(4, 2, read_disturb=0.0)
        before = array.capacitance_view().copy()
        array.apply_read_disturb()
        np.testing.assert_array_equal(array.capacitance_view(), before)


class TestScanIntegration:
    def test_scan_applies_one_read_of_disturb(self):
        array = _small()
        scanner = ArrayScanner(array, get("fecap").design_structure(array))
        scanner.scan(ScanConfig(technology="fecap"))
        assert array.reads == 1
        np.testing.assert_allclose(
            array.polarization_view(), 1.0 - array.read_disturb
        )

    def test_repeated_recorded_scans_droop_in_the_ledger(self, tmp_path):
        array = _small()
        scanner = ArrayScanner(array, get("fecap").design_structure(array))
        ledger = RunLedger(tmp_path / "ledger")
        config = ScanConfig(technology="fecap", ledger=ledger)
        for _ in range(4):
            scanner.scan(config)
        manifests = ledger.runs()
        polarization = [m.scalars["polarization_mean"] for m in manifests]
        assert polarization == sorted(polarization, reverse=True)
        assert [m.scalars["read_cycles"] for m in manifests] == [1, 2, 3, 4]
        # The measured V_GS (monotone in cell capacitance) droops with
        # the polarization — this is the signal the drift charts flag.
        vgs_means = [m.scalars["vgs_mean"] for m in manifests]
        assert vgs_means == sorted(vgs_means, reverse=True)
        assert vgs_means[0] > vgs_means[-1]

    def test_kernel_vs_serial_on_identical_twins(self):
        """Scans disturb state, so compare two identically-seeded arrays."""
        kernel_array = _small(seed=5, with_defects=True)
        driver_array = _small(seed=5, with_defects=True)
        structure = get("fecap").design_structure(kernel_array)
        config = ScanConfig(technology="fecap")
        fast = ArrayScanner(kernel_array, structure).scan(config)
        slow = reference_scan(driver_array, structure)
        np.testing.assert_array_equal(fast.codes, slow.codes)
        np.testing.assert_array_equal(fast.vgs, slow.vgs)
        np.testing.assert_array_equal(fast.quality, slow.quality)
