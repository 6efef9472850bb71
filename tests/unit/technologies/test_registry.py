"""The technology registry: resolution, registration, kernel opt-out."""

import numpy as np
import pytest

from repro.errors import MeasurementError, TechnologyError
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.technologies import CellTechnology, get, names, register, unregister
from repro.technologies.edram import EDRAMTechnology
from repro.units import fF


class TestResolution:
    def test_names_lists_shipped_backends_in_order(self):
        assert names()[:3] == ("edram", "fecap", "1t")

    def test_get_caches_the_instance(self):
        assert get("edram") is get("edram")

    def test_unknown_name_lists_registered(self):
        with pytest.raises(TechnologyError, match="edram"):
            get("mram")

    def test_shipped_backends_resolve_and_self_identify(self):
        for name in ("edram", "fecap", "1t"):
            backend = get(name)
            assert backend.name == name
            assert backend.display
            assert backend.reference

    def test_describe_is_json_shaped(self):
        import json

        for name in names():
            payload = get(name).describe()
            round_tripped = json.loads(json.dumps(payload))
            assert round_tripped["name"] == name
            assert set(round_tripped["corners"]) == {"tt", "ff", "ss", "fs", "sf"}


class _ProbeTechnology(EDRAMTechnology):
    name = "probe"


class TestRegistration:
    def test_register_and_unregister_instance(self):
        register("probe", _ProbeTechnology())
        try:
            assert "probe" in names()
            assert get("probe").name == "probe"
        finally:
            unregister("probe")
        assert "probe" not in names()

    def test_register_rejects_name_mismatch(self):
        with pytest.raises(TechnologyError):
            register("not-probe", _ProbeTechnology())

    def test_unregister_unknown_is_noop(self):
        unregister("never-registered")


class _NoKernelTechnology(EDRAMTechnology):
    name = "nokernel"
    uses_kernel = False


class TestKernelOptOut:
    def test_opting_out_routes_every_macro_through_the_drivers(self):
        """uses_kernel=False pins the per-macro path, bit-exactly."""
        register("nokernel", _NoKernelTechnology())
        try:
            backend = get("nokernel")
            array = backend.build_array(16, 4, macro_rows=8, seed=11)
            # Tag the array so the scanner accepts the pairing.
            array.technology = "nokernel"
            structure = backend.design_structure(array)
            config = ScanConfig(technology="nokernel")
            result = ArrayScanner(array, structure).scan(config)
            assert result.stats.kernel_cells == 0

            reference = get("edram").build_array(16, 4, macro_rows=8, seed=11)
            kernel = ArrayScanner(
                reference, get("edram").design_structure(reference)
            ).scan()
            assert kernel.stats.kernel_cells == reference.num_cells
            np.testing.assert_array_equal(result.codes, kernel.codes)
            np.testing.assert_array_equal(result.vgs, kernel.vgs)
        finally:
            unregister("nokernel")


class TestScanConfigTechnology:
    def test_default_is_edram(self):
        assert ScanConfig().technology == "edram"

    def test_unknown_technology_rejected_at_construction(self):
        with pytest.raises(MeasurementError, match="registered"):
            ScanConfig(technology="mram")

    def test_registered_names_accepted(self):
        for name in ("edram", "fecap", "1t"):
            assert ScanConfig(technology=name).technology == name

    def test_scan_rejects_array_config_mismatch(self):
        fecap_array = get("fecap").build_array(8, 2, macro_rows=4, seed=0)
        scanner = ArrayScanner(
            fecap_array, get("fecap").design_structure(fecap_array)
        )
        with pytest.raises(MeasurementError, match="fecap"):
            scanner.scan(ScanConfig(technology="edram"))

    def test_technology_in_fingerprint_and_resume_keys(self):
        # The fingerprint is also the checkpoint resume key.
        from repro.obs.ledger import config_fingerprint, config_hash

        edram = ScanConfig()
        fecap = ScanConfig(technology="fecap")
        assert config_fingerprint(fecap)["technology"] == "fecap"
        assert config_hash(edram) != config_hash(fecap)


class TestProtocolDefaults:
    def test_spec_window_defaults_to_twenty_percent(self):
        class _Windowed(EDRAMTechnology):
            name = "windowed"

            def spec_window(self):
                return CellTechnology.spec_window(self)

        lo, hi = _Windowed().spec_window()
        assert lo == pytest.approx(0.8 * 30 * fF)
        assert hi == pytest.approx(1.2 * 30 * fF)

    def test_check_array_rejects_foreign_arrays(self):
        fecap_array = get("fecap").build_array(4, 2, seed=0)
        with pytest.raises(TechnologyError):
            get("edram").check_array(fecap_array)
        get("fecap").check_array(fecap_array)

    def test_default_structure_matches_scanner_default(self):
        backend = get("edram")
        array = backend.build_array(8, 2, macro_rows=4, seed=0)
        ours = backend.default_structure(array)
        scanners = ArrayScanner(array).structure
        assert ours.tech == scanners.tech
        assert ours.design == scanners.design
