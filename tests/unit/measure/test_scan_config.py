"""ScanConfig: validation, immutability, and the entry points that take it."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.edram.array import EDRAMArray
from repro.errors import MeasurementError, ScanMismatchError
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer


class TestScanConfig:
    def test_defaults(self):
        config = ScanConfig()
        assert config.preflight is False
        assert config.force_engine is False
        assert config.tier == "charge"
        assert config.tracer is NULL_TRACER
        assert config.metrics is NULL_METRICS

    def test_tier_validated(self):
        with pytest.raises(MeasurementError):
            ScanConfig(tier="psychic")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ScanConfig().force_engine = True  # type: ignore[misc]

    def test_with_options_revalidates(self):
        config = ScanConfig().with_options(tier="transient")
        assert config.tier == "transient"
        with pytest.raises(MeasurementError):
            config.with_options(tier="psychic")

    def test_equality_ignores_observers(self):
        assert ScanConfig(tracer=Tracer()) == ScanConfig(metrics=MetricsRegistry())
        assert ScanConfig(force_engine=True) != ScanConfig()

    def test_observed_property(self):
        assert not ScanConfig().observed
        assert ScanConfig(tracer=Tracer()).observed
        assert ScanConfig(metrics=MetricsRegistry()).observed


class TestEntryPoints:
    def test_scan_config_path_is_silent(self, tech, structure_2x2):
        scanner = ArrayScanner(EDRAMArray(2, 2, tech=tech), structure_2x2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            scanner.scan(ScanConfig())
            scanner.scan()


class TestScanDiffValidation:
    def test_diff_rejects_non_scan(self, tech, structure_2x2):
        scan = ArrayScanner(EDRAMArray(2, 2, tech=tech), structure_2x2).scan()
        with pytest.raises(ScanMismatchError):
            scan.diff(np.zeros((2, 2)))  # type: ignore[arg-type]

    def test_diff_rejects_shape_mismatch(self, tech, structure_2x2):
        a = ArrayScanner(EDRAMArray(2, 2, tech=tech), structure_2x2).scan()
        b = ArrayScanner(EDRAMArray(4, 2, tech=tech), structure_2x2).scan()
        with pytest.raises(ScanMismatchError, match="shape"):
            a.diff(b)

    def test_mismatch_is_a_measurement_error(self):
        assert issubclass(ScanMismatchError, MeasurementError)
