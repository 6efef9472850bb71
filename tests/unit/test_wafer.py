"""Wafer-level monitoring."""

import math

import numpy as np
import pytest

from repro.errors import DiagnosisError
from repro.wafer import WaferModel, WaferReport
from repro.units import fF, to_fF


@pytest.fixture(scope="module")
def report():
    return WaferModel(diameter_dies=7, seed=1).measure_wafer()


def test_validation():
    with pytest.raises(DiagnosisError):
        WaferModel(diameter_dies=2)
    with pytest.raises(DiagnosisError):
        WaferModel(die_rows=10, macro_rows=4)
    with pytest.raises(DiagnosisError):
        WaferReport(dies=[], diameter=5)


def test_sites_are_inside_the_circle():
    model = WaferModel(diameter_dies=9)
    for x, y, r in model.sites():
        assert 0 <= r <= 1.0
        centre = 4.0
        assert math.hypot(x - centre, y - centre) <= 4.5 + 1e-9


def test_corner_dies_are_not_printed():
    model = WaferModel(diameter_dies=9)
    coords = {(x, y) for x, y, _ in model.sites()}
    assert (0, 0) not in coords
    assert (4, 4) in coords


def test_wafer_mean_near_nominal(report):
    assert to_fF(report.wafer_mean) == pytest.approx(29.0, abs=1.0)


def test_radial_profile_recovers_planted_drop(report):
    a, b = report.radial_profile()
    assert to_fF(a) == pytest.approx(30.0, abs=0.5)  # centre value
    assert to_fF(-b) == pytest.approx(2.5, abs=0.8)  # planted drop


def test_zonal_means_decrease_outward(report):
    zones = report.zonal_means(rings=3)
    means = [m for _, m, _ in zones]
    counts = [n for _, _, n in zones]
    assert sum(counts) == len(report.dies)
    assert means[0] > means[-1]


def test_zonal_validation(report):
    with pytest.raises(DiagnosisError):
        report.zonal_means(rings=0)


def test_out_of_spec_dies(report):
    bad = report.out_of_spec_dies(spec_lo=29.2 * fF, spec_hi=36 * fF)
    # The edge ring sits below 29.2 fF by construction.
    assert len(bad) > 0
    assert all(d.radius_fraction > 0.3 for d in bad)


def test_ascii_map_renders(report):
    art = report.ascii_map()
    assert "wafer mean" in art
    assert ".." in art  # off-wafer corners


def test_determinism():
    a = WaferModel(diameter_dies=5, seed=3).measure_wafer()
    b = WaferModel(diameter_dies=5, seed=3).measure_wafer()
    assert a.wafer_mean == b.wafer_mean


def test_radial_profile_exact_on_synthetic_dies():
    """The fit recovers a planted a + b·r² profile exactly (no noise)."""
    from repro.wafer import DieSite

    a_true, b_true = 30.0 * fF, -2.5 * fF
    dies = [
        DieSite(x=i, y=0, radius_fraction=r,
                mean_capacitance=a_true + b_true * r**2,
                sigma_capacitance=0.0)
        for i, r in enumerate([0.0, 0.25, 0.5, 0.75, 1.0])
    ]
    a, b = WaferReport(dies=dies, diameter=5).radial_profile()
    assert a == pytest.approx(a_true, rel=1e-9)
    assert b == pytest.approx(b_true, rel=1e-9)


def test_radial_profile_flat_wafer_has_zero_slope():
    from repro.wafer import DieSite

    dies = [
        DieSite(x=i, y=0, radius_fraction=r, mean_capacitance=30.0 * fF,
                sigma_capacitance=0.0)
        for i, r in enumerate([0.0, 0.5, 1.0])
    ]
    a, b = WaferReport(dies=dies, diameter=3).radial_profile()
    assert to_fF(a) == pytest.approx(30.0)
    assert to_fF(b) == pytest.approx(0.0, abs=1e-9)


def test_measure_wafer_reports_die_progress():
    import io
    import json

    from repro.measure.config import ScanConfig
    from repro.obs import JsonlProgress

    buf = io.StringIO()
    model = WaferModel(diameter_dies=3, die_rows=8, die_cols=4,
                       macro_rows=4, macro_cols=2, seed=2)
    model.measure_wafer(config=ScanConfig(progress=JsonlProgress(buf)))
    events = [json.loads(line) for line in buf.getvalue().splitlines()]
    # Progress is die-granular: the per-die cell scans stay silent.
    assert all(e["units"] == "dies" for e in events)
    assert events[-1]["event"] == "finish"
    assert events[-1]["done"] == len(model.sites())


@pytest.mark.parametrize("technology", ["fecap", "1t"])
def test_wafer_per_technology(technology):
    from repro.technologies import get

    model = WaferModel(diameter_dies=3, die_rows=8, die_cols=4,
                       macro_rows=4, technology=technology, seed=4)
    nominal = get(technology).base_card().cell_capacitance
    report = model.measure_wafer()
    # The wafer profile scales with the technology nominal.
    assert 0.7 * nominal < report.wafer_mean < 1.3 * nominal


def test_wafer_config_technology_mismatch_rejected():
    from repro.errors import MeasurementError
    from repro.measure.config import ScanConfig

    model = WaferModel(diameter_dies=3, die_rows=8, die_cols=4,
                       macro_rows=4, technology="fecap")
    with pytest.raises(MeasurementError, match="fecap"):
        model.measure_wafer(config=ScanConfig(technology="edram"))


def _span_counts(tracer):
    names = [span.name for span in tracer.spans]
    return names.count("kernel"), names.count("scan")


def test_die_loop_routes_dies_by_kernel_eligibility():
    """Chunked and per-die paths agree; only ineligible dies leave the chunk."""
    from repro.measure.config import ScanConfig
    from repro.obs import Tracer
    from repro.resilience import Fault, FaultPlan

    def run(**options):
        tracer = Tracer()
        report = WaferModel(diameter_dies=5, seed=6).measure_wafer(
            config=ScanConfig(tracer=tracer, **options)
        )
        return [d.mean_capacitance for d in report.dies], _span_counts(tracer)

    dies = len(WaferModel(diameter_dies=5).sites())
    chunked, spans = run()
    assert spans == (1, 0)  # every die in one stacked kernel pass
    # A plan on the wafer loop's own site keeps the chunk path ...
    silent = Fault("wafer.die_done", error=RuntimeError("never"), after=10**6)
    assert run(faults=FaultPlan([silent])) == (chunked, (1, 0))
    # ... and so does one on a persistence site, which fires outside die
    # scans (the crash-point drill arms those) ...
    persist = Fault("durable.write", error=RuntimeError("never"), after=10**6)
    assert run(faults=FaultPlan([persist])) == (chunked, (1, 0))
    # ... one on any other site sends every die through its own scan,
    # which takes one kernel pass per macro-row slab (two per die).
    foreign = Fault("scan.closed_form", error=RuntimeError("never"), after=10**6)
    means, spans = run(faults=FaultPlan([foreign]))
    assert means == chunked and spans == (2 * dies, dies)
    means, spans = run(preflight=True)
    assert means == chunked and spans == (2 * dies, dies)


def test_bridge_dies_fall_back_in_order_mid_chunk():
    from repro.bitmap.analog import AnalogBitmap
    from repro.edram.defects import CellDefect, DefectInjector, DefectKind
    from repro.measure.scan import ArrayScanner

    def bridged_model():
        model = WaferModel(diameter_dies=5, die_rows=8, die_cols=4,
                           macro_rows=4, seed=8)
        fabricate, count = model.fabricate_die, iter(range(1000))

        def fabricate_die(radius_fraction):
            die = fabricate(radius_fraction)
            if next(count) % 3 == 1:
                DefectInjector(die).inject(1, 0, CellDefect(DefectKind.BRIDGE))
            return die

        model.fabricate_die = fabricate_die
        return model

    reference = bridged_model()
    structure, abacus = reference._calibration()
    scans = [
        ArrayScanner(reference.fabricate_die(r), structure).scan()
        for _x, _y, r in reference.sites()
    ]
    landed = []
    total = len(scans)
    result = bridged_model().measure_dies(
        (0, total), on_die=lambda index, done: landed.append((index, done))
    )
    assert landed == [(i, i + 1) for i in range(total)]
    for index, scan in enumerate(scans):
        assert result.die_means[index] == AnalogBitmap(scan, abacus).mean_capacitance()
        np.testing.assert_array_equal(result.die_vgs[index], scan.vgs)
        np.testing.assert_array_equal(result.die_codes[index], scan.codes)


def test_wafer_die_fabrication_delegates_to_backend():
    model = WaferModel(diameter_dies=3, die_rows=8, die_cols=4,
                       macro_rows=4, technology="1t", seed=5)
    die = model.fabricate_die(0.0)
    assert die.technology == "1t"
    assert die.retention_time_map().shape == (8, 4)
