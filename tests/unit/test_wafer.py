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


def test_every_die_takes_the_chunk_kernel_pass():
    """One kernel pass per chunk whatever fault plan is armed, and the
    options that would ask for a per-die scan are refused, not ignored."""
    from repro.errors import MeasurementError
    from repro.measure.config import ScanConfig
    from repro.obs import Tracer
    from repro.resilience import Fault, FaultPlan

    def run(**options):
        tracer = Tracer()
        report = WaferModel(diameter_dies=5, seed=6).measure_wafer(
            config=ScanConfig(tracer=tracer, **options)
        )
        return [d.mean_capacitance for d in report.dies], _span_counts(tracer)

    chunked, spans = run()
    assert spans == (1, 0)  # every die in one stacked kernel pass
    # The wafer loop's own site, a persistence site (the crash-point
    # drill arms those) and the scan sites no wafer die reaches alike.
    for site in ("wafer.die_done", "durable.write", "scan.closed_form",
                 "scan.macro_done"):
        never = Fault(site, error=RuntimeError("never"), after=10**6)
        assert run(faults=FaultPlan([never])) == (chunked, (1, 0)), site

    model = WaferModel(diameter_dies=5, seed=6)
    total = len(model.sites())
    for option in ("force_engine", "preflight"):
        config = ScanConfig(**{option: True})
        refusal = f"config.{option} does not apply to a wafer"
        with pytest.raises(MeasurementError, match=refusal):
            model.measure_wafer(config)
        with pytest.raises(MeasurementError, match=refusal):
            model.measure_dies((1, total), config)


def test_wafer_die_fabrication_delegates_to_backend():
    model = WaferModel(diameter_dies=3, die_rows=8, die_cols=4,
                       macro_rows=4, technology="1t", seed=5)
    die = model.fabricate_die(0.0)
    assert die.technology == "1t"
    assert die.retention_time_map().shape == (8, 4)


def _ring_dies():
    from repro.wafer import DieSite

    return [
        DieSite(0, 0, 0.0, 30.0 * fF, 1.0 * fF),
        DieSite(1, 0, 0.5, 29.0 * fF, 1.0 * fF),
        DieSite(2, 0, 0.9, 28.0 * fF, 3.0 * fF),
    ]


def test_wafer_scalars_summarize_the_report():
    report = WaferReport(dies=_ring_dies(), diameter=3)
    scalars = report.scalars()
    a, b = report.radial_profile()
    assert scalars["cap_mean_fF"] == to_fF(report.wafer_mean)
    assert scalars["die_sigma_mean_fF"] == pytest.approx(5.0 / 3.0)
    assert scalars["radial_centre_fF"] == to_fF(a)
    assert scalars["radial_drop_fF"] == to_fF(-b)
    for zone, (_label, mean, count) in zip(
        ("centre", "mid", "edge"), report.zonal_means(3)
    ):
        assert scalars[f"zone_{zone}_fF"] == to_fF(mean)
        assert scalars[f"zone_{zone}_dies"] == count == 1


def test_wafer_scalars_omit_empty_rings():
    scalars = WaferReport(dies=_ring_dies()[2:], diameter=3).scalars()
    assert {"zone_edge_fF", "zone_edge_dies"} <= set(scalars)
    assert not any(k.startswith(("zone_centre", "zone_mid")) for k in scalars)


def test_die_range_planes_are_range_sized():
    model = WaferModel(diameter_dies=3, seed=4)
    scan = model.measure_dies((2, 6))
    assert (scan.die_range, scan.total_dies) == ((2, 6), 9)
    for name in model.die_planes(0):
        assert len(getattr(scan, name)) == 4, name
    whole = WaferModel(diameter_dies=3, seed=4).measure_dies((0, 9))
    np.testing.assert_array_equal(scan.die_vgs, whole.die_vgs[2:6])
    np.testing.assert_array_equal(scan.die_means, whole.die_means[2:6])


def test_measure_dies_leaves_the_checkpoint_to_its_caller(tmp_path):
    from repro.measure.config import ScanConfig
    from repro.obs.ledger import RunLedger
    from repro.resilience import Checkpointer, list_checkpoints

    ledger = RunLedger(tmp_path)
    checkpointer = Checkpointer(ledger)
    scan = WaferModel(diameter_dies=3, seed=4).measure_dies(
        (0, 9), ScanConfig(checkpoint=checkpointer)
    )
    (state,) = list_checkpoints(ledger)
    assert (state.kind, state.run_id) == ("shard", scan.run_id)
    assert sorted(state.completed) == list(range(9))
    checkpointer.finish()
    assert list_checkpoints(ledger) == []


def test_measure_wafer_records_before_it_finishes_the_checkpoint(
    tmp_path, monkeypatch
):
    from repro.measure.config import ScanConfig
    from repro.obs.ledger import RunLedger
    from repro.resilience import Checkpointer, list_checkpoints

    ledger = RunLedger(tmp_path)

    def ledger_down(*args, **kwargs):
        raise RuntimeError("ledger down")

    monkeypatch.setattr(ledger, "record_wafer", ledger_down)
    with pytest.raises(RuntimeError, match="ledger down"):
        WaferModel(diameter_dies=3, seed=4).measure_wafer(
            ScanConfig(ledger=ledger, checkpoint=Checkpointer(ledger))
        )
    # The measured dies outlive the failed record ...
    (state,) = list_checkpoints(ledger)
    assert sorted(state.completed) == list(range(9))
    monkeypatch.undo()
    # ... and a resume records them under the reserved id, then finishes.
    report = WaferModel(diameter_dies=3, seed=4).measure_wafer(
        ScanConfig(ledger=ledger, checkpoint=Checkpointer(ledger, resume=state.run_id))
    )
    assert list_checkpoints(ledger) == []
    (manifest,) = ledger.runs()
    assert (manifest.kind, manifest.run_id) == ("wafer", state.run_id)
    assert report.dies == WaferModel(diameter_dies=3, seed=4).measure_wafer().dies


def test_interrupted_wafer_resumes_as_its_die_range(tmp_path):
    from repro.measure.config import ScanConfig
    from repro.obs.ledger import RunLedger
    from repro.resilience import Checkpointer, Fault, FaultPlan

    ledger = RunLedger(tmp_path)
    interrupt = Fault("wafer.die_done", error=KeyboardInterrupt(),
                      after=5, times=1)
    with pytest.raises(KeyboardInterrupt):
        WaferModel(diameter_dies=3, seed=4).measure_wafer(ScanConfig(
            checkpoint=Checkpointer(ledger), faults=FaultPlan([interrupt])
        ))
    resumed = WaferModel(diameter_dies=3, seed=4).measure_dies(
        (0, 9), ScanConfig(checkpoint=Checkpointer(ledger, resume="r0001"))
    )
    whole = WaferModel(diameter_dies=3, seed=4).measure_dies((0, 9))
    for name in WaferModel(diameter_dies=3).die_planes(0):
        np.testing.assert_array_equal(
            getattr(resumed, name), getattr(whole, name), err_msg=name
        )

    # A shard's range of 64x32 dies (four per chunk), interrupted in
    # its second chunk: the resume skips the persisted first chunk and
    # lands every other die once, in die order, counting the skipped.
    def shard_model():
        return WaferModel(diameter_dies=7, die_rows=64, die_cols=32, seed=4)

    lo, hi = 3, 20
    ledger = RunLedger(tmp_path / "shard")
    interrupt = Fault("wafer.die_done", error=KeyboardInterrupt(),
                      after=5, times=1)
    with pytest.raises(KeyboardInterrupt):
        shard_model().measure_dies((lo, hi), ScanConfig(
            checkpoint=Checkpointer(ledger), faults=FaultPlan([interrupt])
        ))
    landed = []
    resumed = shard_model().measure_dies(
        (lo, hi), ScanConfig(checkpoint=Checkpointer(ledger, resume="r0001")),
        on_die=lambda index, done: landed.append((index, done)),
    )
    assert landed == [(i, i - lo + 1) for i in range(lo + 4, hi)]
    whole = shard_model().measure_dies((0, len(shard_model().sites())))
    for name in shard_model().die_planes(0):
        np.testing.assert_array_equal(
            getattr(resumed, name), getattr(whole, name)[lo:hi], err_msg=name
        )


def test_die_without_an_in_range_cell_lands_failed_not_aborting_the_wafer():
    """A die reading only code 0 / full scale has no mean: it lands
    FAILED with NaN statistics, and the wafer report keeps the GOOD
    dies."""
    from repro.wafer import DieQuality

    def model():
        # A steep radial drop on the 1T card pushes edge dies below
        # the code scale's floor.
        return WaferModel(diameter_dies=21, technology="1t", seed=3,
                          radial_drop=0.7 * 4 * fF, cell_sigma=4 * fF / 15)

    total = len(model().sites())
    chunked = model().measure_dies((0, total))
    failed = chunked.die_quality == int(DieQuality.FAILED)
    assert 0 < failed.sum() < total
    assert (chunked.die_quality[~failed] == int(DieQuality.GOOD)).all()
    num_steps = chunked.die_codes.max()
    for codes in chunked.die_codes[failed]:
        assert np.isin(codes, (0, num_steps)).all()
    assert np.isnan(chunked.die_means[failed]).all()
    assert np.isnan(chunked.die_sigmas[failed]).all()
    assert not np.isnan(chunked.die_means[~failed]).any()

    report = model().measure_wafer()
    assert len(report.dies) == int((~failed).sum())
    assert all(math.isfinite(value) for value in report.scalars().values())


def test_wafer_manifest_and_map_count_failed_dies(tmp_path):
    """A FAILED die is counted in the wafer manifest and drawn on the
    map with its own mark, not as an off-wafer site."""
    from repro.measure.config import ScanConfig
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(tmp_path)
    report = WaferModel(
        diameter_dies=21, technology="1t", seed=3,
        radial_drop=0.7 * 4 * fF, cell_sigma=4 * fF / 15,
    ).measure_wafer(ScanConfig(technology="1t", ledger=ledger))
    (manifest,) = ledger.runs()
    assert manifest.scalars["dies"] == 284.0
    assert manifest.scalars["failed_dies"] == 65.0
    assert len(report.failed) == 65
    art = report.ascii_map()
    assert art.count("XX") == 65
    # The off-wafer corners keep their own mark.
    assert art.splitlines()[0].startswith("  .. ")
