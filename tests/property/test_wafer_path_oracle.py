"""One oracle for every wafer path: same wafer in, same die planes out.

A wafer is one die range: :meth:`WaferModel.measure_wafer` measures
``[0, total)`` through :meth:`WaferModel.measure_dies`, which stacks
dies into chunks measured by one kernel pass and fast-forwards the RNG
past dies outside its range or already checkpointed.  Whatever the path,
every die's means, sigmas, vgs and codes must be bit-identical to the
reference walk below — each die fabricated in order and scanned on its
own — for every cell technology, die geometry and seed, on a wafer
spanning several chunks:

- ``measure_wafer``;
- any contiguous partition of ``measure_dies``, concatenated;
- a checkpointed run interrupted at a random ``wafer.die_done``, then
  resumed;
- a run with an armed (never-firing) fault plan on a scan site, which
  no die's measurement reaches: no die takes a scan of its own.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.wafer
from repro.bitmap.analog import AnalogBitmap
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.obs import MetricsRegistry
from repro.obs.ledger import RunLedger
from repro.resilience import Checkpointer, Fault, FaultPlan, list_checkpoints
from repro.technologies import get as get_technology
from repro.wafer import DieQuality, WaferModel

#: (die_rows, die_cols, macro_rows, macro_cols) drawn per example.
GEOMETRIES = [(8, 4, 4, 2), (16, 8, 8, 2), (16, 4, 8, 2), (8, 8, 2, 4)]
DIAMETER = 21
#: Centre-to-edge drop, as a fraction of the technology nominal, that
#: puts some cells of every edge die out of range and none of a die's
#: all of them (a die needs one in-range cell for its statistics).
WIDE_DROP = {"edram": 0.5, "fecap": 0.7, "1t": 0.4}

#: Every phase but shrinking: each shrink step re-runs the reference
#: walk and four wafer paths, so a shrinking failure took five minutes
#: to report; an unshrunk example is reported as soon as it fails.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

_PLANES = ("die_means", "die_sigmas", "die_vgs", "die_codes")


def _model(technology, geometry, seed, **profile):
    die_rows, die_cols, macro_rows, macro_cols = geometry
    return WaferModel(
        diameter_dies=DIAMETER, die_rows=die_rows, die_cols=die_cols,
        macro_rows=macro_rows, macro_cols=macro_cols,
        technology=technology, seed=seed, **profile,
    )


def _reference(model):
    """Every die fabricated in order and scanned on its own."""
    structure, abacus = model._calibration()
    config = ScanConfig(technology=model.technology)
    out = {name: [] for name in _PLANES}
    for _x, _y, r in model.sites():
        scan = ArrayScanner(model.fabricate_die(r), structure).scan(config)
        bitmap = AnalogBitmap(scan, abacus)
        out["die_means"].append(bitmap.mean_capacitance())
        out["die_sigmas"].append(bitmap.std_capacitance())
        out["die_vgs"].append(scan.vgs)
        out["die_codes"].append(scan.codes)
        # Every cell of a die scanned on its own reads GOOD: this is why
        # a die range stores no cell-quality plane.
        assert not scan.quality.any()
    return {name: np.array(values) for name, values in out.items()}


def _partitioned(make, ranges):
    """``measure_dies`` over each range, on a fresh model, concatenated."""
    scans = [make().measure_dies(die_range) for die_range in ranges]
    for scan, die_range in zip(scans, ranges):
        assert scan.die_range == die_range
        assert len(scan.die_means) == die_range[1] - die_range[0]
    return {
        name: np.concatenate([getattr(scan, name) for scan in scans])
        for name in (*_PLANES, "die_quality")
    }


def _interrupted_then_resumed(make, technology, total, after, chunk_dies):
    """Ctrl-C at the ``after``-th ``wafer.die_done``, then resume.

    A chunk's dies are marked done as one segment after their
    ``wafer.die_done`` events, so the checkpoint holds every chunk
    before the interrupted one, and none of that chunk's dies.
    """
    with tempfile.TemporaryDirectory() as root:
        ledger = RunLedger(root)
        interrupt = Fault("wafer.die_done", error=KeyboardInterrupt(),
                          after=after, times=1)
        with pytest.raises(KeyboardInterrupt):
            make().measure_dies((0, total), ScanConfig(
                technology=technology, checkpoint=Checkpointer(ledger),
                faults=FaultPlan([interrupt]),
            ))
        (state,) = list_checkpoints(ledger)
        assert state.kind == "shard"
        assert sorted(state.completed) == list(
            range(after // chunk_dies * chunk_dies)
        )
        resume = Checkpointer(ledger, resume=state.run_id)
        scan = make().measure_dies(
            (0, total), ScanConfig(technology=technology, checkpoint=resume)
        )
        resume.finish()
        assert list_checkpoints(ledger) == []
    return scan


def _armed_plan(make, technology, total):
    """A fault plan armed at a scan site (it never fires) leaves every
    die in the stacked chunks: not one array scan runs."""
    never = Fault("scan.macro_done", error=RuntimeError("unreachable"),
                  probability=0.0)
    metrics = MetricsRegistry()
    scan = make().measure_dies((0, total), ScanConfig(
        technology=technology, faults=FaultPlan([never]),
        metrics=metrics,
    ))
    assert metrics.counter("scan.runs").value == 0
    return scan


def _check_every_path(make, data):
    """Every path's die planes against the reference walk; returns it."""
    model = make()
    technology = model.technology
    reference = _reference(model)
    total = len(reference["die_means"])
    chunk_dies = repro.wafer._CHUNK_CELLS // (model.die_rows * model.die_cols)
    assert total > chunk_dies

    report = make().measure_wafer()
    wafer = {
        "die_means": [die.mean_capacitance for die in report.dies],
        "die_sigmas": [die.sigma_capacitance for die in report.dies],
    }
    cuts = data.draw(st.lists(
        st.integers(min_value=1, max_value=total - 1), unique=True, max_size=5,
    ), label="cuts")
    bounds = [0, *sorted(cuts), total]
    after = data.draw(st.integers(0, total - 1), label="interrupt_at")
    paths = {
        "partitioned": _partitioned(make, list(zip(bounds[:-1], bounds[1:]))),
        "interrupted then resumed": vars(
            _interrupted_then_resumed(make, technology, total, after, chunk_dies)
        ),
        "armed fault plan": vars(_armed_plan(make, technology, total)),
    }
    for plane, values in wafer.items():
        np.testing.assert_array_equal(
            values, reference[plane],
            err_msg=f"{plane} differs on the measure_wafer path",
        )
    for name, planes in paths.items():
        for plane in _PLANES:
            np.testing.assert_array_equal(
                planes[plane], reference[plane],
                err_msg=f"{plane} differs on the {name} path",
            )
        assert (planes["die_quality"] == int(DieQuality.GOOD)).all(), name
    return reference


@given(
    technology=st.sampled_from(["edram", "fecap", "1t"]),
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
@settings(max_examples=10, deadline=None, phases=UNSHRUNK)
def test_every_wafer_path_lands_the_same_die_planes(
    technology, geometry, seed, data
):
    _check_every_path(lambda: _model(technology, geometry, seed), data)


@given(seed=st.integers(min_value=0, max_value=2**16), data=st.data())
@settings(max_examples=2, deadline=None, phases=UNSHRUNK)
def test_dies_of_more_than_128_cells_land_the_same_die_planes(seed, data):
    """A 32x16 die's 512-cell row is past numpy's 128-element pairwise
    block, so its per-die sums take the recursive split."""
    _check_every_path(lambda: _model("edram", (32, 16, 8, 2), seed), data)


@given(
    technology=st.sampled_from(["edram", "fecap", "1t"]),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
@settings(max_examples=4, deadline=None, phases=UNSHRUNK)
def test_wide_spread_wafer_mixes_full_and_masked_dies(technology, seed, data):
    """A deep radial drop and wide cell mismatch push edge dies' cells
    out of range while inner dies keep every cell, so chunks hold dies
    of both reductions: the full-row one and the masked 1-D one."""
    nominal = get_technology(technology).base_card().cell_capacitance
    geometry = (16, 8, 8, 2)

    def make():
        return _model(technology, geometry, seed,
                      radial_drop=WIDE_DROP[technology] * nominal,
                      cell_sigma=nominal / 10)

    reference = _check_every_path(make, data)
    codes = reference["die_codes"].reshape(len(reference["die_codes"]), -1)
    full = ((codes != 0) & (codes != 20)).all(axis=1)
    chunk_dies = repro.wafer._CHUNK_CELLS // (geometry[0] * geometry[1])
    assert any(
        0 < full[k : k + chunk_dies].sum() < len(full[k : k + chunk_dies])
        for k in range(0, len(full), chunk_dies)
    )
