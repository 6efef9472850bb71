"""Chaos drills: the resilience contract, end to end.

A scan survives a cell whose solver fails *and* a mid-run interrupt,
resumes from its checkpoint, and still produces planes bit-exact with
an uninterrupted run — with the affected cells flagged, never missing.
Worker kills and respawns are drilled on the wafer fleet
(``tests/integration/test_fleet_chaos.py``), the only place processes
are supervised.
"""

import numpy as np
import pytest

from repro.edram.array import EDRAMArray
from repro.errors import SingularCircuitError
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.obs.ledger import RunLedger
from repro.resilience import (
    CellQuality,
    Checkpointer,
    Fault,
    FaultPlan,
    list_checkpoints,
)

#: 8x8 array in 4 macro tiles of 4x4 — small enough for engine tier.
GEOMETRY = dict(macro_rows=4, macro_cols=4)

#: The solver-failure cell (global address, lives in macro 0).
SICK_CELL = {"row": 1, "col": 1}


def _array():
    return EDRAMArray(8, 8, **GEOMETRY)


def _cell_fault():
    return Fault(
        "sequencer.measure",
        error=SingularCircuitError("injected: plate shorted mid-measure"),
        match=SICK_CELL,
    )


def _interrupt(after=1):
    return Fault("scan.macro_done", error=KeyboardInterrupt(), after=after, times=1)


def test_chaos_scan_interrupt_resume_bit_exact(tmp_path):
    # Reference: uninterrupted run with only the sick cell.
    reference = ArrayScanner(_array(), None).scan(
        ScanConfig(force_engine=True, faults=FaultPlan([_cell_fault()]))
    )
    assert reference.quality[1, 1] == CellQuality.DEGRADED

    ledger = RunLedger(tmp_path)
    # Interrupt at macro 2, in the second slab: an engine scan persists
    # once per macro row, so the first row (macros 0 and 1) is durable.
    chaos_config = ScanConfig(
        force_engine=True,
        faults=FaultPlan([_cell_fault(), _interrupt(after=2)]),
        checkpoint=Checkpointer(ledger),
        ledger=ledger,
    )
    with pytest.raises(KeyboardInterrupt):
        ArrayScanner(_array(), None).scan(chaos_config)

    # The interrupted run left a checkpoint with partial progress and
    # recorded nothing in the manifest.
    states = list_checkpoints(ledger)
    assert [s.run_id for s in states] == ["r0001"]
    assert states[0].completed == [0, 1]
    assert ledger.runs() == []

    resume_config = ScanConfig(
        force_engine=True,
        faults=FaultPlan([_cell_fault()]),
        checkpoint=Checkpointer(ledger, resume="r0001"),
        ledger=ledger,
    )
    result = ArrayScanner(_array(), None).scan(resume_config)

    # Bit-exact planes: resume recomputed exactly the missing macros.
    np.testing.assert_array_equal(result.codes, reference.codes)
    np.testing.assert_array_equal(result.vgs, reference.vgs)
    np.testing.assert_array_equal(result.tiers, reference.tiers)

    # The sick cell is flagged, not missing; nothing else is flagged.
    degraded = np.argwhere(result.quality == CellQuality.DEGRADED)
    assert degraded.tolist() == [[1, 1]]
    assert result.quality_counts()["failed"] == 0

    # Checkpoint consumed; manifest recorded under the reserved id with
    # the quality scalars the drift charts watch.
    assert list_checkpoints(ledger) == []
    runs = ledger.runs()
    assert [m.run_id for m in runs] == ["r0001"]
    assert runs[0].scalars["degraded_cells"] == 1.0
    assert runs[0].scalars["failed_cells"] == 0.0


def test_chaos_interrupt_resume_under_fecap_backend(tmp_path):
    # The resilience rungs are backend-agnostic: an interrupted FeCap
    # scan resumes bit-exactly.  Scans disturb FeCap state, so the
    # reference runs on an identically-seeded twin array rather than a
    # second pass over the chaos array.
    from repro.technologies import get

    backend = get("fecap")
    reference_array = backend.build_array(8, 8, seed=3, with_defects=True, **GEOMETRY)
    chaos_array = backend.build_array(8, 8, seed=3, with_defects=True, **GEOMETRY)
    structure = backend.design_structure(reference_array)

    reference = ArrayScanner(reference_array, structure).scan(
        ScanConfig(technology="fecap")
    )
    ledger = RunLedger(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        ArrayScanner(chaos_array, structure).scan(ScanConfig(
            technology="fecap",
            faults=FaultPlan([_interrupt()]),
            checkpoint=Checkpointer(ledger),
        ))
    chaos = ArrayScanner(chaos_array, structure).scan(ScanConfig(
        technology="fecap", checkpoint=Checkpointer(ledger, resume="r0001"),
    ))
    np.testing.assert_array_equal(chaos.codes, reference.codes)
    np.testing.assert_array_equal(chaos.vgs, reference.vgs)
    np.testing.assert_array_equal(chaos.quality, reference.quality)
    assert not (chaos.quality == CellQuality.FAILED).any()
    # Both twins took exactly one read of disturb — the interrupted
    # attempt never reached the post-scan physics.
    assert reference_array.reads == 1
    assert chaos_array.reads == 1
    np.testing.assert_array_equal(
        reference_array.polarization_view(), chaos_array.polarization_view()
    )


def test_whole_macro_solver_failure_is_flagged_failed():
    # When even the closed form fails for a macro, the tile is zeros +
    # FAILED — visible in the planes, excluded from statistics.
    plan = FaultPlan(
        [Fault(
            "scan.closed_form",
            error=SingularCircuitError("injected: macro calibration dead"),
            match={"macro": 3},
            times=None,
        )]
    )
    result = ArrayScanner(_array(), None).scan(ScanConfig(faults=plan))
    macro = _array().macro(3)
    tile = result.quality[macro.row_start:macro.row_stop,
                          macro.col_start:macro.col_stop]
    assert (tile == CellQuality.FAILED).all()
    assert (result.codes[macro.row_start:macro.row_stop,
                         macro.col_start:macro.col_stop] == 0).all()
    assert result.stats.failed_cells == tile.size


def test_wafer_interrupt_resume_bit_exact(tmp_path):
    import repro.wafer
    from repro.wafer import WaferModel

    # A d3 wafer is one die chunk; on the d13 one (137 dies of 16x8,
    # 64 per chunk) die 70 sits mid-way through the second chunk, so
    # the interrupt lands after that chunk's kernel pass and its first
    # six dies' events.  A landed chunk is marked done as one segment
    # after all its dies' events, so the checkpoint holds the chunks
    # before the interrupted one: none on d3, the first 64 dies on d13.
    assert repro.wafer._CHUNK_CELLS // (16 * 8) == 64
    for diameter, interrupted_at, persisted in ((3, 2, 0), (13, 70, 64)):
        reference = WaferModel(diameter_dies=diameter, seed=5).measure_wafer()

        ledger = RunLedger(tmp_path / f"d{diameter}")
        interrupt = FaultPlan([
            Fault("wafer.die_done", error=KeyboardInterrupt(),
                  after=interrupted_at, times=1)
        ])
        with pytest.raises(KeyboardInterrupt):
            WaferModel(diameter_dies=diameter, seed=5).measure_wafer(
                config=ScanConfig(checkpoint=Checkpointer(ledger), faults=interrupt)
            )
        states = list_checkpoints(ledger)
        assert [s.kind for s in states] == ["shard"]
        assert sorted(states[0].completed) == list(range(persisted))

        # Resume on a *fresh* model: the wafer RNG is fast-forwarded past
        # the checkpointed dies, so the remaining dies print identically.
        report = WaferModel(diameter_dies=diameter, seed=5).measure_wafer(
            config=ScanConfig(checkpoint=Checkpointer(ledger, resume="r0001"))
        )
        assert list_checkpoints(ledger) == []
        for die, ref in zip(report.dies, reference.dies):
            assert (die.x, die.y) == (ref.x, ref.y)
            assert die.mean_capacitance == ref.mean_capacitance
            assert die.sigma_capacitance == ref.sigma_capacitance


def test_wafer_refuses_a_pre_change_wafer_checkpoint(tmp_path):
    """A wafer checkpoint of kind ``"wafer"`` (means and sigmas only)
    predates the one die-range path: resuming it is refused by name,
    and the checkpoint stays on disk under its own run id."""
    from repro.errors import CheckpointError
    from repro.obs.ledger import config_fingerprint
    from repro.wafer import WaferModel

    model = WaferModel(diameter_dies=3, seed=5)
    total = len(model.sites())
    ledger = RunLedger(tmp_path)
    old = Checkpointer(ledger)
    old.start(
        "wafer", config_fingerprint(ScanConfig()),
        {"die_means": np.full(total, np.nan),
         "die_sigmas": np.full(total, np.nan)},
        total=total,
    )
    old.mark_done(0, rows=0)

    with pytest.raises(CheckpointError, match="'wafer' run.*'shard'"):
        model.measure_wafer(
            ScanConfig(checkpoint=Checkpointer(ledger, resume=old.run_id))
        )
    states = list_checkpoints(ledger)
    assert [(s.run_id, s.kind) for s in states] == [(old.run_id, "wafer")]
