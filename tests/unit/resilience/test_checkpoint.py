"""Checkpointer lifecycle, resume validation, and file robustness."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.measure.config import ScanConfig
from repro.obs.ledger import RunLedger
from repro.resilience.checkpoint import (
    Checkpointer,
    list_checkpoints,
    load_checkpoint,
    resume_fingerprint,
)


def _blanks():
    return {"codes": np.zeros((4, 4), dtype=int), "vgs": np.zeros((4, 4))}


def _start(ck, **kwargs):
    return ck.start("scan", {"rows": 4}, _blanks(), total=4, **kwargs)


def test_fresh_start_reserves_run_id_and_writes_file(tmp_path):
    ck = Checkpointer(tmp_path)
    state = _start(ck)
    assert state.run_id == "r0001"
    assert ck.path.exists()
    # The reservation is visible to the ledger's id allocator: a run
    # recorded while the checkpoint exists gets the *next* id.
    ledger = RunLedger(tmp_path)
    with ledger.locked():
        assert ledger.next_run_id() == "r0002"


def test_mark_done_persists_planes_and_completion_order(tmp_path):
    ck = Checkpointer(tmp_path)
    state = _start(ck)
    state.arrays["codes"][0, :] = 7
    ck.mark_done(0)
    state.arrays["codes"][2, :] = 9
    ck.mark_done(2)
    loaded = load_checkpoint(ck.path)
    assert loaded.completed == [0, 2]
    assert loaded.remaining == 2
    assert loaded.is_done(2) and not loaded.is_done(1)
    np.testing.assert_array_equal(loaded.arrays["codes"][0], 7)
    np.testing.assert_array_equal(loaded.arrays["codes"][2], 9)


def test_finish_deletes_file_but_keeps_run_id_readable(tmp_path):
    ck = Checkpointer(tmp_path)
    _start(ck)
    assert ck.finish() == "r0001"
    assert not ck.path.exists()
    assert ck.run_id == "r0001"  # still known for manifest recording


def test_reused_checkpointer_forgets_previous_runs_indices(tmp_path):
    # finish() then start() on the same instance: the second run must
    # record indices the first run also completed.
    ck = Checkpointer(tmp_path)
    _start(ck)
    ck.mark_done(0)
    ck.mark_done(1)
    ck.finish()
    state = _start(ck)
    assert state.completed == []
    ck.mark_done(1)
    assert state.completed == [1]
    assert load_checkpoint(ck.path).completed == [1]


def test_resume_reloads_partial_state(tmp_path):
    ck = Checkpointer(tmp_path)
    state = _start(ck, meta={"seed": 42})
    state.arrays["vgs"][1, :] = 0.5
    ck.mark_done(1)

    resumed = Checkpointer(tmp_path, resume="r0001")
    state2 = _start(resumed)
    assert resumed.resuming
    assert state2.run_id == "r0001"
    assert state2.completed == [1]
    assert state2.meta == {"seed": 42}  # stored meta wins over base_meta
    np.testing.assert_array_equal(state2.arrays["vgs"][1], 0.5)


def test_resume_unknown_id_names_known_checkpoints(tmp_path):
    _start(Checkpointer(tmp_path))
    ck = Checkpointer(tmp_path, resume="r0099")
    with pytest.raises(CheckpointError, match=r"no checkpoint 'r0099'.*r0001"):
        _start(ck)


def test_resume_refuses_kind_mismatch(tmp_path):
    _start(Checkpointer(tmp_path))
    ck = Checkpointer(tmp_path, resume="r0001")
    with pytest.raises(CheckpointError, match="cannot resume as 'wafer'"):
        ck.start("wafer", {"rows": 4}, _blanks(), total=4)


def test_resume_refuses_fingerprint_mismatch(tmp_path):
    _start(Checkpointer(tmp_path))
    ck = Checkpointer(tmp_path, resume="r0001")
    with pytest.raises(CheckpointError, match="refusing to mix results"):
        ck.start("scan", {"rows": 8}, _blanks(), total=4)


def test_resume_refuses_total_and_shape_mismatch(tmp_path):
    _start(Checkpointer(tmp_path))
    with pytest.raises(CheckpointError, match="covers 4 units"):
        Checkpointer(tmp_path, resume="r0001").start(
            "scan", {"rows": 4}, _blanks(), total=9
        )
    wrong = {"codes": np.zeros((2, 2), dtype=int), "vgs": np.zeros((2, 2))}
    with pytest.raises(CheckpointError, match="different array geometry"):
        Checkpointer(tmp_path, resume="r0001").start(
            "scan", {"rows": 4}, wrong, total=4
        )


def test_meta_array_name_is_reserved(tmp_path):
    ck = Checkpointer(tmp_path)
    with pytest.raises(CheckpointError, match="reserved"):
        ck.start("scan", {}, {"meta": np.zeros(1)}, total=1)


def test_unstarted_checkpointer_refuses(tmp_path):
    ck = Checkpointer(tmp_path)
    with pytest.raises(CheckpointError, match="not started"):
        _ = ck.run_id
    with pytest.raises(CheckpointError, match="not started"):
        ck.mark_done(0)


def test_corrupted_file_raises_checkpoint_error(tmp_path):
    ck = Checkpointer(tmp_path)
    _start(ck)
    ck.path.write_bytes(b"this is not an npz")
    with pytest.raises(CheckpointError, match="unreadable checkpoint"):
        load_checkpoint(ck.path)


def test_list_checkpoints_orders_by_run_id(tmp_path):
    _start(Checkpointer(tmp_path))
    _start(Checkpointer(tmp_path))
    ids = [c.run_id for c in list_checkpoints(RunLedger(tmp_path))]
    assert ids == ["r0001", "r0002"]
    assert list_checkpoints(RunLedger(tmp_path / "empty")) == []


def test_resume_fingerprint_excludes_jobs():
    # jobs changes wall-clock, never planes; a checkpoint written at
    # jobs=8 must resume on a single-core machine.
    assert resume_fingerprint(ScanConfig(jobs=1)) == resume_fingerprint(
        ScanConfig(jobs=8)
    )


def test_torn_tmp_file_is_not_a_run_and_is_cleaned_up(tmp_path, capsys):
    # A kill inside a save leaves a truncated rNNNN.tmp.npz beside the
    # last good rNNNN.npz; it is neither listed nor counted as a run id,
    # and resuming + finishing the run removes it with the checkpoint.
    from repro.cli import main

    ck = Checkpointer(tmp_path)
    _start(ck)
    ck.mark_done(0)
    good = ck.path.read_bytes()
    torn = ck.path.with_name("r0001.tmp.npz")
    torn.write_bytes(good[: len(good) // 2])

    ledger = RunLedger(tmp_path)
    assert [c.run_id for c in list_checkpoints(ledger)] == ["r0001"]
    with ledger.locked():
        assert ledger.next_run_id() == "r0002"
    assert main(["runs", "checkpoints", "--dir", str(tmp_path)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("r0001 ")

    resumed = Checkpointer(tmp_path, resume="r0001")
    state = _start(resumed)
    assert state.completed == [0]
    resumed.mark_done(1, 2, 3)
    assert load_checkpoint(resumed.path).completed == [0, 1, 2, 3]
    resumed.finish()
    assert list(ledger.checkpoint_dir.iterdir()) == []
