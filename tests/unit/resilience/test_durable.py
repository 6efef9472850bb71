"""durable_write and durable_append: the two ways bytes reach disk."""

import os
import stat

import numpy as np
import pytest

from repro.obs.ledger import RunLedger
from repro.resilience import Fault, FaultPlan, durable, inject
from repro.resilience.checkpoint import Checkpointer, list_checkpoints
from repro.resilience.durable import durable_append, durable_write


def _bytes(payload):
    return lambda fh: fh.write(payload)


def test_write_replaces_the_target(tmp_path):
    target = tmp_path / "state.json"
    target.write_bytes(b"old")
    assert durable_write(target, _bytes(b"new")) == target
    assert target.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


def test_writer_exception_keeps_old_bytes_and_no_tmp(tmp_path):
    target = tmp_path / "state.json"
    target.write_bytes(b"old")

    def half_then_fail(fh):
        fh.write(b"ne")
        raise RuntimeError("writer died")

    with pytest.raises(RuntimeError, match="writer died"):
        durable_write(target, half_then_fail)
    assert target.read_bytes() == b"old"
    assert not tmp_path.joinpath("state.json.tmp").exists()


def test_fault_point_exception_keeps_old_bytes_and_no_tmp(tmp_path):
    target = tmp_path / "leases" / "s00.json"
    target.parent.mkdir()
    target.write_bytes(b"old")
    plan = FaultPlan([Fault(
        "durable.write", error=KeyboardInterrupt(),
        match={"target": "s00.json", "parent": "leases"},
    )])
    with inject(plan), pytest.raises(KeyboardInterrupt):
        durable_write(target, _bytes(b"new"))
    assert plan.firings == [
        ("durable.write", {"target": "s00.json", "parent": "leases"}, "raise")
    ]
    assert target.read_bytes() == b"old"
    assert list(target.parent.iterdir()) == [target]


def test_torn_tmp_is_no_checkpoint_or_run_id_and_next_write_replaces_it(tmp_path):
    live = Checkpointer(tmp_path)
    live.start("scan", {"k": 1}, {"plane": np.zeros(4)}, total=4)
    live.mark_done(0)
    # A kill inside the next run's header write: its tmp sits beside the
    # live checkpoint file.
    torn = durable.tmp_path(live.path.with_name("r0002.npz"))
    torn.write_bytes(b"PK\x03\x04 torn")

    ledger = RunLedger(tmp_path)
    assert ledger.checkpoint_files() == [live.path]
    assert [c.run_id for c in list_checkpoints(ledger)] == ["r0001"]
    with ledger.locked():
        assert ledger.next_run_id() == "r0002"

    nxt = Checkpointer(tmp_path)
    nxt.start("scan", {"k": 1}, {"plane": np.zeros(4)}, total=4)
    assert nxt.path == torn.with_suffix("")
    assert not torn.exists()
    assert [c.completed for c in list_checkpoints(ledger)] == [[0], []]


def test_fsyncs_the_file_and_its_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def spying_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        return real_fsync(fd)

    monkeypatch.setattr("repro.resilience.durable.os.fsync", spying_fsync)
    durable_write(tmp_path / "a.bin", _bytes(b"x"))
    assert synced == [False, True]


def test_append_fsyncs_the_file_and_the_directory_only_on_create(
    tmp_path, monkeypatch
):
    synced = []
    real_fsync = os.fsync

    def spying_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        return real_fsync(fd)

    monkeypatch.setattr("repro.resilience.durable.os.fsync", spying_fsync)
    target = tmp_path / "log.jsonl"
    durable_append(target, b"a\n")
    assert synced == [False, True]
    synced.clear()
    durable_append(target, b"b\n")
    assert synced == [False]
    assert target.read_bytes() == b"a\nb\n"


def test_append_keep_cuts_a_torn_tail_before_writing(tmp_path):
    target = tmp_path / "log.jsonl"
    target.write_bytes(b"whole\ntor")
    durable_append(target, b"next\n", keep=6)
    assert target.read_bytes() == b"whole\nnext\n"
    durable_append(target, b"last\n", keep=11)  # nothing past keep
    assert target.read_bytes() == b"whole\nnext\nlast\n"


def test_append_fault_point_fires_before_any_byte(tmp_path):
    target = tmp_path / "checkpoints" / "r0001.npz"
    target.parent.mkdir()
    target.write_bytes(b"head")
    plan = FaultPlan([Fault("durable.append", error=KeyboardInterrupt())])
    with inject(plan), pytest.raises(KeyboardInterrupt):
        durable_append(target, b"segment", keep=2)
    assert plan.firings == [(
        "durable.append", {"target": "r0001.npz", "parent": "checkpoints"},
        "raise",
    )]
    assert target.read_bytes() == b"head"
