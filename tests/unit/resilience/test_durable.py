"""durable_write: tmp, fsync, fault point, rename, directory fsync."""

import os
import stat

import numpy as np
import pytest

from repro.obs.ledger import RunLedger
from repro.resilience import Fault, FaultPlan, durable, inject
from repro.resilience.checkpoint import Checkpointer, list_checkpoints
from repro.resilience.durable import durable_write


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
    ck = Checkpointer(tmp_path)
    ck.start("scan", {"k": 1}, {"plane": np.zeros(4)}, total=4)
    # A kill inside the first journal segment's write; mark_done writes
    # segments, not the manifest, so the next one to replace is this.
    torn = durable.tmp_path(ck.journal / "000001.seg")
    torn.write_bytes(b"PK\x03\x04 torn")

    ledger = RunLedger(tmp_path)
    assert ledger.checkpoint_files() == [ck.path]
    assert [c.run_id for c in list_checkpoints(ledger)] == ["r0001"]
    with ledger.locked():
        assert ledger.next_run_id() == "r0002"

    ck.mark_done(0)
    assert not torn.exists()
    assert list_checkpoints(ledger)[0].completed == [0]


def test_fsyncs_the_file_and_its_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def spying_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        return real_fsync(fd)

    monkeypatch.setattr("repro.resilience.durable.os.fsync", spying_fsync)
    durable_write(tmp_path / "a.bin", _bytes(b"x"))
    assert synced == [False, True]
