"""Checkpointer lifecycle, resume validation, and file robustness."""

import io
import json

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.measure.config import ScanConfig
from repro.obs.ledger import RunLedger
from repro.resilience.checkpoint import (
    Checkpointer,
    list_checkpoints,
    load_checkpoint,
    read_run,
)
from repro.resilience.durable import durable_write
from repro.resilience.planes import read_container, write_planes


def _blanks():
    return {"codes": np.zeros((4, 4), dtype=int), "vgs": np.zeros((4, 4))}


def _start(ck, **kwargs):
    return ck.start("scan", {"rows": 4}, _blanks(), total=4, **kwargs)


def _segments(path):
    """The segments appended after a checkpoint file's header."""
    with open(path, "rb") as fh:
        read_container(fh, "checkpoint", path)
        segments = []
        while fh.peek(1):
            segments.append(read_container(fh, "segment", path))
    return segments


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
    np.testing.assert_array_equal(loaded.arrays["codes"][0], 7)
    np.testing.assert_array_equal(loaded.arrays["codes"][2], 9)


def test_only_a_finished_run_is_kept_and_read_as_a_run_file(tmp_path):
    ck = Checkpointer(tmp_path, min_save_seconds=3600.0)
    state = _start(ck)
    ck.mark_done(0)
    with pytest.raises(CheckpointError, match="r0001 is unfinished"):
        ck.keep(tmp_path / "kept.npz")
    ck.save()
    with pytest.raises(CheckpointError, match="with 1 of 4 units complete"):
        read_run(ck.path, "scan")
    state.arrays["codes"][1:] = 5
    ck.mark_done(1, 2, 3)  # still pending: keep flushes them
    kept = ck.keep(tmp_path / "kept.npz")
    assert kept.stat().st_ino == ck.path.stat().st_ino
    run = read_run(kept, "scan")
    assert sorted(run.completed) == [0, 1, 2, 3]
    np.testing.assert_array_equal(run.arrays["codes"], state.arrays["codes"])
    with pytest.raises(CheckpointError, match="not a finished 'shard' run"):
        read_run(kept, "shard")
    ck.finish()
    assert not ck.path.exists() and read_run(kept, "scan").remaining == 0


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


def test_a_plane_may_be_named_meta(tmp_path):
    # Planes and header fields live apart in the plane container, so no
    # plane name is reserved.
    ck = Checkpointer(tmp_path)
    state = ck.start("scan", {}, {"meta": np.zeros(2)}, total=2)
    state.arrays["meta"][1] = 0.5
    ck.mark_done(1)
    loaded = load_checkpoint(ck.path)
    assert loaded.meta == {}
    np.testing.assert_array_equal(loaded.arrays["meta"], [0.0, 0.5])


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


def test_config_fingerprint_is_the_stored_checkpoint_key():
    # Checkpoints store this dict and resume compares against it, so it
    # must keep the exact keys and values older checkpoints were
    # written with, or their runs would refuse to resume.
    from repro.obs.ledger import config_fingerprint

    assert config_fingerprint(ScanConfig()) == {
        "preflight": False,
        "force_engine": False,
        "tier": "charge",
        "technology": "edram",
    }


def test_torn_tmp_file_is_not_a_run_and_is_cleaned_up(tmp_path, capsys):
    # A kill inside a save leaves a truncated rNNNN.npz.tmp beside the
    # last good rNNNN.npz; it is neither listed nor counted as a run id,
    # and resuming + finishing the run removes it with the checkpoint.
    from repro.cli import main

    ck = Checkpointer(tmp_path)
    _start(ck)
    ck.mark_done(0)
    good = ck.path.read_bytes()
    torn = ck.path.with_name("r0001.npz.tmp")
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


def test_segments_hold_only_the_marked_rows_and_replay_in_order(tmp_path):
    ck = Checkpointer(tmp_path)
    state = _start(ck)
    state.arrays["codes"][0:2] = 5
    ck.mark_done(0, rows=slice(0, 2))
    state.arrays["codes"][1] = 6  # a later segment rewrites row 1
    state.arrays["codes"][3] = 8
    ck.mark_done(1, rows=[3, 1])
    assert [p.name for p in ck.path.parent.iterdir()] == ["r0001.npz"]
    segments = _segments(ck.path)
    assert [header["rows"] for header, _ in segments] == [[0, 1], [1, 3]]
    assert [blocks["codes"].shape for _, blocks in segments] == [(2, 4)] * 2
    loaded = load_checkpoint(ck.path)
    assert loaded.completed == [0, 1]
    np.testing.assert_array_equal(
        loaded.arrays["codes"][:, 0], [5, 6, 0, 8]
    )


def test_replay_restores_every_dtype_bit_exact(tmp_path):
    # Integer blocks travel narrowed and unicode as code points; replay
    # must widen both back to the caller's exact values.
    blanks = {
        "ints": np.zeros((3, 2), dtype=np.int64),
        "tiers": np.full((3, 2), "c", dtype="<U1"),
        "quality": np.zeros((3, 2), dtype=np.uint8),
        "vgs": np.zeros((3, 2)),
    }
    ck = Checkpointer(tmp_path)
    state = ck.start("scan", {}, blanks, total=3)
    state.arrays["ints"][:] = [[-3, 70000], [0, 1], [2**40, -(2**40)]]
    state.arrays["tiers"][1] = ["e", "é"]
    state.arrays["quality"][2] = [1, 2]
    state.arrays["vgs"][:] = np.linspace(0.1, 0.9, 6).reshape(3, 2)
    ck.mark_done(0, 1, 2)
    fresh = {name: np.zeros_like(plane) for name, plane in blanks.items()}
    resumed = Checkpointer(tmp_path, resume=state.run_id).start(
        "scan", {}, fresh, total=3
    )
    for name, plane in state.arrays.items():
        assert resumed.arrays[name].dtype == plane.dtype
        np.testing.assert_array_equal(resumed.arrays[name], plane)


def test_resume_refuses_dtype_mismatch(tmp_path):
    _start(Checkpointer(tmp_path))
    wrong = {"codes": np.zeros((4, 4), dtype=np.int32), "vgs": np.zeros((4, 4))}
    with pytest.raises(CheckpointError, match="'codes' has dtype int64"):
        Checkpointer(tmp_path, resume="r0001").start(
            "scan", {"rows": 4}, wrong, total=4
        )


def test_throttled_units_share_one_segment(tmp_path):
    ck = Checkpointer(tmp_path, min_save_seconds=3600.0)
    state = _start(ck)
    state.arrays["vgs"][2] = 0.25
    ck.mark_done(2)
    state.arrays["vgs"][0] = 0.75
    ck.mark_done(0)
    assert _segments(ck.path) == []
    ck.save()
    ((header, _),) = _segments(ck.path)
    assert header["units"] == [2, 0]
    loaded = load_checkpoint(ck.path)
    assert loaded.completed == [2, 0]
    np.testing.assert_array_equal(loaded.arrays["vgs"][:, 0], [0.75, 0, 0.25, 0])
    size = ck.path.stat().st_size
    ck.save()  # nothing pending: no empty segment
    assert ck.path.stat().st_size == size


def test_torn_last_segment_is_not_replayed_and_the_next_append_cuts_it(tmp_path):
    ck = Checkpointer(tmp_path)
    _start(ck)
    ck.mark_done(0)
    with open(ck.path, "ab") as fh:  # a kill inside the next append
        fh.write(b'{"format": 3, "kind": "segment", "units": [1]')
    assert load_checkpoint(ck.path).completed == [0]

    resumed = Checkpointer(tmp_path, resume="r0001")
    assert _start(resumed).completed == [0]
    resumed.mark_done(1)
    assert [h["units"] for h, _ in _segments(ck.path)] == [[0], [1]]
    resumed.finish()
    assert list(RunLedger(tmp_path).checkpoint_dir.iterdir()) == []


@pytest.mark.parametrize("blocks", [
    {"codes": np.zeros((1, 4), dtype=np.int32), "vgs": np.zeros((1, 4))},
    {"codes": np.zeros((1, 4), dtype=int)},
    {"codes": np.zeros((2, 4), dtype=int), "vgs": np.zeros((2, 4))},
], ids=["dtype", "planes", "shape"])
def test_whole_segment_that_does_not_fit_the_layout_is_refused(blocks, tmp_path):
    # Only a record that does not parse is a torn tail; one that parses
    # but does not fit the planes is a malformed checkpoint.
    ck = Checkpointer(tmp_path)
    _start(ck)
    ck.mark_done(0)
    record = io.BytesIO()
    write_planes(record, {"kind": "segment", "units": [1], "rows": [1]}, blocks)
    with open(ck.path, "ab") as fh:
        fh.write(record.getvalue())
    with pytest.raises(CheckpointError, match=r"segment at byte \d+ of .* holds"):
        load_checkpoint(ck.path)
    with pytest.raises(CheckpointError, match="expected"):
        _start(Checkpointer(tmp_path, resume="r0001"))


def test_torn_manifest_tmp_alone_is_no_run_and_finish_removes_it(tmp_path):
    # A kill inside start's manifest write: only rNNNN.npz.tmp exists.
    ledger = RunLedger(tmp_path)
    ledger.checkpoint_dir.mkdir(parents=True)
    torn = ledger.checkpoint_dir / "r0001.npz.tmp"
    torn.write_bytes(b"PK\x03\x04 torn")
    assert list_checkpoints(ledger) == []
    with ledger.locked():
        assert ledger.next_run_id() == "r0001"
    ck = Checkpointer(tmp_path)
    _start(ck)
    assert not torn.exists()  # the manifest write replaced it
    torn.write_bytes(b"PK\x03\x04 torn again")
    ck.finish()
    assert list(ledger.checkpoint_dir.iterdir()) == []


def _pre_change_manifest(ledger, run_id, fmt):
    """A manifest as formats 1 and 2 wrote it: a zip holding one JSON
    ``meta`` entry."""
    ledger.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    path = ledger.checkpoint_dir / f"{run_id}.npz"
    meta = {
        "format": fmt, "kind": "scan", "run_id": run_id,
        "fingerprint": {"rows": 4}, "total": 4, "completed": [0],
        "meta": {}, "created": "",
    }
    np.savez(path, meta=np.array(json.dumps(meta)))
    return path


def test_format_1_checkpoint_is_refused_naming_its_format(tmp_path):
    ledger = RunLedger(tmp_path)
    for fmt in (1, 2):
        old = _pre_change_manifest(ledger, "r0001", fmt)
        with pytest.raises(CheckpointError, match=r"a pre-change \.npz"):
            load_checkpoint(old)
        with pytest.raises(CheckpointError, match=r"a pre-change \.npz"):
            _start(Checkpointer(tmp_path, resume="r0001"))


def _journal_checkpoint(ledger, run_id):
    """A checkpoint as a manifest plus a ``<run_id>.journal/`` directory
    of segment files wrote it: the header has no ``segments`` field."""
    ledger.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    manifest = ledger.checkpoint_dir / f"{run_id}.npz"
    header = {
        "kind": "checkpoint", "run_kind": "scan", "run_id": run_id,
        "fingerprint": {"rows": 4}, "total": 4, "meta": {}, "created": "",
        "layout": {"codes": {"shape": [4, 4], "dtype": "<i8"}},
    }
    durable_write(manifest, lambda fh: write_planes(fh, header, {}))
    journal = manifest.with_suffix(".journal")
    journal.mkdir()
    segment = {"kind": "segment", "units": [0], "rows": [0]}
    durable_write(journal / "000001.seg", lambda fh: write_planes(
        fh, segment, {"codes": np.full((1, 4), 7)}
    ))
    return manifest, journal


def test_pre_change_checkpoint_keeps_its_run_id_and_journal(tmp_path):
    # An unfinished run from before the one-file checkpoint is refused
    # by name, still holds its id, and its journal is left be.
    ledger = RunLedger(tmp_path)
    old, journal = _journal_checkpoint(ledger, "r0001")
    segment = (journal / "000001.seg").read_bytes()
    assert ledger.checkpoint_files() == [old]
    refusal = r"pre-change checkpoint \(a manifest plus a r0001\.journal/"
    with pytest.raises(CheckpointError, match=refusal):
        load_checkpoint(old)
    with pytest.raises(CheckpointError, match=refusal):
        _start(Checkpointer(tmp_path, resume="r0001"))
    ck = Checkpointer(tmp_path)
    assert _start(ck).run_id == "r0002"
    ck.mark_done(0)
    ck.finish()
    assert sorted(p.name for p in ledger.checkpoint_dir.iterdir()) == [
        "r0001.journal", "r0001.npz",
    ]
    assert [p.name for p in journal.iterdir()] == ["000001.seg"]
    assert (journal / "000001.seg").read_bytes() == segment


def test_pre_change_orphan_journal_is_no_run_and_is_ignored(tmp_path):
    # A crash between the old finish()'s two removals left a journal
    # without its manifest.  Its id is free, and the run that takes it
    # neither replays the stale segment nor is mistaken for the old run.
    ledger = RunLedger(tmp_path)
    manifest, orphan = _journal_checkpoint(ledger, "r0001")
    manifest.unlink()
    assert ledger.checkpoint_files() == []
    assert list_checkpoints(ledger) == []

    ck = Checkpointer(tmp_path)
    assert _start(ck).run_id == "r0001"
    assert load_checkpoint(ck.path).completed == []
    ck.mark_done(1)
    assert _start(Checkpointer(tmp_path, resume="r0001")).completed == [1]
    ck.finish()
    assert sorted(p.name for p in ledger.checkpoint_dir.iterdir()) == [
        "r0001.journal",
    ]
