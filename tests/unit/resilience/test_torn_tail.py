"""Torn-tail drill: a kill inside an append tears only the last record.

Both append-only files follow one rule: a checkpoint (a header, then one
segment per persist) and the run ledger's ``manifest.jsonl`` (one line
per run).  A torn last record is ignored on replay and cut by the next
append.  The drill cuts the last record at a spread of byte offsets and
checks four things.  The readers neither raise nor replay the torn
record.  The next append cuts it.  A resumed scan lands the clean
planes.  Ledger ids continue from the last whole line.
"""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.edram.array import EDRAMArray
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.obs.ledger import RunLedger, RunManifest
from repro.resilience import Checkpointer, Fault, FaultPlan, list_checkpoints
from repro.resilience.planes import read_container

_PLANES = ("codes", "quality", "tiers", "vgs")

#: Where the last record is cut.  The container planes go in sorted name
#: order, each as one ``.npy`` record: cut inside its header and inside
#: its data.
CHECKPOINT_CUTS = (
    "inside-json", "at-newline", "after-newline",
    *(f"npy-{plane}-{part}" for plane in _PLANES for part in ("header", "data")),
    "last-byte-minus-one",
)
LEDGER_CUTS = ("first-byte", "inside-json", "before-brace", "at-newline")


def _scan(config=None):
    array = EDRAMArray(16, 8, macro_rows=4, macro_cols=4)
    return ArrayScanner(array, None).scan(config or ScanConfig())


def _segments(fh):
    """``(start, header)`` of each segment left in ``fh`` after its
    checkpoint header, reading to the end."""
    read_container(fh, "checkpoint", "checkpoint")
    found = []
    while fh.tell() < len(fh.getvalue()):
        start = fh.tell()
        header, _ = read_container(fh, "segment", "checkpoint")
        found.append((start, header))
    return found


def _checkpoint_cut(data, cut):
    """The byte offset ``cut`` names inside the last segment of ``data``."""
    fh = io.BytesIO(data)
    start, _ = _segments(fh)[-1]
    fh.seek(start)
    newline = start + len(fh.readline()) - 1
    cuts = {
        "inside-json": (start + newline) // 2,
        "at-newline": newline,
        "after-newline": newline + 1,
        "last-byte-minus-one": len(data) - 1,
    }
    for plane in _PLANES:
        record = fh.tell()
        np.lib.format.read_array(fh, allow_pickle=False)
        cuts[f"npy-{plane}-header"] = record + 20
        cuts[f"npy-{plane}-data"] = fh.tell() - 1
    assert fh.tell() == len(data)
    return cuts[cut]


@pytest.fixture(scope="module")
def interrupted(tmp_path_factory):
    """A checkpoint a scan left when interrupted in its third slab (two
    segments persisted), and the clean planes."""
    ledger = RunLedger(tmp_path_factory.mktemp("interrupted"))
    interrupt = Fault("scan.macro_done", error=KeyboardInterrupt(), after=4)
    with pytest.raises(KeyboardInterrupt):
        _scan(ScanConfig(checkpoint=Checkpointer(ledger),
                         faults=FaultPlan([interrupt])))
    (path,) = ledger.checkpoint_files()
    return path.name, path.read_bytes(), _scan()


@pytest.mark.parametrize("cut", CHECKPOINT_CUTS)
def test_torn_last_segment_is_ignored_then_cut(interrupted, cut, tmp_path, capsys):
    name, data, clean = interrupted
    offset = _checkpoint_cut(data, cut)
    _, (torn_at, torn) = _segments(io.BytesIO(data))
    ledger = RunLedger(tmp_path)
    ledger.checkpoint_dir.mkdir(parents=True)
    path = ledger.checkpoint_dir / name
    path.write_bytes(data[:offset])

    # The readers neither raise nor replay the torn segment.
    (state,) = list_checkpoints(ledger)
    assert state.completed == [0, 1]
    assert not state.arrays["codes"][4:].any()
    assert main(["runs", "checkpoints", "--dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(f"{state.run_id}  scan   2/8 ")

    # The next append cuts it: the file is whole records again.
    resumed = Checkpointer(ledger, resume=state.run_id)
    blanks = {plane: np.zeros_like(a) for plane, a in state.arrays.items()}
    resumed.start(state.kind, state.fingerprint, blanks, total=state.total)
    resumed.mark_done(*torn["units"], rows=torn["rows"])
    appended = path.read_bytes()
    assert appended[:torn_at] == data[:torn_at]
    assert [h["units"] for _, h in _segments(io.BytesIO(appended))] == [
        [0, 1], torn["units"],
    ]

    # A scan resumed from the torn file lands the clean planes.
    path.write_bytes(data[:offset])
    result = _scan(ScanConfig(checkpoint=Checkpointer(ledger, resume=state.run_id)))
    for plane in _PLANES:
        np.testing.assert_array_equal(getattr(result, plane), getattr(clean, plane))
    assert list_checkpoints(ledger) == []


def _ledger_cut(line_start, data, cut):
    end = len(data) - 1  # the last line's newline
    return {
        "first-byte": line_start + 1,
        "inside-json": (line_start + end) // 2,
        "before-brace": end - 1,
        "at-newline": end,
    }[cut]


@pytest.mark.parametrize("cut", LEDGER_CUTS)
def test_torn_last_ledger_line_is_ignored_then_cut(cut, tmp_path):
    ledger = RunLedger(tmp_path)
    for _ in range(3):
        ledger.record(RunManifest(kind="scan"))
    data = ledger.manifest_path.read_bytes()
    line_start = data.rindex(b"\n", 0, len(data) - 1) + 1
    ledger.manifest_path.write_bytes(data[:_ledger_cut(line_start, data, cut)])

    # The readers neither raise nor count the torn line.
    torn = RunLedger(tmp_path)
    assert [m.run_id for m in torn.runs()] == ["r0001", "r0002"]
    with torn.locked():
        assert torn.next_run_id() == "r0003"

    # The next append cuts it, and ids continue from the last whole line.
    assert torn.record(RunManifest(kind="scan")).run_id == "r0003"
    appended = ledger.manifest_path.read_bytes()
    assert appended[:line_start] == data[:line_start]
    lines = appended.decode("utf-8").splitlines(keepends=True)
    assert [json.loads(line)["run_id"] for line in lines] == ["r0001", "r0002", "r0003"]
    assert all(line.endswith("\n") for line in lines)
    with torn.locked():
        assert torn.next_run_id() == "r0004"
