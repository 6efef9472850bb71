"""The plane container: bit-exact round trips and named refusals."""

import io
import json

import numpy as np
import pytest

from repro.errors import CheckpointError, MeasurementError
from repro.io import load_scan
from repro.resilience.checkpoint import read_run
from repro.resilience.planes import FORMAT, read_planes, write_planes

#: Every kind of container the stack writes: whole files (abacus, lot)
#: and a run file's records (checkpoint header, segment).
KINDS = ("abacus", "checkpoint", "segment", "lot")


def _planes():
    payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)
    return {
        "vgs": np.array([[0.5, np.nan], [-0.0, np.inf]]),
        "nan_payload": payload_nan,
        "wide": np.array([-(2**62), 2**62, -1, 0], dtype=np.int64),
        "negative": np.array([[-3, 70000], [2**40, -(2**40)]], dtype=np.int64),
        "codes": np.arange(21, dtype=np.int64).reshape(3, 7),
        "u64": np.array([0, 2**64 - 1], dtype=np.uint64),
        "quality": np.array([[0, 1], [2, 0]], dtype=np.uint8),
        "tiers": np.array([["c", "e"], ["é", "c"]], dtype="<U1"),
        "flags": np.array([True, False]),
        "scalar": np.array(7, dtype=np.int64),
        "empty": np.zeros((0, 3)),
        "empty_tiers": np.zeros((0, 2), dtype="<U1"),
        "zero_rows": np.zeros((0, 16, 8), dtype=np.int64),
    }


def _write(path, header, planes):
    with open(path, "wb") as fh:
        write_planes(fh, header, planes)
    return path


def _record_bytes(plane):
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, plane)
    return len(buffer.getvalue())


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_round_trips_bit_exact(kind, tmp_path):
    planes = _planes()
    header = {"kind": kind, "run_id": "r0001", "rows": [0, 2], "meta": {"a": 1}}
    fields, loaded = read_planes(_write(tmp_path / "f", header, planes), kind)
    assert fields == header
    assert sorted(loaded) == sorted(planes)
    for name, plane in planes.items():
        assert loaded[name].dtype == plane.dtype, name
        assert loaded[name].shape == plane.shape, name
        assert loaded[name].tobytes() == plane.tobytes(), name


@pytest.mark.parametrize("kind", KINDS)
def test_a_header_without_planes_round_trips(kind, tmp_path):
    header = {"kind": kind, "layout": {"codes": {"shape": [4, 4]}}}
    assert read_planes(_write(tmp_path / "f", header, {}), kind) == (header, {})


def test_codes_and_tiers_are_stored_one_byte_a_cell(tmp_path):
    planes = {"codes": np.full((4, 4), 20, dtype=np.int64),
              "tiers": np.full((4, 4), "c", dtype="<U1")}
    path = _write(tmp_path / "f", {"kind": "segment"}, planes)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        stored = [np.lib.format.read_array(fh) for _ in header["planes"]]
    assert [block.dtype for block in stored] == [np.uint8, np.uint8]
    assert header["planes"]["tiers"] == {"dtype": "<U1", "shape": [4, 4]}


def test_equal_content_is_equal_bytes(tmp_path):
    # Callers' dict order must not leak into the file (the lot merge is
    # idempotent byte for byte).
    planes = _planes()
    a = _write(tmp_path / "a", {"kind": "lot", "x": 1, "y": 2}, planes)
    b = _write(tmp_path / "b", {"y": 2, "x": 1, "kind": "lot"},
               dict(reversed(list(planes.items()))))
    assert a.read_bytes() == b.read_bytes()


def test_wrong_kind_is_refused_naming_both(tmp_path):
    path = _write(tmp_path / "f", {"kind": "abacus"}, _planes())
    with pytest.raises(ValueError, match="holds a 'abacus', not a 'lot'"):
        read_planes(path, "lot")


def test_pre_change_npz_is_refused_as_a_zip(tmp_path):
    path = tmp_path / "old.npz"
    np.savez_compressed(path, codes=np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match=r"zip archive \(a pre-change \.npz\)"):
        read_planes(path, "lot")


def test_pre_change_scan_container_is_refused_naming_its_format(tmp_path):
    # A saved scan as the one-container format wrote it: now a scan is a
    # run file, and the old container is named, not misread.
    path = _write(tmp_path / "scan.npz", {"kind": "scan", "num_steps": 20},
                  {"codes": np.zeros((2, 2), dtype=int)})
    with pytest.raises(MeasurementError,
                       match="holds a 'scan', not a 'checkpoint'"):
        load_scan(path)


def test_pre_change_shard_result_is_refused_naming_its_format(tmp_path):
    path = _write(tmp_path / "s00.npz",
                  {"kind": "shard-result", "die_range": [0, 2]},
                  {"die_means": np.zeros(2)})
    with pytest.raises(CheckpointError,
                       match="holds a 'shard-result', not a 'checkpoint'"):
        read_run(path, "shard")


def test_pre_change_segment_is_refused_naming_its_format(tmp_path):
    path = tmp_path / "000001.seg"
    with open(path, "wb") as fh:
        fh.write(b'{"format": 2, "units": [0], "rows": [0], "planes": ["codes"]}\n')
        np.lib.format.write_array(fh, np.zeros((1, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match=f"format 2, not plane container format {FORMAT}"):
        read_planes(path, "segment")


@pytest.mark.parametrize("cut", ["mid-header", "header-only", "mid-record",
                                 "missing-record", "empty"])
def test_torn_file_is_refused(cut, tmp_path):
    path = _write(tmp_path / "f", {"kind": "segment"}, _planes())
    data = path.read_bytes()
    header_end = data.index(b"\n") + 1
    keep = {
        "mid-header": header_end // 2,
        "header-only": header_end,
        "mid-record": len(data) - 3,
        "missing-record": len(data) - _record_bytes(_planes()["zero_rows"]),
        "empty": 0,
    }[cut]
    path.write_bytes(data[:keep])
    with pytest.raises(ValueError, match="torn"):
        read_planes(path, "segment")


def test_trailing_bytes_are_refused(tmp_path):
    path = _write(tmp_path / "f", {"kind": "lot"}, {"a": np.zeros(2)})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="bytes after its last plane"):
        read_planes(path, "lot")


def test_record_disagreeing_with_its_header_is_refused(tmp_path):
    path = tmp_path / "f"
    spec = {"format": FORMAT, "kind": "lot", "planes": {
        "a": {"dtype": "<i8", "shape": [2]},
    }}
    for block, match in ((np.zeros(2), "stored as float64, header says int64"),
                         (np.zeros(3, dtype=np.uint8), r"shape \(3,\), header says \(2,\)")):
        with open(path, "wb") as fh:
            fh.write(json.dumps(spec).encode() + b"\n")
            np.lib.format.write_array(fh, block)
        with pytest.raises(ValueError, match=match):
            read_planes(path, "lot")


@pytest.mark.parametrize("header", [{}, {"kind": "lot", "format": 9},
                                    {"kind": "lot", "planes": []}])
def test_header_must_name_its_kind_and_not_the_containers_keys(header, tmp_path):
    with pytest.raises(ValueError, match="names its 'kind'"):
        _write(tmp_path / "f", header, {})
