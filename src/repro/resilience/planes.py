"""The plane container: the one record format for measured planes.

An abacus and the lot are each one container; a run file — a
checkpoint, a saved scan or ledger artifact, a shard result
(:mod:`repro.resilience.checkpoint`) — is a header container followed
by appended segment containers.  A container is a JSON header line
(sorted keys: ``format``, the file's ``kind``, the caller's fields, and
each plane's dtype and shape by name), then one ``.npy`` record per
plane in sorted name order.  Integers are stored in the narrowest dtype
that holds them and unicode as code points, so a plane of 20-step codes
or tier markers costs one byte a cell; reading widens every record back
bit-exactly.  No zip, no zlib.  :func:`read_container` reads the
container at a handle's position, :func:`read_planes` a one-container
file.  Files keep their names, so a pre-change ``.npz`` (a zip) sits
where it did and is refused by name — the only trace of the old formats.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, BinaryIO, Mapping

import numpy as np

__all__ = ["FORMAT", "read_container", "read_planes", "write_planes"]

#: Container format (1 and 2 were the journal segments' JSON headers).
FORMAT = 3


def write_planes(
    fh: BinaryIO, header: Mapping[str, Any], planes: Mapping[str, np.ndarray]
) -> None:
    """Write ``header`` (which names the ``kind``) and ``planes`` to ``fh``."""
    if "kind" not in header or {"format", "planes"} & set(header):
        raise ValueError(
            "a plane header names its 'kind' and leaves 'format' and "
            f"'planes' to the container; got keys {sorted(header)}"
        )
    arrays = {name: np.asarray(planes[name]) for name in sorted(planes)}
    specs = {name: {"dtype": plane.dtype.str, "shape": list(plane.shape)}
             for name, plane in arrays.items()}
    line = json.dumps({**header, "format": FORMAT, "planes": specs}, sort_keys=True)
    fh.write(line.encode("utf-8") + b"\n")
    for plane in arrays.values():
        np.lib.format.write_array(fh, _narrow(plane), allow_pickle=False)


def read_planes(
    path: str | Path, kind: str
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """:func:`read_container` on file ``path``, which must hold no more."""
    with open(path, "rb") as fh:
        header, planes = read_container(fh, kind, path)
        if fh.read(1):
            raise ValueError(f"{path} has bytes after its last plane")
    return header, planes


def read_container(
    fh: BinaryIO, kind: str, name: str | Path
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """The caller's header fields and the planes of the container at
    ``fh``'s position, leaving ``fh`` just past it.

    Raises :class:`ValueError` naming ``name`` when the bytes there are
    not a format-:data:`FORMAT` container of ``kind``: a zip (a
    pre-change ``.npz``), another kind, end of file, or a torn or
    foreign record.
    """
    line = fh.readline()
    if line.startswith(b"PK\x03\x04"):
        raise ValueError(
            f"{name} is a zip archive (a pre-change .npz), not plane "
            f"container format {FORMAT}"
        )
    try:
        header = json.loads(line)
        found, specs = header.pop("format"), header.pop("planes")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"{name} has no plane container header (torn or foreign file): {exc}"
        ) from None
    if found != FORMAT:
        raise ValueError(f"{name} is format {found!r}, not plane container format {FORMAT}")
    if header.get("kind") != kind:
        raise ValueError(f"{name} holds a {header.get('kind')!r}, not a {kind!r}")
    planes = {}
    for plane in sorted(specs):
        what = f"{name} plane {plane!r}"
        try:
            dtype = np.dtype(specs[plane]["dtype"])
            shape = tuple(specs[plane]["shape"])
            block = np.lib.format.read_array(fh, allow_pickle=False)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{what} is torn or malformed: {exc}") from None
        planes[plane] = _widen(block, dtype, shape, what)
    return header, planes


def _narrow(plane: np.ndarray) -> np.ndarray:
    """``plane`` as stored: unicode as UCS-4 code points, integers in the
    narrowest dtype that holds their values (a safe cast widens back)."""
    if plane.dtype.kind == "U":
        plane = np.ascontiguousarray(plane).view(np.uint32)
    if plane.dtype.kind not in "iu" or not plane.size:
        return plane
    narrow = np.promote_types(
        np.min_scalar_type(plane.min()), np.min_scalar_type(plane.max())
    )
    # A negative low with a uint64 high promotes to float: keep as is.
    if narrow.kind not in "iu" or narrow.itemsize >= plane.dtype.itemsize:
        return plane
    return plane.astype(narrow)


def _widen(block: np.ndarray, dtype: np.dtype, shape: tuple, what: str) -> np.ndarray:
    """Undo :func:`_narrow`, checking the stored dtype and the shape."""
    stored = np.dtype(np.uint32) if dtype.kind == "U" else dtype
    if block.dtype != stored and not (
        stored.kind in "iu" and block.dtype.kind in "iu"
        and np.can_cast(block.dtype, stored)
    ):
        raise ValueError(f"{what} is stored as {block.dtype}, header says {dtype}")
    plane = block.astype(stored, copy=False)
    if dtype.kind == "U":
        plane = plane.view(dtype)
    if plane.shape != shape:
        raise ValueError(f"{what} has shape {plane.shape}, header says {shape}")
    return plane
