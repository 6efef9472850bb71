"""Persistence of measurement artefacts.

Scan results and abaci are the two artefacts worth keeping across
sessions (a scan is the raw silicon data; the abacus is the calibration
that decodes it).  Formats:

- scans → ``.npz`` (codes/vgs/tiers arrays plus metadata),
- abaci → ``.json`` (bin edges in attofarads plus the design constants
  needed to verify compatibility on load).

Loading an abacus requires the matching
:class:`~repro.measure.structure.MeasurementStructure`; the file carries
the design fingerprint so mismatches fail loudly instead of silently
decoding with the wrong calibration.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.calibration.abacus import Abacus
from repro.errors import CalibrationError, MeasurementError
from repro.measure.scan import ScanResult
from repro.measure.structure import MeasurementStructure
from repro.resilience.durable import durable_write
from repro.units import aF

#: Format 2 added the per-cell quality plane (format-1 files load as
#: all-GOOD — a pre-resilience scan had no way to flag a cell).
_SCAN_FORMAT = 2
_ABACUS_FORMAT = 1


# ---------------------------------------------------------------------------
# Scan results
# ---------------------------------------------------------------------------

def save_scan(result: ScanResult, path: str | Path) -> Path:
    """Write a scan result to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    return durable_write(
        path,
        lambda fh: np.savez_compressed(
            fh,
            format=np.array(_SCAN_FORMAT),
            codes=result.codes,
            vgs=result.vgs,
            tiers=result.tiers.astype("<U1"),
            num_steps=np.array(result.num_steps),
            quality=result.quality,
        ),
    )


def load_scan(path: str | Path) -> ScanResult:
    """Read a scan result written by :func:`save_scan`.

    Corruption (truncated download, bad disk, not-an-npz) surfaces as
    :class:`~repro.errors.MeasurementError` naming the file, never a raw
    ``zipfile``/``numpy`` traceback — scan files travel between machines
    and loaders must fail like tools, not like stack dumps.
    """
    path = Path(path)
    if not path.exists():
        raise MeasurementError(f"no scan file at {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            fmt = int(data["format"])
            if fmt not in (1, _SCAN_FORMAT):
                raise MeasurementError(
                    f"unsupported scan format {fmt} in {path}"
                )
            return ScanResult(
                codes=data["codes"].astype(int),
                vgs=data["vgs"].astype(float),
                tiers=data["tiers"],
                num_steps=int(data["num_steps"]),
                quality=data["quality"] if "quality" in data.files else None,
            )
    except MeasurementError:
        raise
    except Exception as exc:  # lint: allow-broad-except - wrapped and re-raised
        raise MeasurementError(f"unreadable scan file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Abaci
# ---------------------------------------------------------------------------

def _design_fingerprint(structure: MeasurementStructure) -> dict:
    d = structure.design
    return {
        "num_steps": d.num_steps,
        "w_ref_nm": round(d.w_ref * 1e9, 3),
        "l_ref_nm": round(d.l_ref * 1e9, 3),
        "delta_i_na": round(d.delta_i * 1e9, 6),
        "tech": structure.tech.name,
    }


def save_abacus(abacus: Abacus, path: str | Path) -> Path:
    """Write an abacus to ``path`` (``.json`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(".json")
    payload = {
        "format": _ABACUS_FORMAT,
        "design": _design_fingerprint(abacus.structure),
        "edges_af": [edge * 1e18 for edge in abacus.edges],
    }
    text = json.dumps(payload, indent=2)
    return durable_write(path, lambda fh: fh.write(text.encode("utf-8")))


def load_abacus(path: str | Path, structure: MeasurementStructure) -> Abacus:
    """Read an abacus and bind it to ``structure`` (fingerprint-checked)."""
    path = Path(path)
    if not path.exists():
        raise CalibrationError(f"no abacus file at {path}")
    payload = json.loads(path.read_text())
    if payload.get("format") != _ABACUS_FORMAT:
        raise CalibrationError(f"unsupported abacus format in {path}")
    expected = _design_fingerprint(structure)
    stored = payload.get("design", {})
    if stored != expected:
        raise CalibrationError(
            f"abacus in {path} was calibrated for a different design/technology: "
            f"stored {stored}, structure is {expected}"
        )
    edges = np.array(payload["edges_af"], dtype=float) * aF
    return Abacus(structure, edges)
