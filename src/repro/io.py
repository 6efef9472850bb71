"""Persistence of measurement artefacts.

Scan results and abaci are the two artefacts worth keeping across
sessions (a scan is the raw silicon data; the abacus is the calibration
that decodes it).  Both round-trip bit for bit.  A scan is a ``"scan"``
run file (:mod:`repro.resilience.checkpoint`), the format of a scan's
checkpoint: codes, vgs, tiers and quality planes, ``num_steps`` in its
meta.  An abacus is one plane container (:mod:`repro.resilience.planes`):
its bin edges (farads) plus the design constants needed to verify
compatibility on load.

Loading an abacus requires the matching
:class:`~repro.measure.structure.MeasurementStructure`; the file carries
the design fingerprint so mismatches fail loudly instead of silently
decoding with the wrong calibration.
"""

from __future__ import annotations

from pathlib import Path

from repro.calibration.abacus import Abacus
from repro.errors import CalibrationError, CheckpointError, MeasurementError
from repro.measure.scan import ScanResult
from repro.measure.structure import MeasurementStructure
from repro.resilience.checkpoint import read_run, write_run
from repro.resilience.durable import durable_write
from repro.resilience.planes import read_planes, write_planes


_SCAN_PLANES = ("codes", "vgs", "tiers", "quality")


def _npz(path: str | Path) -> Path:
    """``path`` with the artefacts' ``.npz`` suffix (appended if missing)."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_suffix(".npz")


# ---------------------------------------------------------------------------
# Scan results
# ---------------------------------------------------------------------------

def save_scan(result: ScanResult, path: str | Path) -> Path:
    """Write a scan result to ``path`` (``.npz`` appended if missing)."""
    planes = {name: getattr(result, name) for name in _SCAN_PLANES}
    return write_run(_npz(path), "scan", planes, {"num_steps": int(result.num_steps)})


def load_scan(path: str | Path) -> ScanResult:
    """Read a scan run file (:func:`save_scan`'s, or a kept checkpoint).

    A missing, torn, unfinished, foreign or pre-change file surfaces as
    :class:`~repro.errors.MeasurementError` naming the file, never a raw
    ``numpy`` traceback — scan files travel between machines and
    loaders must fail like tools, not like stack dumps.
    """
    try:
        run = read_run(path, "scan")
        if sorted(run.arrays) != sorted(_SCAN_PLANES):
            raise ValueError(f"planes {sorted(run.arrays)}, expected {sorted(_SCAN_PLANES)}")
        return ScanResult(num_steps=int(run.meta["num_steps"]), **run.arrays)
    except (CheckpointError, ValueError, KeyError, TypeError) as exc:
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
    """Write an abacus to ``path`` (``.npz`` appended if missing)."""
    header = {"kind": "abacus", "design": _design_fingerprint(abacus.structure)}
    planes = {"edges": abacus.edges}
    return durable_write(_npz(path), lambda fh: write_planes(fh, header, planes))


def load_abacus(path: str | Path, structure: MeasurementStructure) -> Abacus:
    """Read an abacus and bind it to ``structure`` (fingerprint-checked)."""
    try:
        header, planes = read_planes(path, "abacus")
        stored, edges = header.get("design", {}), planes["edges"]
    except (OSError, ValueError, KeyError) as exc:
        raise CalibrationError(f"unreadable abacus file {path}: {exc}") from exc
    expected = _design_fingerprint(structure)
    if stored != expected:
        raise CalibrationError(
            f"abacus in {path} was calibrated for a different design/technology: "
            f"stored {stored}, structure is {expected}"
        )
    return Abacus(structure, edges)
