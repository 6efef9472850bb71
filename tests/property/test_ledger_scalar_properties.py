"""Property: the run ledger's scan and bitmap scalars from small tables.

:func:`repro.obs.ledger.scan_scalars` takes ``flip_step_mean`` and
``flip_step_p95`` from a histogram of the adjacent-cell code steps
instead of a float step plane and ``np.percentile``, and
:func:`repro.obs.ledger.bitmap_scalars` gathers the abacus midpoints of
the in-range codes instead of reading the NaN-filled estimate plane.
The scalars the drift engine compares across runs must not move by a
bit: :func:`_reference_scan_scalars` and
:func:`_reference_bitmap_scalars` below are the computations they
replaced, and every scalar must match them exactly on random planes —
all code 0, all full scale, one column, planes with FAILED cells and,
for the bitmap, the eDRAM, FeCap and 1T abaci with their scanned planes.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.analog import AnalogBitmap
from repro.calibration.abacus import Abacus
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner, ScanResult
from repro.obs.ledger import bitmap_scalars, scan_scalars
from repro.resilience.quality import CellQuality
from repro.technologies import get as get_technology
from repro.units import to_fF

NUM_STEPS = 20


def _reference_scan_scalars(result: ScanResult) -> dict[str, float]:
    codes = np.asarray(result.codes, dtype=float)
    vgs = np.asarray(result.vgs, dtype=float)
    quality = result.quality_counts()
    scalars = {
        "code_centroid": float(codes.mean()),
        "code_sigma": float(codes.std()),
        "vgs_mean": float(vgs.mean()),
        "vgs_sigma": float(vgs.std()),
        "degraded_cells": float(quality["degraded"]),
        "failed_cells": float(quality["failed"]),
    }
    if codes.shape[1] > 1:
        steps = np.abs(np.diff(codes, axis=1))
        scalars["flip_step_mean"] = float(steps.mean())
        scalars["flip_step_p95"] = float(np.percentile(steps, 95))
    return scalars


def _reference_bitmap_scalars(bitmap: AnalogBitmap) -> dict[str, float]:
    in_range = bitmap.in_range
    values = bitmap.estimates[in_range]
    if values.size == 0:
        return {"in_range_fraction": 0.0}
    return {
        "cap_mean_fF": float(to_fF(values.mean())),
        "cap_sigma_fF": float(to_fF(values.std())),
        "in_range_fraction": float(in_range.mean()),
    }


@st.composite
def _scans(draw, num_steps: int = NUM_STEPS) -> ScanResult:
    rows = draw(st.integers(1, 40))
    cols = draw(st.sampled_from([1, 2, 3, 8, 33]))
    shape = (rows, cols)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    form = draw(st.sampled_from(["random", "zeros", "full", "clustered", "sparse"]))
    if form == "zeros":
        codes = np.zeros(shape, dtype=np.int64)
    elif form == "full":
        codes = np.full(shape, num_steps, dtype=np.int64)
    elif form == "clustered":
        codes = np.clip(rng.normal(10, 1.5, shape).round(), 0, num_steps).astype(np.int64)
    elif form == "sparse":
        codes = np.full(shape, 10, dtype=np.int64)
        codes[rng.random(shape) < 0.05] = rng.integers(0, num_steps + 1)
    else:
        codes = rng.integers(0, num_steps + 1, shape)
    # Loaded run files carry narrowed integer planes.
    codes = codes.astype(draw(st.sampled_from([np.int64, np.uint8])))
    quality = np.zeros(shape, dtype=np.uint8)
    failed = rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    quality[failed] = CellQuality.FAILED
    codes[failed] = 0
    vgs = rng.random(shape)
    return ScanResult(codes, vgs, num_steps, np.full(shape, "e"), quality=quality)


@given(scan=_scans())
@settings(max_examples=300, deadline=None)
def test_scan_scalars_match_the_float_plane_reference_bit_for_bit(scan):
    scalars = scan_scalars(scan)
    expected = _reference_scan_scalars(scan)
    assert scalars.keys() == expected.keys()
    for name, value in expected.items():
        assert type(scalars[name]) is float, name
        assert np.float64(scalars[name]).view(np.uint64) == np.float64(value).view(
            np.uint64
        ), name


@lru_cache(maxsize=None)
def _technology(name: str) -> tuple[Abacus, ScanResult]:
    """A technology's abacus and one scan of a defective array with it."""
    backend = get_technology(name)
    array = backend.build_array(16, 4, macro_rows=8, seed=3, with_defects=True)
    structure = backend.design_structure(array)
    scan = ArrayScanner(array, structure).scan(ScanConfig(technology=name))
    return Abacus.for_array(structure, array), scan


@st.composite
def _bitmaps(draw) -> AnalogBitmap:
    abacus, scanned = _technology(draw(st.sampled_from(["edram", "fecap", "1t"])))
    if draw(st.booleans()):
        return AnalogBitmap(scanned, abacus)
    return AnalogBitmap(draw(_scans(abacus.num_steps)), abacus)


@given(bitmap=_bitmaps())
@settings(max_examples=300, deadline=None)
def test_bitmap_scalars_match_the_estimate_plane_reference_bit_for_bit(bitmap):
    scalars = bitmap_scalars(bitmap)
    expected = _reference_bitmap_scalars(bitmap)
    assert scalars.keys() == expected.keys()
    for name, value in expected.items():
        assert type(scalars[name]) is float, name
        assert np.float64(scalars[name]).view(np.uint64) == np.float64(value).view(
            np.uint64
        ), name
