"""Property: the run ledger's scan scalars from the code histogram.

:func:`repro.obs.ledger.scan_scalars` takes ``flip_step_mean`` and
``flip_step_p95`` from a histogram of the adjacent-cell code steps
instead of a float step plane and ``np.percentile``.  The scalars the
drift engine compares across runs must not move by a bit:
:func:`_reference_scan_scalars` below is the float-plane computation it
replaced, and every scalar must match it exactly on random planes — all
code 0, all full scale, one column, and planes with FAILED cells.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measure.scan import ScanResult
from repro.obs.ledger import scan_scalars
from repro.resilience.quality import CellQuality

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


@st.composite
def _scans(draw) -> ScanResult:
    rows = draw(st.integers(1, 40))
    cols = draw(st.sampled_from([1, 2, 3, 8, 33]))
    shape = (rows, cols)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    form = draw(st.sampled_from(["random", "zeros", "full", "clustered", "sparse"]))
    if form == "zeros":
        codes = np.zeros(shape, dtype=np.int64)
    elif form == "full":
        codes = np.full(shape, NUM_STEPS, dtype=np.int64)
    elif form == "clustered":
        codes = np.clip(rng.normal(10, 1.5, shape).round(), 0, NUM_STEPS).astype(np.int64)
    elif form == "sparse":
        codes = np.full(shape, 10, dtype=np.int64)
        codes[rng.random(shape) < 0.05] = rng.integers(0, NUM_STEPS + 1)
    else:
        codes = rng.integers(0, NUM_STEPS + 1, shape)
    # Loaded run files carry narrowed integer planes.
    codes = codes.astype(draw(st.sampled_from([np.int64, np.uint8])))
    quality = np.zeros(shape, dtype=np.uint8)
    failed = rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    quality[failed] = CellQuality.FAILED
    codes[failed] = 0
    vgs = rng.random(shape)
    return ScanResult(codes, vgs, NUM_STEPS, np.full(shape, "e"), quality=quality)


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
