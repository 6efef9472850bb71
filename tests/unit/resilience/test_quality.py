"""CellQuality vocabulary and quality-plane helpers."""

import numpy as np

from repro.resilience.quality import (
    CellQuality,
    QUALITY_DTYPE,
    quality_counts,
    quality_plane,
    worst_quality,
)


def test_quality_ordering_worst_last():
    assert CellQuality.GOOD < CellQuality.DEGRADED < CellQuality.FAILED
    assert int(CellQuality.GOOD) == 0  # a clean scan's plane is all zeros


def test_quality_plane_starts_all_good():
    plane = quality_plane((4, 3))
    assert plane.shape == (4, 3)
    assert plane.dtype == QUALITY_DTYPE
    assert not plane.any()


def test_quality_counts_buckets_every_level():
    plane = quality_plane((2, 3))
    plane[0, 0] = CellQuality.DEGRADED
    plane[1, 2] = CellQuality.FAILED
    assert quality_counts(plane) == {"good": 4, "degraded": 1, "failed": 1}


def test_worst_quality():
    plane = quality_plane((2, 2))
    assert worst_quality(plane) is CellQuality.GOOD
    plane[0, 1] = CellQuality.DEGRADED
    assert worst_quality(plane) is CellQuality.DEGRADED
    plane[1, 1] = CellQuality.FAILED
    assert worst_quality(plane) is CellQuality.FAILED


def test_worst_quality_empty_plane_is_good():
    assert worst_quality(np.zeros((0, 0), dtype=QUALITY_DTYPE)) is CellQuality.GOOD


def test_str_is_lowercase_name():
    assert str(CellQuality.DEGRADED) == "degraded"
