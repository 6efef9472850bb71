"""Property-based tests of fleet sharding.

The fleet's whole correctness story reduces to one invariant: measuring
a wafer in ANY partition of contiguous die ranges and stitching the
range-sized slices back together is bit-identical to the unsharded walk.
Hypothesis draws arbitrary cut points (not just the planner's balanced
splits) so the RNG fast-forward in :meth:`WaferModel.measure_dies` is
exercised at every alignment, and separately checks that the canonical
planner can only ever emit exact tilings.  The wafer-path oracle
(``tests/property/test_wafer_path_oracle.py``) checks such cuts, and the
other wafer paths, against per-die scans.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import plan_shards, validate_partition
from repro.wafer import WaferModel

SEED = 13

_PLANES = (
    "die_means", "die_sigmas", "die_vgs", "die_codes",
    "die_cell_quality", "die_quality",
)

#: Unsharded reference scans, one per wafer diameter (they're pure
#: functions of (diameter, SEED), so caching across examples is sound).
_references: dict[int, object] = {}


def _reference(diameter: int):
    if diameter not in _references:
        model = WaferModel(diameter_dies=diameter, seed=SEED)
        total = len(model.sites())
        _references[diameter] = model.measure_dies((0, total))
    return _references[diameter]


@st.composite
def partitions(draw):
    """(diameter, ranges): arbitrary contiguous cuts of a small wafer."""
    diameter = draw(st.sampled_from([3, 4, 5]))
    total = len(WaferModel(diameter_dies=diameter, seed=SEED).sites())
    cuts = draw(st.lists(
        st.integers(min_value=1, max_value=total - 1),
        unique=True, max_size=5,
    ))
    bounds = [0, *sorted(cuts), total]
    return diameter, list(zip(bounds[:-1], bounds[1:]))


@given(partitions())
@settings(max_examples=12, deadline=None)
def test_any_partition_merges_bit_exact(partition):
    diameter, ranges = partition
    reference = _reference(diameter)
    total = reference.total_dies

    merged = {
        name: np.zeros_like(getattr(reference, name)) for name in _PLANES
    }
    merged["die_means"][:] = np.nan
    merged["die_sigmas"][:] = np.nan
    for lo, hi in ranges:
        model = WaferModel(diameter_dies=diameter, seed=SEED)
        scan = model.measure_dies((lo, hi))
        assert scan.die_range == (lo, hi)
        assert scan.total_dies == total
        for name in _PLANES:
            plane = getattr(scan, name)
            assert len(plane) == hi - lo, name  # range-sized planes
            merged[name][lo:hi] = plane

    for name in _PLANES:
        np.testing.assert_array_equal(
            merged[name], getattr(reference, name), err_msg=name
        )


@given(
    total=st.integers(min_value=1, max_value=200),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_plan_shards_always_tiles_exactly(total, data):
    shards = data.draw(st.integers(min_value=1, max_value=total))
    ranges = plan_shards(total, shards)
    validate_partition(ranges, total)  # raises FleetError on any defect
    counts = [r.count for r in ranges]
    assert sum(counts) == total
    assert max(counts) - min(counts) <= 1
    assert [r.shard_id for r in ranges] == list(range(shards))
