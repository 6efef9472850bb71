"""Property tests for the technology seam.

Two promises the API redesign makes:

1. **The eDRAM backend is a refactor, not a change.**  Arrays built via
   ``repro.technologies.get("edram")`` are bit-identical to the
   historical direct-construction recipe (capacitance/leak/defect
   planes), and scanning them produces bit-identical codes, V_GS,
   quality planes and ScanStats counts.

2. **The kernel dispatch is backend-agnostic.**  For every shipped
   backend the slab driver and the per-macro walk of
   ``tests/reference_scan.py`` agree bit-for-bit — the seam adds no
   technology-conditional physics to the scan path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edram.array import EDRAMArray
from repro.edram.defects import DefectInjector, DefectKind
from repro.edram.variation_map import compose_maps, mismatch_map, uniform_map
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.technologies import get
from repro.units import fF
from tests.reference_scan import reference_scan


def _legacy_build(rows, cols, macro_rows, seed, with_defects, nominal=30.0 * fF):
    """The pre-refactor CLI recipe, inlined verbatim as the oracle."""
    shape = (rows, cols)
    capacitance = compose_maps(
        uniform_map(shape, nominal), mismatch_map(shape, 0.8 * fF, seed=seed)
    )
    array = EDRAMArray(
        rows, cols, macro_cols=2, macro_rows=macro_rows,
        capacitance_map=capacitance,
    )
    if with_defects:
        injector = DefectInjector(array, seed=seed + 1)
        injector.scatter(DefectKind.SHORT, max(1, array.num_cells // 400))
        injector.scatter(DefectKind.OPEN, max(1, array.num_cells // 400))
        injector.scatter(DefectKind.LOW_CAP, max(2, array.num_cells // 200), factor=0.6)
        injector.scatter(DefectKind.BRIDGE, max(1, array.num_cells // 500))
    return array


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), with_defects=st.booleans())
def test_edram_registry_arrays_bit_exact_with_legacy_recipe(seed, with_defects):
    legacy = _legacy_build(16, 4, 8, seed, with_defects)
    registry = get("edram").build_array(
        16, 4, macro_rows=8, seed=seed, with_defects=with_defects
    )
    np.testing.assert_array_equal(
        legacy.capacitance_matrix(), registry.capacitance_matrix()
    )
    np.testing.assert_array_equal(legacy.leak_matrix(), registry.leak_matrix())
    np.testing.assert_array_equal(
        legacy.defect_kind_matrix(), registry.defect_kind_matrix()
    )
    assert legacy.tech == registry.tech


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_edram_registry_scan_bit_exact_with_legacy_scan(seed):
    legacy = _legacy_build(16, 4, 8, seed, with_defects=True)
    registry = get("edram").build_array(
        16, 4, macro_rows=8, seed=seed, with_defects=True
    )
    structure = get("edram").design_structure(registry)
    a = ArrayScanner(legacy, structure).scan()
    b = ArrayScanner(registry, structure).scan(ScanConfig(technology="edram"))
    np.testing.assert_array_equal(a.codes, b.codes)
    np.testing.assert_array_equal(a.vgs, b.vgs)
    np.testing.assert_array_equal(a.quality, b.quality)
    np.testing.assert_array_equal(a.tiers, b.tiers)
    assert a.stats.total_cells == b.stats.total_cells
    assert a.stats.closed_form_cells == b.stats.closed_form_cells
    assert a.stats.engine_cells == b.stats.engine_cells
    assert a.stats.kernel_cells == b.stats.kernel_cells
    assert a.stats.degraded_cells == b.stats.degraded_cells
    assert a.stats.failed_cells == b.stats.failed_cells


@pytest.mark.parametrize("technology", ["edram", "fecap", "1t"])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_kernel_vs_per_macro_bit_exact_for_every_backend(technology, seed):
    """The same ArrayScanner path serves all backends, as the walk does.

    Backends may mutate state after a scan (FeCap read-disturb), so the
    two paths run on identically-seeded twin arrays rather than the same
    one.
    """
    backend = get(technology)
    arrays = [
        backend.build_array(16, 4, macro_rows=8, seed=seed, with_defects=True)
        for _ in range(2)
    ]
    structure = backend.design_structure(arrays[0])
    fast = ArrayScanner(arrays[0], structure).scan(
        ScanConfig(technology=technology)
    )
    slow = reference_scan(arrays[1], structure)
    assert fast.stats.kernel_cells > 0
    np.testing.assert_array_equal(fast.codes, slow.codes)
    np.testing.assert_array_equal(fast.vgs, slow.vgs)
    np.testing.assert_array_equal(fast.quality, slow.quality)
