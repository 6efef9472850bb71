"""Die planes: a wafer chunk's dies are fabricated straight into planes.

The wafer die loop builds no die array on its chunk path: each backend's
:meth:`~repro.technologies.base.CellTechnology.fabricate_die_planes`
writes one die's capacitance plane into a ``(die_rows, die_cols)``
view of the chunk's stacked plane.  Two promises, for every backend, at
any die mean (including means below the die-mean floor), cell sigma and
mismatch seed:

1. the plane is bit for bit what ``fabricate_die`` with the same draw
   returns through ``capacitance_view()``, nothing outside the view is
   written, and the die has no defect (``defect_kind_view()`` is all
   zero) — the die loop passes one zero kind plane to every kernel
   pass, so this is what lets it skip the kind planes;
2. ``fabricate_die`` is bit-identical to the per-backend recipes the
   die arrays were built by before the planes existed, inlined below as
   the oracle — so moving fabrication onto the planes changed no die.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edram.variation_map import compose_maps, mismatch_map, uniform_map
from repro.technologies import get
from repro.units import fF

#: (rows, cols, macro_rows, macro_cols) drawn per example.
GEOMETRIES = [(8, 4, 4, 2), (16, 8, 8, 2), (32, 16, 8, 2)]


def _legacy_capacitance(technology, shape, mean, sigma, seed):
    """The die capacitance plane by the pre-planes backend recipes."""
    if technology == "edram":
        return compose_maps(
            uniform_map(shape, max(mean, 5 * fF)),
            mismatch_map(shape, sigma, seed=seed),
        )
    if technology == "1t":
        return compose_maps(
            uniform_map(shape, max(mean, 1.0 * fF)),
            mismatch_map(shape, sigma, seed=seed),
            floor=0.5 * fF,
        )
    mean = max(mean, 5 * fF)
    lin_nominal = 15.0 / 35.0 * mean
    c_lin = np.maximum(
        lin_nominal + mismatch_map(shape, 0.4 * sigma, seed=seed), 1.0 * fF
    )
    c_switch = np.maximum(
        (mean - lin_nominal) + mismatch_map(shape, 0.6 * sigma, seed=seed + 7919),
        1.0 * fF,
    )
    polarization = np.full(shape, 1.0)
    return c_lin + 0.5 * (1.0 + polarization) * c_switch


@given(
    technology=st.sampled_from(["edram", "fecap", "1t"]),
    geometry=st.sampled_from(GEOMETRIES),
    mean_fF=st.floats(min_value=-10.0, max_value=60.0),
    sigma_fF=st.floats(min_value=0.0, max_value=6.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    slot=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_die_planes_are_the_die_array_bit_for_bit(
    technology, geometry, mean_fF, sigma_fF, seed, slot
):
    rows, cols, macro_rows, macro_cols = geometry
    backend = get(technology)
    draw = dict(mean=mean_fF * fF, cell_sigma=sigma_fF * fF, mismatch_seed=seed)
    die = backend.fabricate_die(
        rows, cols, macro_rows=macro_rows, macro_cols=macro_cols, **draw
    )
    # A three-die stack poisoned everywhere: the die's slice must be
    # overwritten whole, and nothing else touched.
    cap = np.full((3, rows, cols), np.nan)
    backend.fabricate_die_planes(cap[slot], **draw)

    np.testing.assert_array_equal(cap[slot], die.capacitance_view())
    assert not die.defect_kind_view().any()
    others = [k for k in range(3) if k != slot]
    assert np.isnan(cap[others]).all()
    np.testing.assert_array_equal(
        die.capacitance_view(),
        _legacy_capacitance(technology, (rows, cols), *draw.values()),
    )
    assert (die.rows, die.cols) == (rows, cols)
    assert (die.macro_rows, die.macro_cols) == (macro_rows, macro_cols)
    assert die.technology == technology


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_one_t_die_keeps_its_leak_recipe(seed):
    """The 1T die array still draws its leakage plane from its own seed;
    the planes skip it, because the kernel never reads leakage."""
    backend = get("1t")
    die = backend.fabricate_die(
        8, 4, macro_rows=4, macro_cols=2,
        mean=4 * fF, cell_sigma=0.3 * fF, mismatch_seed=seed,
    )
    rng = np.random.default_rng(seed + 104729)
    leak = backend.base_card().junction_leak_per_cell * np.exp(
        rng.normal(0.0, 0.35, size=(8, 4))
    )
    np.testing.assert_array_equal(die.leak_view(), leak)
