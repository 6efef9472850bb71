"""Die planes: a wafer chunk's dies are fabricated straight into planes.

The wafer die loop builds no die array: each backend's
:meth:`~repro.technologies.base.CellTechnology.fabricate_dies` writes a
chunk of dies' capacitance planes into the ``[:n]`` slice of the
chunk's stacked ``(chunk, die_rows, die_cols)`` plane in one pass.  Two
promises, for every backend, for any chunk of dies at any die means
(including means below the die-mean floor), cell sigma and mismatch
seeds:

1. die ``k``'s slice is bit for bit what ``fabricate_die`` with draw
   ``k`` returns through ``capacitance_view()``, nothing past the
   chunk's ``n`` dies is written, and the die has no defect
   (``defect_kind_view()`` is all zero) — the die loop passes one zero
   kind plane to every kernel pass, so this is what lets it skip the
   kind planes;
2. ``fabricate_die`` is bit-identical to the per-backend recipes the
   die arrays were built by before the planes existed, inlined below as
   the oracle — so moving fabrication onto the planes changed no die.
"""

import numpy as np
from hypothesis import example, given, settings
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
    dies=st.lists(
        st.tuples(
            st.floats(min_value=-10.0, max_value=60.0),
            st.integers(min_value=0, max_value=2**31 - 1),
        ),
        min_size=1, max_size=6,
    ),
    sigma_fF=st.floats(min_value=0.0, max_value=6.0),
    spare=st.integers(min_value=0, max_value=2),
)
@example(  # every die below its floor, the largest die seed, wide mismatch
    technology="fecap", geometry=GEOMETRIES[0],
    dies=[(-3.0, 0), (4.9, 2**31 - 1), (0.0, 7)], sigma_fF=6.0, spare=1,
)
@example(
    technology="1t", geometry=GEOMETRIES[1],
    dies=[(0.5, 3), (4.0, 11)], sigma_fF=2.0, spare=2,
)
@settings(max_examples=60, deadline=None)
def test_die_planes_are_the_die_array_bit_for_bit(
    technology, geometry, dies, sigma_fF, spare
):
    rows, cols, macro_rows, macro_cols = geometry
    backend = get(technology)
    n, sigma = len(dies), sigma_fF * fF
    # A chunk plane poisoned everywhere: the chunk's n dies must be
    # overwritten whole, and the spare slots past them left alone.
    cap = np.full((n + spare, rows, cols), np.nan)
    backend.fabricate_dies(
        cap, means=np.array([mean_fF * fF for mean_fF, _seed in dies]),
        cell_sigma=sigma, seeds=np.array([seed for _mean, seed in dies]),
    )
    assert np.isnan(cap[n:]).all()

    for plane, (mean_fF, seed) in zip(cap, dies):
        draw = dict(mean=mean_fF * fF, cell_sigma=sigma, mismatch_seed=seed)
        die = backend.fabricate_die(
            rows, cols, macro_rows=macro_rows, macro_cols=macro_cols, **draw
        )
        np.testing.assert_array_equal(plane, die.capacitance_view())
        assert not die.defect_kind_view().any()
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
