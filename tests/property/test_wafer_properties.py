"""Property tests of the chunked wafer die loop.

The wafer loop measures a chunk of stacked dies with one kernel pass,
one code conversion and one bitmap.  Its contract is that every die's
planes and statistics are bit-identical to scanning that die alone with
its own :class:`ArrayScanner` and :class:`AnalogBitmap` — the reference
walk below — for every cell technology, die geometry and die range,
including wafers that span several chunks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.wafer
from repro.bitmap.analog import AnalogBitmap
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.wafer import WaferModel

#: (die_rows, die_cols, macro_rows, macro_cols) drawn per example.
GEOMETRIES = [(8, 4, 4, 2), (16, 8, 8, 2), (16, 4, 8, 2), (8, 8, 2, 4)]
DIAMETER = 21


def _model(technology, geometry, seed):
    die_rows, die_cols, macro_rows, macro_cols = geometry
    return WaferModel(
        diameter_dies=DIAMETER, die_rows=die_rows, die_cols=die_cols,
        macro_rows=macro_rows, macro_cols=macro_cols,
        technology=technology, seed=seed,
    )


def _reference(technology, geometry, seed):
    """Every die fabricated in order and scanned on its own."""
    model = _model(technology, geometry, seed)
    structure, abacus = model._calibration()
    config = ScanConfig(technology=technology)
    out = {name: [] for name in ("means", "sigmas", "vgs", "codes", "quality")}
    for _x, _y, r in model.sites():
        scan = ArrayScanner(model.fabricate_die(r), structure).scan(config)
        bitmap = AnalogBitmap(scan, abacus)
        out["means"].append(bitmap.mean_capacitance())
        out["sigmas"].append(bitmap.std_capacitance())
        out["vgs"].append(scan.vgs)
        out["codes"].append(scan.codes)
        out["quality"].append(scan.quality)
    return {name: np.array(values) for name, values in out.items()}


@given(
    technology=st.sampled_from(["edram", "fecap", "1t"]),
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
@settings(max_examples=8, deadline=None)
def test_chunked_die_loop_matches_per_die_scans(technology, geometry, seed, data):
    reference = _reference(technology, geometry, seed)
    total = reference["means"].size
    die_cells = geometry[0] * geometry[1]
    assert total > repro.wafer._CHUNK_CELLS // die_cells  # several chunks

    report = _model(technology, geometry, seed).measure_wafer()
    np.testing.assert_array_equal(
        [die.mean_capacitance for die in report.dies], reference["means"]
    )
    np.testing.assert_array_equal(
        [die.sigma_capacitance for die in report.dies], reference["sigmas"]
    )

    lo = data.draw(st.integers(min_value=0, max_value=total - 1), label="lo")
    hi = data.draw(st.integers(min_value=lo + 1, max_value=total), label="hi")
    scan = _model(technology, geometry, seed).measure_dies((lo, hi))
    for name, plane in (
        ("means", scan.die_means), ("sigmas", scan.die_sigmas),
        ("vgs", scan.die_vgs), ("codes", scan.die_codes),
        ("quality", scan.die_cell_quality),
    ):
        assert len(plane) == hi - lo, name  # range-sized planes
        np.testing.assert_array_equal(
            plane, reference[name][lo:hi], err_msg=name
        )
