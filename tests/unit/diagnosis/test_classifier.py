"""Per-cell classifier, including the code-0 disambiguation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.analog import AnalogBitmap
from repro.calibration.abacus import Abacus
from repro.calibration.design import design_structure
from repro.calibration.window import SpecificationWindow
from repro.diagnosis.classifier import CellClassifier, CellVerdict
from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.errors import DiagnosisError
from repro.measure.scan import ArrayScanner
from repro.units import fF


@pytest.fixture(scope="module")
def tall_setup(tech):
    """64-row array tiled 8x2 so short fingerprints are visible."""
    structure = design_structure(tech, 8, 2, bitline_rows=64)
    abacus = Abacus.analytic(structure, 8, 2, bitline_rows=64)
    window = SpecificationWindow.from_capacitance(abacus, 24 * fF, 36 * fF)
    return structure, abacus, window


def _classify(tech, tall_setup, defects, digital=None):
    structure, abacus, window = tall_setup
    arr = EDRAMArray(64, 4, tech=tech, macro_cols=2, macro_rows=8)
    for (r, c), d in defects.items():
        arr.cell(r, c).apply_defect(d)
    bitmap = AnalogBitmap(ArrayScanner(arr, structure).scan(), abacus)
    classifier = CellClassifier(bitmap, window, macro_cols=2)
    return classifier.classify_all(digital), classifier


def test_healthy_array_is_all_in_spec(tech, tall_setup):
    verdicts, _ = _classify(tech, tall_setup, {})
    assert all(v is CellVerdict.IN_SPEC for v in verdicts.ravel())


def test_short_detected_via_neighbour_fingerprint(tech, tall_setup):
    verdicts, _ = _classify(
        tech, tall_setup, {(3, 1): CellDefect(DefectKind.SHORT)}
    )
    assert verdicts[3, 1] is CellVerdict.SHORT


def test_open_lacks_fingerprint(tech, tall_setup):
    verdicts, _ = _classify(
        tech, tall_setup, {(3, 1): CellDefect(DefectKind.OPEN)}
    )
    assert verdicts[3, 1] is CellVerdict.OPEN_OR_UNDER


def test_digital_pass_refines_code_zero(tech, tall_setup):
    # A code-0 cell that reads/writes fine digitally is an under-floor
    # capacitor, not an open.
    defects = {(3, 1): CellDefect(DefectKind.LOW_CAP, factor=0.2)}  # 6 fF
    digital = np.zeros((64, 4), dtype=bool)  # everything passes digitally
    verdicts, _ = _classify(tech, tall_setup, defects, digital)
    assert verdicts[3, 1] is CellVerdict.UNDER_FLOOR


def test_moderate_low_cap_is_fail_low(tech, tall_setup):
    verdicts, _ = _classify(
        tech, tall_setup, {(3, 1): CellDefect(DefectKind.LOW_CAP, factor=0.6)}
    )
    assert verdicts[3, 1] is CellVerdict.LOW_CAP


def test_high_cap_is_fail_high(tech, tall_setup):
    verdicts, _ = _classify(
        tech, tall_setup, {(3, 1): CellDefect(DefectKind.HIGH_CAP, factor=1.4)}
    )
    assert verdicts[3, 1] is CellVerdict.HIGH_CAP


def test_over_range(tech, tall_setup):
    verdicts, _ = _classify(
        tech, tall_setup, {(3, 1): CellDefect(DefectKind.HIGH_CAP, factor=2.5)}
    )
    assert verdicts[3, 1] is CellVerdict.OVER_RANGE


def test_verdict_counts_and_open_crosstalk(tech, tall_setup):
    verdicts, classifier = _classify(
        tech, tall_setup, {(3, 1): CellDefect(DefectKind.OPEN)}
    )
    counts = classifier.verdict_counts(verdicts)
    assert counts[CellVerdict.OPEN_OR_UNDER] == 1
    # Real crosstalk of the structure: the open cell's plate-sharing
    # row-mate loses its series coupling branch and reads visibly low.
    assert verdicts[3, 0] is CellVerdict.LOW_CAP
    assert counts[CellVerdict.IN_SPEC] == 64 * 4 - 2


def test_macro_cols_must_divide(tech, tall_setup):
    structure, abacus, window = tall_setup
    arr = EDRAMArray(8, 4, tech=tech, macro_cols=2)
    bitmap = AnalogBitmap(ArrayScanner(arr, structure).scan(), abacus)
    with pytest.raises(DiagnosisError):
        CellClassifier(bitmap, window, macro_cols=3)


def test_digital_shape_mismatch_rejected(tech, tall_setup):
    structure, abacus, window = tall_setup
    arr = EDRAMArray(8, 4, tech=tech, macro_cols=2)
    bitmap = AnalogBitmap(ArrayScanner(arr, structure).scan(), abacus)
    classifier = CellClassifier(bitmap, window, macro_cols=2)
    with pytest.raises(DiagnosisError):
        classifier.classify_all(np.zeros((2, 2), dtype=bool))


class _Plane:
    """The two attributes of an analog bitmap the classifier reads."""

    def __init__(self, codes: np.ndarray) -> None:
        self.codes = codes
        self.shape = codes.shape


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 12),
    macros=st.integers(1, 4),
    macro_cols=st.integers(1, 4),
    zero_frac=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    digital=st.sampled_from(["none", "all_fail", "all_pass", "random"]),
    lift=st.integers(0, 4),
)
@settings(max_examples=150, deadline=None)
def test_classify_all_matches_the_per_cell_loop(
    seed, rows, macros, macro_cols, zero_frac, digital, lift
):
    # classify_all takes the plane's median once; the verdicts must be
    # those of classify_cell called cell by cell.
    rng = np.random.default_rng(seed)
    shape = (rows, macros * macro_cols)
    codes = rng.integers(0, 21, shape)
    codes[rng.random(shape) < zero_frac] = 0
    window = SpecificationWindow(code_lo=8, code_hi=12, num_steps=20, delta_i=4e-6)
    classifier = CellClassifier(_Plane(codes), window, macro_cols, short_code_lift=lift)
    fails = {
        "none": None,
        "all_fail": np.ones(shape, dtype=bool),
        "all_pass": np.zeros(shape, dtype=bool),
        "random": rng.random(shape) < 0.5,
    }[digital]
    verdicts = classifier.classify_all(fails)
    for r in range(shape[0]):
        for c in range(shape[1]):
            fail = None if fails is None else bool(fails[r, c])
            assert verdicts[r, c] is classifier.classify_cell(r, c, fail)
