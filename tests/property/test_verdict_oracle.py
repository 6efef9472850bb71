"""Oracle: diagnosis verdict planes against the per-cell reference.

A verdict is a function of the code alone except for the code-0 split,
so :class:`SpecificationWindow` keeps a per-code verdict table and the
analog bitmap, the classifier, the failure analyzer, the crosstalk
compensation and the pipeline report all read planes.
``tests/reference_verdicts.py`` keeps the per-cell loops they replaced.
Over random windows and code planes — all code 0, all full scale, one
column, uint8, half-integer medians, macro neighbours tied exactly at
``median + short_code_lift`` — with every ``macro_cols`` in {1, 2, 4, 8}
and every form of ``digital_fails`` (None, all True, all False, random
bool, object arrays holding None), both must agree: the same enum
member in every cell, the same ``<U16`` classify plane and out-of-spec
mask, the same counts in the same key order, and, for a plane holding a
code outside ``0..num_steps``, the same :class:`CalibrationError` with
the same message.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.analog import AnalogBitmap
from repro.calibration.abacus import Abacus
from repro.calibration.design import design_structure
from repro.calibration.window import SpecificationWindow
from repro.diagnosis import failure_analysis
from repro.diagnosis.classifier import CellClassifier, CellVerdict
from repro.diagnosis.compensation import compensate_estimates
from repro.diagnosis.pipeline import PipelineReport
from repro.edram.array import EDRAMArray
from repro.errors import CalibrationError
from repro.measure.scan import ScanResult
from repro.tech.parameters import default_technology
from tests import reference_verdicts as reference


@st.composite
def _windows(draw) -> SpecificationWindow:
    num_steps = draw(st.integers(2, 40))
    code_lo = draw(st.integers(1, num_steps - 1))
    code_hi = draw(st.integers(code_lo, num_steps - 1))
    return SpecificationWindow(code_lo, code_hi, num_steps, delta_i=1e-6)


@st.composite
def _cases(draw) -> dict:
    """A window, a code plane, the classifier settings and digital fails."""
    window = draw(_windows())
    n = window.num_steps
    macro_cols = draw(st.sampled_from([1, 2, 4, 8]))
    form = draw(
        st.sampled_from(
            ["random", "zeros", "full", "one_column", "shorts", "half_median"]
        )
    )
    if form == "one_column":
        macro_cols = 1
    rows = draw(st.integers(1, 12))
    cols = 1 if form == "one_column" else macro_cols * draw(st.integers(1, 4))
    shape = (rows, cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if form == "zeros":
        codes = np.zeros(shape, dtype=np.int64)
    elif form == "full":
        codes = np.full(shape, n, dtype=np.int64)
    elif form == "shorts":
        # A nominal plane with code-0 cells whose row-mates read lifted.
        codes = np.full(shape, n // 2, dtype=np.int64)
        zeros = rng.random(shape) < 0.15
        codes[zeros] = 0
        lifted = rng.integers(n // 2, n + 1, shape)
        for r, c in zip(*np.nonzero(zeros)):
            start = (c // macro_cols) * macro_cols
            mates = slice(start, start + macro_cols)
            codes[r, mates] = np.where(codes[r, mates] == 0, 0, lifted[r, mates])
    elif form == "half_median":
        # Half the cells one code below the other half: the median is
        # x.5, and zeroing some of the low half keeps it there.
        shape = (rows + rows % 2, cols)
        low = int(rng.integers(0, n))
        flat = np.repeat([low, low + 1], shape[0] * cols // 2).astype(np.int64)
        flat[: flat.size // 2][rng.random(flat.size // 2) < 0.3] = 0
        codes = rng.permutation(flat).reshape(shape)
    else:
        codes = rng.integers(0, n + 1, shape)
        codes[rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0
    if draw(st.booleans()):
        codes = codes.astype(np.uint8)
    median = float(np.median(codes))
    lift_form = draw(st.sampled_from(["int", "float", "tie"]))
    if lift_form == "tie" and (codes > 0).any():
        # Land median + lift exactly on a code some neighbour reads.
        lift = float(rng.choice(codes[codes > 0])) - median
    elif lift_form == "float":
        lift = draw(st.floats(-3.0, 6.0).map(lambda x: round(x * 2) / 2))
    else:
        lift = draw(st.integers(-2, 6))
    digital = draw(
        st.sampled_from(["none", "all_fail", "all_pass", "random", "object"])
    )
    fails = {
        "none": None,
        "all_fail": np.ones(shape, dtype=bool),
        "all_pass": np.zeros(shape, dtype=bool),
        "random": rng.random(shape) < 0.5,
        "object": np.where(
            rng.random(shape) < 0.5, None, rng.random(shape) < 0.5
        ).astype(object),
    }[digital]
    return {
        "window": window,
        "codes": codes,
        "macro_cols": macro_cols,
        "lift": lift,
        "fails": fails,
    }


def _same_members(got: np.ndarray, expected: np.ndarray) -> bool:
    return (
        got.dtype == object
        and got.shape == expected.shape
        and all(a is b for a, b in zip(got.ravel(), expected.ravel()))
    )


def _plane(codes: np.ndarray) -> SimpleNamespace:
    """The attributes of an analog bitmap the verdict paths read."""
    return SimpleNamespace(codes=codes, shape=codes.shape)


@given(case=_cases())
@settings(max_examples=400, deadline=None)
def test_verdict_planes_match_the_per_cell_loops(case):
    window, codes = case["window"], case["codes"]
    classifier = CellClassifier(
        _plane(codes), window, case["macro_cols"], short_code_lift=case["lift"]
    )
    verdicts = classifier.classify_all(case["fails"])
    expected = reference.classify_all(
        codes, window, case["macro_cols"], case["lift"], case["fails"]
    )
    assert _same_members(verdicts, expected)

    classified = AnalogBitmap.classify(_plane(codes), window)
    assert classified.dtype == np.dtype("<U16")
    np.testing.assert_array_equal(classified, reference.window_classify(window, codes))
    mask = AnalogBitmap.out_of_spec(_plane(codes), window)
    assert mask.dtype == bool
    np.testing.assert_array_equal(mask, reference.out_of_spec(window, codes))

    counts = classifier.verdict_counts(verdicts)
    assert list(counts.items()) == list(reference.verdict_counts(expected).items())
    report = PipelineReport(
        digital=SimpleNamespace(fail_count=0),
        scan=SimpleNamespace(stats=None),
        analog=None,
        verdicts=verdicts,
        findings=[],
        process=SimpleNamespace(summary=lambda: ""),
        repair=SimpleNamespace(
            success=True, uncovered=[], spare_rows_used=[], spare_cols_used=[]
        ),
    )
    anomalies, line = reference.summary_counts(expected)
    summary = report.summary().splitlines()
    assert summary[1] == f"analog anomalies    : {anomalies}"
    assert summary[2] == f"verdicts            : {line}"
    assert list(report.to_dict()["verdicts"].items()) == list(
        reference.dict_counts(expected).items()
    )


@given(case=_cases())
@settings(max_examples=100, deadline=None)
def test_the_anomaly_mask_the_analyzer_categorizes(case):
    window, codes = case["window"], case["codes"]
    verdicts = reference.classify_all(
        codes, window, case["macro_cols"], case["lift"], case["fails"]
    )
    seen = []

    def categorize(mask, line_fraction):
        seen.append(mask)
        return []

    with mock.patch.object(failure_analysis, "categorize", categorize):
        failure_analysis.FailureAnalyzer().analyze(verdicts)
    expected = reference.anomaly_mask(verdicts)
    if expected.any():
        (mask,) = seen
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, expected)
    else:
        assert not seen


_TECH = default_technology()
_ABACUS = Abacus.analytic(design_structure(_TECH, 4, 2, bitline_rows=8), 4, 2, bitline_rows=8)


@given(
    seed=st.integers(0, 2**32 - 1),
    zero_frac=st.sampled_from([0.0, 0.2, 1.0]),
    as_list=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_compensation_reads_the_reference_short_mask(seed, zero_frac, as_list):
    # The verdicts reach the compensation only through its SHORT mask,
    # so the full plane and a plane holding just the reference mask
    # (SHORT there, IN_SPEC elsewhere) must compensate identically.
    rng = np.random.default_rng(seed)
    array = EDRAMArray(8, 4, tech=_TECH, macro_rows=4, macro_cols=2)
    n = _ABACUS.num_steps
    codes = rng.integers(0, n + 1, (array.rows, array.cols))
    codes[rng.random(codes.shape) < zero_frac] = 0
    scan = ScanResult(codes, np.zeros(codes.shape), n, np.full(codes.shape, "c"))
    bitmap = AnalogBitmap(scan, _ABACUS)
    members = list(CellVerdict)
    verdicts = np.array(
        [[members[i] for i in row] for row in rng.integers(0, len(members), codes.shape)],
        dtype=object,
    )
    only_shorts = np.where(
        reference.short_mask(verdicts), CellVerdict.SHORT, CellVerdict.IN_SPEC
    ).astype(object)
    got = compensate_estimates(
        bitmap, array, verdicts.tolist() if as_list else verdicts
    )
    expected = compensate_estimates(bitmap, array, only_shorts)
    np.testing.assert_array_equal(got, expected)


@given(
    case=_cases(),
    bad=st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_out_of_range_codes_raise_the_reference_error(case, bad):
    window = case["window"]
    n = window.num_steps
    codes = case["codes"].copy()
    for where, low in bad:
        # A uint8 plane cannot hold -1.
        if low and codes.dtype != np.uint8:
            codes.flat[where % codes.size] = -1
        else:
            codes.flat[where % codes.size] = n + 1
    classifier = CellClassifier(
        _plane(codes), window, case["macro_cols"], short_code_lift=case["lift"]
    )
    calls = {
        "classify_all": (
            lambda: classifier.classify_all(case["fails"]),
            lambda: reference.classify_all(
                codes, window, case["macro_cols"], case["lift"], case["fails"]
            ),
        ),
        "classify": (
            lambda: AnalogBitmap.classify(_plane(codes), window),
            lambda: reference.window_classify(window, codes),
        ),
        "out_of_spec": (
            lambda: AnalogBitmap.out_of_spec(_plane(codes), window),
            lambda: reference.out_of_spec(window, codes),
        ),
    }
    for name, (planes, loops) in calls.items():
        with pytest.raises(CalibrationError) as expected:
            loops()
        with pytest.raises(CalibrationError) as got:
            planes()
        assert str(got.value) == str(expected.value), name


def test_the_window_table_is_classify_per_code():
    window = SpecificationWindow(code_lo=8, code_hi=12, num_steps=20, delta_i=4e-6)
    assert window.table == tuple(window.classify(code) for code in range(21))
    assert window == SpecificationWindow(8, 12, 20, 4e-6)
    assert hash(window) == hash(SpecificationWindow(8, 12, 20, 4e-6))
