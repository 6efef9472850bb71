"""Property-based tests of the measurement flow and scan tiers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration.design import design_structure
from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.measure.sequencer import MeasurementSequencer
from repro.tech.parameters import default_technology
from repro.units import fF

_TECH = default_technology()
_STRUCTURE_2X2 = design_structure(_TECH, 2, 2)
_STRUCTURE_4X2 = design_structure(_TECH, 4, 2)


@given(cm=st.floats(min_value=1.0, max_value=120.0))
@settings(max_examples=60, deadline=None)
def test_vgs_bounded_and_code_valid(cm):
    arr = EDRAMArray(2, 2, tech=_TECH)
    arr.cell(0, 0).capacitance = cm * fF
    result = MeasurementSequencer(arr.macro(0), _STRUCTURE_2X2).measure_charge(0, 0)
    assert 0.0 <= result.vgs < _TECH.vdd
    assert 0 <= result.code <= 20


@given(cm1=st.floats(5.0, 100.0), cm2=st.floats(5.0, 100.0))
@settings(max_examples=60, deadline=None)
def test_measurement_monotone_in_capacitance(cm1, cm2):
    if cm1 > cm2:
        cm1, cm2 = cm2, cm1

    def vgs_of(cm):
        arr = EDRAMArray(2, 2, tech=_TECH)
        arr.cell(0, 0).capacitance = cm * fF
        return MeasurementSequencer(arr.macro(0), _STRUCTURE_2X2).measure_charge(0, 0).vgs

    assert vgs_of(cm1) <= vgs_of(cm2) + 1e-12


@given(
    caps=st.lists(st.floats(5.0, 60.0), min_size=8, max_size=8),
    defect_idx=st.integers(0, 7),
    kind=st.sampled_from(
        [None, DefectKind.SHORT, DefectKind.OPEN, DefectKind.ACCESS_OPEN]
    ),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_always_matches_engine(caps, defect_idx, kind):
    cap_map = np.array(caps).reshape(4, 2) * fF
    arr = EDRAMArray(4, 2, tech=_TECH, capacitance_map=cap_map)
    if kind is not None:
        arr.cell(defect_idx // 2, defect_idx % 2).apply_defect(CellDefect(kind))
    scanner = ArrayScanner(arr, _STRUCTURE_4X2)
    fast = scanner.scan()
    slow = scanner.scan(ScanConfig(force_engine=True))
    assert np.allclose(fast.vgs, slow.vgs, atol=1e-9)
    assert np.array_equal(fast.codes, slow.codes)


@given(target=st.tuples(st.integers(0, 3), st.integers(0, 1)))
@settings(max_examples=20, deadline=None)
def test_measurement_independent_of_target_position_on_uniform_array(target):
    arr = EDRAMArray(4, 2, tech=_TECH)
    result = MeasurementSequencer(arr.macro(0), _STRUCTURE_4X2).measure_charge(*target)
    reference = MeasurementSequencer(arr.macro(0), _STRUCTURE_4X2).measure_charge(0, 0)
    assert abs(result.vgs - reference.vgs) < 1e-12
