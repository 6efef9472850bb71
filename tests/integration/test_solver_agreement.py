"""Cross-validation of the three execution tiers.

The same measurement must yield the same answer whether computed by the
full MNA transistor-level transient, the exact ideal-switch charge
engine, or the vectorized closed form.  Transient-vs-static agreement is
allowed ±1 code (a V_GS landing within the sense chain's finite
transition of a converter boundary can legitimately resolve either way);
charge engine vs closed form must agree to numerical precision.
"""

import numpy as np
import pytest

from repro.edram.array import EDRAMArray
from repro.edram.defects import CellDefect, DefectKind
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.measure.sequencer import MeasurementSequencer
from repro.units import fF, mV


@pytest.mark.slow
@pytest.mark.parametrize("cm_ff", [15, 20, 30, 40, 50])
def test_transient_matches_charge_tier(tech, structure_2x2, cm_ff):
    arr = EDRAMArray(2, 2, tech=tech)
    arr.cell(0, 0).capacitance = cm_ff * fF
    seq = MeasurementSequencer(arr.macro(0), structure_2x2)
    static = seq.measure_charge(0, 0)
    dynamic = seq.measure_transient(0, 0)
    assert abs(dynamic.code - static.code) <= 1
    assert dynamic.vgs == pytest.approx(static.vgs, abs=20 * mV)


@pytest.mark.slow
def test_transient_matches_charge_for_out_of_range(tech, structure_2x2):
    arr = EDRAMArray(2, 2, tech=tech)
    arr.cell(0, 0).capacitance = 70 * fF
    seq = MeasurementSequencer(arr.macro(0), structure_2x2)
    assert seq.measure_transient(0, 0).code == structure_2x2.design.num_steps


@pytest.mark.slow
def test_transient_matches_charge_for_shorted_cell(tech, structure_2x2):
    arr = EDRAMArray(2, 2, tech=tech)
    arr.cell(0, 0).apply_defect(CellDefect(DefectKind.SHORT))
    seq = MeasurementSequencer(arr.macro(0), structure_2x2)
    assert seq.measure_transient(0, 0).code == 0


@pytest.mark.slow
def test_transient_matches_charge_for_open_cell(tech, structure_2x2):
    arr = EDRAMArray(2, 2, tech=tech)
    arr.cell(0, 0).apply_defect(CellDefect(DefectKind.OPEN))
    seq = MeasurementSequencer(arr.macro(0), structure_2x2)
    static = seq.measure_charge(0, 0)
    dynamic = seq.measure_transient(0, 0)
    assert abs(dynamic.code - static.code) <= 1


@pytest.mark.slow
def test_non_target_cell_measurement_agrees(tech, structure_2x2):
    arr = EDRAMArray(2, 2, tech=tech)
    arr.cell(1, 1).capacitance = 42 * fF
    seq = MeasurementSequencer(arr.macro(0), structure_2x2)
    static = seq.measure_charge(1, 1)
    dynamic = seq.measure_transient(1, 1)
    assert abs(dynamic.code - static.code) <= 1


def test_closed_form_matches_engine_on_random_arrays(tech, structure_8x2):
    rng = np.random.default_rng(17)
    for trial in range(3):
        cap = (30 + rng.normal(0, 3, (8, 2))) * fF
        arr = EDRAMArray(8, 2, tech=tech, capacitance_map=np.abs(cap) + 1 * fF)
        # Sprinkle non-bridge defects.
        kinds = [DefectKind.SHORT, DefectKind.OPEN, DefectKind.ACCESS_OPEN]
        for kind in kinds:
            r, c = rng.integers(0, 8), rng.integers(0, 2)
            if arr.cell(r, c).defect is None:
                arr.cell(r, c).apply_defect(CellDefect(kind))
        scanner = ArrayScanner(arr, structure_8x2)
        fast = scanner.scan()
        slow = scanner.scan(ScanConfig(force_engine=True))
        assert np.allclose(fast.vgs, slow.vgs, atol=1e-9), f"trial {trial}"
        assert np.array_equal(fast.codes, slow.codes), f"trial {trial}"


@pytest.mark.slow
def test_bridge_reads_anomalous_in_both_tiers(tech, structure_2x2):
    """Bridged-pair codes are contention-dependent; see DESIGN.md.

    A storage bridge creates a resistive fight between the grounded
    target bitline and the V_DD neighbour bitline during the CHARGE
    phase.  The ideal-switch tier models the zero-resistance end state
    (the pair reads over-range); the transistor tier shows the
    contention-limited intermediate (the pair reads visibly low).  The
    tier-independent invariant — the one diagnosis relies on — is that
    the bridged cell's code deviates clearly from a healthy cell's.
    """
    healthy_arr = EDRAMArray(2, 2, tech=tech)
    healthy = MeasurementSequencer(healthy_arr.macro(0), structure_2x2)
    healthy_code = healthy.measure_charge(0, 0).code

    arr = EDRAMArray(2, 2, tech=tech)
    arr.cell(0, 0).apply_defect(CellDefect(DefectKind.BRIDGE))
    seq = MeasurementSequencer(arr.macro(0), structure_2x2)
    static = seq.measure_charge(0, 0)
    dynamic = seq.measure_transient(0, 0)
    assert abs(static.code - healthy_code) >= 2
    assert abs(dynamic.code - healthy_code) >= 2
