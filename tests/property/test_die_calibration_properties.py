"""One calibration per lot: the shard spec's table is the worker's own solve.

A fleet solves the lot's :class:`~repro.wafer.DieCalibration` once and
ships it in every shard spec as JSON; the shard worker measures its
dies from that table and builds no structure or abacus.  For every
backend, wafer geometry, seed and die range:

1. after the JSON round trip, the table is bit for bit what the
   worker would have solved itself — the kernel constants of an
   :class:`~repro.measure.scan.ArrayScanner` over one die,
   ``design_structure``'s code boundaries and ``Abacus.analytic``'s bin
   midpoints;
2. the shard worker's result planes equal an in-process
   :meth:`~repro.wafer.WaferModel.measure_dies` over the same range.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.calibration.abacus import Abacus
from repro.calibration.design import design_structure
from repro.fleet.worker import run_shard
from repro.measure.scan import ArrayScanner
from repro.resilience import faults as faults_module
from repro.resilience.checkpoint import read_run
from repro.wafer import DieCalibration, WaferModel

#: (die_rows, die_cols, macro_rows, macro_cols) drawn per example.
GEOMETRIES = [(8, 4, 4, 2), (16, 8, 8, 2), (8, 8, 2, 4)]
DIAMETER = 7
#: Every phase but shrinking: each shrink step re-runs a shard worker,
#: so a failing example is reported unshrunk, in seconds.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

_PLANES = ("die_means", "die_sigmas", "die_vgs", "die_codes", "die_quality")


def _own_solve(model):
    """The calibration a worker would solve from its wafer parameters."""
    c_lo, c_hi, num_steps = model._backend.measurement_range()
    structure = design_structure(
        model.tech, model.macro_rows, model.macro_cols,
        c_lo=c_lo, c_hi=c_hi, num_steps=num_steps, bitline_rows=model.die_rows,
    )
    abacus = Abacus.analytic(
        structure, model.macro_rows, model.macro_cols, bitline_rows=model.die_rows,
    )
    array = model._backend.array_class()(
        model.die_rows, model.die_cols, tech=model.tech,
        macro_cols=model.macro_cols, macro_rows=model.macro_rows,
    )
    constants = ArrayScanner(array, structure).kernel_constants()
    return constants, structure.code_boundaries(), abacus.mids


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("technology", ["edram", "fecap", "1t"])
@settings(max_examples=20, deadline=None, phases=UNSHRUNK)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(0, 2**31 - 1),
    cut=st.floats(0.0, 1.0),
)
def test_spec_table_is_the_workers_own_solve(technology, geometry, seed, cut):
    die_rows, die_cols, macro_rows, macro_cols = geometry
    wafer = {
        "diameter_dies": DIAMETER, "die_rows": die_rows, "die_cols": die_cols,
        "macro_rows": macro_rows, "macro_cols": macro_cols, "seed": seed,
        "technology": technology,
    }
    spec_table = json.loads(json.dumps(WaferModel(**wafer).die_calibration().to_json()))
    shipped = DieCalibration.from_json(spec_table)

    constants, boundaries, mids = _own_solve(WaferModel(**wafer))
    assert dataclasses.astuple(shipped.constants) == dataclasses.astuple(constants)
    assert [type(v) for v in dataclasses.astuple(shipped.constants)] == [
        type(v) for v in dataclasses.astuple(constants)
    ]
    assert _bits(shipped.boundaries) == _bits(boundaries)
    assert _bits(shipped.mids) == _bits(mids)
    assert shipped.num_steps == len(boundaries) == len(mids) - 1

    total = len(WaferModel(**wafer).sites())
    lo = min(int(cut * total), total - 1)
    expected = WaferModel(**wafer).measure_dies((lo, total))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        spec = {
            "shard_id": 0, "die_range": [lo, total], "wafer": wafer,
            "calibration": spec_table, "ledger_root": str(root / "ledger"),
            "lease_path": str(root / "lease.json"),
            "result_path": str(root / "result.npz"),
        }
        try:
            assert run_shard(spec) == 0
        finally:
            # run_shard marks this process as a fleet worker.
            faults_module._IN_WORKER = False
            faults_module.install_plan(None)
        result = read_run(root / "result.npz", "shard").arrays
    for name in _PLANES:
        np.testing.assert_array_equal(result[name], getattr(expected, name), err_msg=name)
