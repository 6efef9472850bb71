"""Sanitize drills: the write-footprint contract under fire.

The acceptance scenario for the sanitizer: a parallel scan whose worker
is killed mid-macro (and respawned, and retried) must still produce a
footprint log whose rectangles are pairwise disjoint across distinct
tasks and cover the planes completely — retries rewrite their own
rectangles, they never trespass — with planes bit-exact against a
serial run.
"""

import numpy as np

from repro.edram.array import EDRAMArray
from repro.measure.config import ScanConfig
from repro.measure.scan import ArrayScanner
from repro.resilience import Fault, FaultPlan, RetryPolicy

GEOMETRY = dict(macro_rows=4, macro_cols=4)
RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, seed=0)


def _array():
    return EDRAMArray(8, 8, **GEOMETRY)


def _kill_fault():
    # Attempt 0 on macro 1 dies in every worker that tries it; the
    # retry (attempt 1) passes.
    return Fault("worker.scan_macro", kind="kill",
                 match={"macro": 1, "attempt": 0}, times=None)


def test_sanitized_chaos_scan_is_disjoint_covering_and_bit_exact():
    reference = ArrayScanner(_array()).scan(ScanConfig())

    result = ArrayScanner(_array()).scan(
        ScanConfig(
            jobs=2,
            sanitize=True,
            faults=FaultPlan([_kill_fault()]),
            retry=RETRY,
        )
    )
    # The kill really happened and the supervisor recovered from it.
    assert result.stats is not None
    assert result.stats.worker_respawns >= 1
    assert result.stats.macro_retries >= 1
    # The sanitizer audited every write and found the contract intact:
    # the retried macro rewrote its own rectangle, nothing overlapped,
    # nothing was left uncovered.
    report = result.sanitize_report
    assert report is not None
    assert report.ok, report.format_text()
    # And the planes survived the chaos bit-exact.
    assert np.array_equal(result.codes, reference.codes)
    assert np.array_equal(result.vgs, reference.vgs)


def test_sanitized_kernel_parallel_scan_is_clean():
    reference = ArrayScanner(_array()).scan(ScanConfig())
    result = ArrayScanner(_array()).scan(ScanConfig(jobs=2, sanitize=True))
    report = result.sanitize_report
    assert report is not None
    assert report.ok, report.format_text()
    assert np.array_equal(result.codes, reference.codes)


def test_sanitized_checkpoint_resume_covers_whole_plane(tmp_path):
    from repro.obs.ledger import RunLedger
    from repro.resilience import Checkpointer

    ledger = RunLedger(tmp_path)
    # The checkpoint persists once per macro-row slab (two macros here):
    # interrupting at the third macro leaves the first slab durable.
    interrupt = Fault(
        "scan.macro_done", error=KeyboardInterrupt(), after=2, times=1
    )
    array = _array()
    try:
        ArrayScanner(array).scan(
            ScanConfig(
                checkpoint=Checkpointer(ledger),
                faults=FaultPlan([interrupt]),
            )
        )
    except KeyboardInterrupt:
        pass
    from repro.resilience import list_checkpoints

    (state,) = list_checkpoints(ledger)
    assert 0 < len(state.completed) < array.num_macros

    resumed = ArrayScanner(_array()).scan(
        ScanConfig(
            sanitize=True,
            checkpoint=Checkpointer(ledger, resume=state.run_id),
        )
    )
    # Checkpointed macros enter the footprint as checkpoint[i] tasks, so
    # coverage holds across the resume seam without false overlaps.
    report = resumed.sanitize_report
    assert report is not None
    assert report.ok, report.format_text()
    reference = ArrayScanner(_array()).scan(ScanConfig())
    assert np.array_equal(resumed.codes, reference.codes)
