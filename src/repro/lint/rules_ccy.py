"""Concurrency (CCY) rules: invariants shared across worker processes.

Process parallelism lives in the wafer fleet (:mod:`repro.fleet`), whose
shard workers are ``python -m repro.fleet.worker`` subprocesses (fork +
exec): no fork-captured state or shared-memory segment reaches them, so
what they share with the parent is on disk.  Every checkpoint resume
and shard merge is sound only while the config fingerprint covers every
data-affecting :class:`~repro.measure.config.ScanConfig` field:

``CCY004 fingerprint-drift`` (target ``project``)
    The run ledger's :func:`~repro.obs.ledger.config_fingerprint` —
    which also keys checkpoint resume and fleet shard merges — no longer
    covers every data-affecting (``compare=True``) field of
    :class:`~repro.measure.config.ScanConfig`, or carries a stale key.
    A missing field means two materially different configs fingerprint
    identically: resumed checkpoints replay the wrong run.  Checked
    against the live dataclasses, so the two definitions can never
    drift apart silently.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import rule


@rule(
    "CCY004",
    "fingerprint-drift",
    target="project",
    summary="config_fingerprint no longer covers ScanConfig's data fields",
)
def check_fingerprint_drift(
    subject: object, context: dict[str, object]
) -> Iterator[Diagnostic]:
    """Cross-check the ledger fingerprint against ScanConfig's fields.

    The fingerprint keys run-ledger provenance, checkpoint resume and
    fleet shard merges, so a ``compare=True`` field missing from it
    makes materially different runs indistinguishable.  ``context`` may
    override ``data_fields`` / ``fingerprint_keys`` / ``pinned_fields``
    (tests); by default the live dataclass and ledger are introspected.

    On top of the set-consistency checks, a **pinned** field list
    (default: ``technology``) must be present in both sets.  The
    consistency checks alone cannot catch a field being flipped to
    ``compare=False`` and dropped from the fingerprint *together* —
    for pinned fields that coordinated drift is an error too, because
    the backend choice changes the physics of every recorded run.
    """
    data_fields = context.get("data_fields")
    fingerprint_keys = context.get("fingerprint_keys")
    if data_fields is None or fingerprint_keys is None:
        from dataclasses import fields as dataclass_fields

        from repro.measure.config import ScanConfig
        from repro.obs.ledger import config_fingerprint

        data_fields = [f.name for f in dataclass_fields(ScanConfig) if f.compare]
        fingerprint_keys = set(config_fingerprint(ScanConfig()))
    data = set(data_fields)  # type: ignore[arg-type]
    prints = set(fingerprint_keys)  # type: ignore[arg-type]
    for name in sorted(data - prints):
        yield check_fingerprint_drift.diagnostic(
            f"data-affecting ScanConfig field {name!r} is missing from "
            "config_fingerprint(); two different runs would fingerprint "
            "identically (ledger provenance and resume keys both lie)",
            subject="ScanConfig vs config_fingerprint",
            nodes=(name,),
        )
    for name in sorted(prints - data):
        yield check_fingerprint_drift.diagnostic(
            f"config_fingerprint() carries {name!r} which is not a "
            "data-affecting (compare=True) ScanConfig field; stale key",
            subject="ScanConfig vs config_fingerprint",
            nodes=(name,),
            severity=Severity.WARNING,
        )
    pinned = context.get("pinned_fields", ("technology",))
    for name in pinned:  # type: ignore[union-attr]
        missing = [
            set_name
            for set_name, keys in (
                ("ScanConfig data fields", data),
                ("config_fingerprint()", prints),
            )
            if name not in keys
        ]
        if missing:
            yield check_fingerprint_drift.diagnostic(
                f"pinned field {name!r} must appear in the data-field "
                "and fingerprint key sets but is missing from "
                f"{', '.join(missing)}; the technology choice selects the "
                "cell physics, so dropping it anywhere makes runs against "
                "different memories indistinguishable",
                subject="pinned fingerprint fields",
                nodes=(name,),
            )
