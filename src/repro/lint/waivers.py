"""File-based lint waivers with expiry dates.

A waiver file is a JSON list of objects::

    [
      {"code": "DET002", "location": "noise.py",
       "reason": "legacy draw, seeded by the caller",
       "expires": "2026-12-31"}
    ]

``code`` is required and must match the diagnostic's rule code exactly;
``location`` (optional) is a substring match against the diagnostic's
``location`` or ``subject``, so one entry can waive a whole file or pin
a single line.  ``reason`` is free text kept for audit.  ``expires``
(optional, ISO ``YYYY-MM-DD``) bounds the waiver's lifetime: an expired
waiver **stops suppressing** and instead surfaces as a ``WVR001
expired-waiver`` WARNING naming what it used to hide — a waiver is a
debt with a due date, never a permanent mute.

Waived diagnostics stay in the report (``waived=True``) for audit, the
same semantics as the known-defect waivers in
:meth:`~repro.lint.diagnostics.LintReport.waive_nodes`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path
from typing import Iterable

from repro.errors import LintError
from repro.lint.diagnostics import Diagnostic, LintReport, Severity

__all__ = ["Waiver", "load_waivers", "apply_waivers"]

#: Synthetic diagnostic code for expired waivers (not a registry rule —
#: it annotates the waiver mechanism itself, not an analyzable subject).
EXPIRED_WAIVER_CODE = "WVR001"


@dataclass(frozen=True)
class Waiver:
    """One waiver entry: which findings it suppresses, and until when."""

    code: str
    location: str = ""
    reason: str = ""
    expires: str | None = None

    def __post_init__(self) -> None:
        if not self.code:
            raise LintError("waiver entry is missing the required 'code' field")
        if self.expires is not None:
            try:
                date.fromisoformat(self.expires)
            except ValueError as exc:
                raise LintError(
                    f"waiver for {self.code}: bad expires date "
                    f"{self.expires!r} (expected YYYY-MM-DD)"
                ) from exc

    def expired(self, today: date) -> bool:
        """True once ``today`` is past the expiry date (if any)."""
        return self.expires is not None and date.fromisoformat(self.expires) < today

    def matches(self, diagnostic: Diagnostic) -> bool:
        """True when this waiver covers ``diagnostic``."""
        if diagnostic.code != self.code:
            return False
        if not self.location:
            return True
        anchor = (diagnostic.location or "") + " " + diagnostic.subject
        return self.location in anchor


def load_waivers(path: str | Path) -> list[Waiver]:
    """Parse a waiver file; raises :class:`~repro.errors.LintError`."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise LintError(f"cannot read waiver file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LintError(f"malformed waiver file {path}: {exc}") from exc
    if not isinstance(raw, list):
        raise LintError(
            f"waiver file {path} must hold a JSON list of waiver objects"
        )
    waivers = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise LintError(f"waiver file {path}: entry {i} is not an object")
        unknown = set(entry) - {"code", "location", "reason", "expires"}
        if unknown:
            raise LintError(
                f"waiver file {path}: entry {i} has unknown keys "
                f"{sorted(unknown)}"
            )
        waivers.append(
            Waiver(
                code=str(entry.get("code", "")),
                location=str(entry.get("location", "")),
                reason=str(entry.get("reason", "")),
                expires=entry.get("expires"),
            )
        )
    return waivers


def apply_waivers(
    report: LintReport,
    waivers: Iterable[Waiver],
    today: date | None = None,
) -> LintReport:
    """Apply ``waivers`` to ``report`` in place; returns the report.

    Live waivers mark matching unwaived diagnostics ``waived=True``.
    Expired waivers suppress nothing; each expired waiver that *would*
    have matched something (or matched nothing at all — stale either
    way) adds one ``WVR001`` WARNING so the debt stays visible.
    """
    today = today if today is not None else date.today()
    waivers = list(waivers)
    expired_hits: dict[Waiver, int] = {}
    fresh: list[Diagnostic] = []
    for diagnostic in report.diagnostics:
        if diagnostic.waived:
            fresh.append(diagnostic)
            continue
        matched = next(
            (w for w in waivers if w.matches(diagnostic)), None
        )
        if matched is None:
            fresh.append(diagnostic)
        elif matched.expired(today):
            expired_hits[matched] = expired_hits.get(matched, 0) + 1
            fresh.append(diagnostic)
        else:
            fresh.append(replace(diagnostic, waived=True))
    report.diagnostics = fresh
    for waiver in waivers:
        if not waiver.expired(today):
            continue
        hits = expired_hits.get(waiver, 0)
        detail = (
            f"still matching {hits} finding(s)" if hits
            else "matching nothing (stale entry)"
        )
        reason = f" (reason was: {waiver.reason})" if waiver.reason else ""
        report.add(
            Diagnostic(
                code=EXPIRED_WAIVER_CODE,
                slug="expired-waiver",
                severity=Severity.WARNING,
                message=(
                    f"waiver for {waiver.code} expired {waiver.expires}, "
                    f"{detail}; fix the finding or renew the date{reason}"
                ),
                subject=waiver.location or waiver.code,
            )
        )
    return report
