"""Pluggable rule registry.

Every lint rule registers itself under a stable code (``ERC001``,
``PRM001``, ...) with a target kind declaring what it analyzes:

==============  ====================================================
``circuit``     a :class:`~repro.circuit.netlist.Circuit` netlist
``charge``      a :class:`~repro.circuit.charge.CapacitorNetwork`
``flow``        a macro + structure five-phase measurement flow
``technology``  a :class:`~repro.tech.parameters.TechnologyCard`
``source``      a Python source file (AST rules)
``project``     the project's own invariants (no per-file subject)
==============  ====================================================

Rules are plain functions decorated with :func:`rule`; the decorator
wraps them in a :class:`RuleSpec` and adds them to the module-level
registry.  The analyzer (:mod:`repro.lint.analyzer`) looks rules up by
target; the CLI can restrict execution to explicit codes.  Third-party
extensions register the same way — import order is the only plugin
mechanism needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import LintError
from repro.lint.diagnostics import Diagnostic, Severity

#: Signature of a rule body: (subject, context) -> iterable of findings.
RuleCheck = Callable[[object, dict[str, object]], Iterable[Diagnostic]]


@dataclass(frozen=True)
class RuleSpec:
    """Metadata plus the check callable for one registered rule."""

    code: str
    slug: str
    target: str
    severity: Severity
    summary: str
    check: RuleCheck

    def run(self, subject: object, context: dict[str, object] | None = None) -> list[Diagnostic]:
        """Execute the rule against ``subject``; returns its findings."""
        return list(self.check(subject, context or {}))

    def diagnostic(
        self,
        message: str,
        subject: str = "",
        nodes: tuple[str, ...] = (),
        location: str | None = None,
        severity: Severity | None = None,
    ) -> Diagnostic:
        """Build a finding stamped with this rule's code/slug/severity."""
        return Diagnostic(
            code=self.code,
            slug=self.slug,
            severity=severity or self.severity,
            message=message,
            subject=subject,
            nodes=nodes,
            location=location,
        )


VALID_TARGETS = (
    "circuit", "charge", "flow", "technology", "source", "project"
)


class RuleRegistry:
    """Ordered mapping of rule code -> :class:`RuleSpec`."""

    def __init__(self) -> None:
        self._rules: dict[str, RuleSpec] = {}

    def register(self, spec: RuleSpec) -> RuleSpec:
        """Add ``spec``; raises :class:`~repro.errors.LintError` on a
        duplicate code or unknown target kind."""
        if spec.code in self._rules:
            raise LintError(f"duplicate lint rule code {spec.code!r}")
        if spec.target not in VALID_TARGETS:
            raise LintError(
                f"rule {spec.code}: unknown target {spec.target!r} "
                f"(expected one of {VALID_TARGETS})"
            )
        self._rules[spec.code] = spec
        return spec

    def get(self, code: str) -> RuleSpec:
        """Rule registered under ``code``; raises on unknown codes."""
        try:
            return self._rules[code]
        except KeyError:
            known = ", ".join(sorted(self._rules))
            raise LintError(f"unknown lint rule code {code!r} (known: {known})") from None

    def __contains__(self, code: str) -> bool:
        return code in self._rules

    def __iter__(self) -> Iterator[RuleSpec]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def codes(self) -> list[str]:
        """All registered codes in registration order."""
        return list(self._rules)

    def for_target(self, target: str, only: Iterable[str] | None = None) -> list[RuleSpec]:
        """Rules of one target kind, optionally restricted to codes in ``only``."""
        if target not in VALID_TARGETS:
            raise LintError(f"unknown lint target {target!r}")
        wanted = None if only is None else set(only)
        return [
            spec
            for spec in self._rules.values()
            if spec.target == target and (wanted is None or spec.code in wanted)
        ]


#: The process-wide registry all built-in rules register into.
REGISTRY = RuleRegistry()


def rule(
    code: str,
    slug: str,
    target: str,
    severity: Severity = Severity.ERROR,
    summary: str = "",
) -> Callable[[RuleCheck], RuleSpec]:
    """Decorator: register the wrapped function as a lint rule.

    The function receives ``(subject, context)`` and yields/returns
    :class:`Diagnostic` instances; use ``spec.diagnostic(...)`` inside
    the body to stamp findings consistently (the spec is the decorated
    name after decoration).
    """

    def decorate(check: RuleCheck) -> RuleSpec:
        doc_first_line = (check.__doc__ or "").strip().splitlines()[0] if check.__doc__ else ""
        spec = RuleSpec(
            code=code,
            slug=slug,
            target=target,
            severity=severity,
            summary=summary or doc_first_line,
            check=check,
        )
        return REGISTRY.register(spec)

    return decorate
