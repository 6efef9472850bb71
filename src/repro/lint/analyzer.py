"""Analysis drivers: run registered rules over concrete subjects.

The functions here are the public face of the lint subsystem.  Each
takes one analyzable thing — a :class:`~repro.circuit.netlist.Circuit`,
a :class:`~repro.circuit.charge.CapacitorNetwork`, a built macro flow, a
technology card, a source tree — runs the matching registered rules, and
returns a :class:`~repro.lint.diagnostics.LintReport`.  Nothing in this
module invokes a solver; every check is purely structural.

:func:`preflight_macro` / :func:`preflight_array` are the hooks the
measurement layer calls (``scan(..., preflight=True)``): they lint the
macro's charge network and five-phase flow, waive findings anchored on
the storage nodes of *known* defects (those are expected — the scan
exists to measure them), and raise
:class:`~repro.errors.RuleViolation` on anything else.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.circuit.charge import CapacitorNetwork
from repro.circuit.netlist import Circuit
from repro.errors import RuleViolation
from repro.lint.diagnostics import LintReport
from repro.lint.registry import REGISTRY
from repro.lint.rules_unt import check_charge_network_units
from repro.tech.parameters import TechnologyCard

# Rule modules register themselves on import; pull them in explicitly so
# "import repro.lint.analyzer" alone yields the full built-in rule set.
from repro.lint import (  # noqa: F401
    pylint_rules,
    rules_ccy,
    rules_det,
    rules_erc,
    rules_flt,
    rules_prm,
    rules_unt,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.edram.array import EDRAMArray, MacroCell
    from repro.measure.netlist_builder import ChargeNetlist
    from repro.measure.structure import MeasurementStructure


def lint_circuit(circuit: Circuit, only: Iterable[str] | None = None) -> LintReport:
    """Run all circuit-target rules (ERC001/002/005, UNT001) on a netlist."""
    report = LintReport()
    for spec in REGISTRY.for_target("circuit", only):
        report.extend(spec.run(circuit))
    return report


def lint_charge_network(
    net: CapacitorNetwork,
    subject: str = "charge-network",
    only: Iterable[str] | None = None,
) -> LintReport:
    """Run charge-network rules (ERC003) plus the UNT001 value check."""
    report = LintReport()
    context: dict[str, object] = {"subject": subject}
    for spec in REGISTRY.for_target("charge", only):
        report.extend(spec.run(net, context))
    if only is None or "UNT001" in set(only):
        report.extend(check_charge_network_units(net, subject))
    return report


def lint_flow(
    built: "ChargeNetlist",
    row: int = 0,
    subject: str | None = None,
    only: Iterable[str] | None = None,
) -> LintReport:
    """Run flow rules (ERC004) on a built macro charge netlist."""
    report = LintReport()
    context: dict[str, object] = {"row": row}
    if subject is not None:
        context["subject"] = subject
    for spec in REGISTRY.for_target("flow", only):
        report.extend(spec.run(built, context))
    return report


def lint_technology(tech: TechnologyCard, only: Iterable[str] | None = None) -> LintReport:
    """Run technology-card rules (PRM001)."""
    report = LintReport()
    for spec in REGISTRY.for_target("technology", only):
        report.extend(spec.run(tech))
    return report


def lint_source(
    paths: Iterable[str | Path], only: Iterable[str] | None = None
) -> LintReport:
    """Run AST source rules (PY/ERC006/DET) over files and directories."""
    report = LintReport()
    specs = REGISTRY.for_target("source", only)
    for path in pylint_rules.iter_python_files([Path(p) for p in paths]):
        tree, context = pylint_rules.parse_source(path)
        for spec in specs:
            report.extend(spec.run(tree, context))
    return report


def lint_project(
    only: Iterable[str] | None = None,
    context: dict[str, object] | None = None,
) -> LintReport:
    """Run project-invariant rules (CCY004, FLT) — no per-file subject.

    These rules introspect the live codebase (dataclass fields vs the
    ledger fingerprint, the fleet's canonical shard planner) rather
    than a parsed artifact, so they take no subject and run once per
    lint invocation.  ``context`` forwards to every rule — the fleet
    merge passes its recorded partition through it so the FLT rules
    validate *that* plan instead of self-checking the planner.
    """
    report = LintReport()
    for spec in REGISTRY.for_target("project", only):
        report.extend(spec.run(None, context))
    return report


def expand_codes(selection: Iterable[str]) -> list[str]:
    """Expand code prefixes (``CCY``, ``DET``) into registered rule codes.

    Each token must match at least one registered code exactly or as a
    prefix; raises :class:`~repro.errors.LintError` on tokens matching
    nothing (a typo silently selecting zero rules would pass every gate).
    """
    from repro.errors import LintError

    codes = REGISTRY.codes()
    expanded: list[str] = []
    for token in selection:
        matches = [c for c in codes if c == token or c.startswith(token)]
        if not matches:
            raise LintError(
                f"--select token {token!r} matches no registered rule "
                f"(known: {', '.join(codes)})"
            )
        expanded.extend(c for c in matches if c not in expanded)
    return expanded


# ---------------------------------------------------------------------------
# Measurement pre-flight
# ---------------------------------------------------------------------------


def _defective_storage_nodes(macro: "MacroCell") -> set[str]:
    """Local storage-node names of every cell carrying a defect.

    These are the nodes whose ERC findings a pre-flight check waives:
    the injector put the fault there on purpose, and the measurement
    flow is designed to survive (and report) it.
    """
    nodes: set[str] = set()
    for row in range(macro.rows):
        for col in range(macro.array.macro_cols):
            if macro.cell(row, col).defect is not None:
                nodes.add(f"s{row}_{col}")
    return nodes


def preflight_macro(
    macro: "MacroCell",
    structure: "MeasurementStructure",
    built: "ChargeNetlist | None" = None,
    waive_known_defects: bool = True,
) -> LintReport:
    """Static checks for one macro's charge network and flow.

    Builds (or reuses) the macro's ideal-switch network, runs ERC003 +
    UNT001 on the network and ERC004 on the flow schedule, and — when
    ``waive_known_defects`` — marks findings on intentionally defective
    storage nodes as waived so only *unexpected* structure problems
    remain errors.
    """
    from repro.measure.netlist_builder import build_charge_network

    if built is None:
        built = build_charge_network(macro, structure)
    subject = f"macro[{macro.index}]"
    report = lint_charge_network(built.network, subject=subject)
    report.merge(lint_flow(built, subject=subject))
    if waive_known_defects:
        report.waive_nodes(_defective_storage_nodes(macro))
    return report


def preflight_array(
    array: "EDRAMArray",
    structure: "MeasurementStructure",
    waive_known_defects: bool = True,
) -> LintReport:
    """Pre-flight every macro of an array; one merged report."""
    report = LintReport()
    for macro in array.macros():
        report.merge(preflight_macro(macro, structure, waive_known_defects=waive_known_defects))
    return report


def raise_on_errors(report: LintReport) -> LintReport:
    """Raise :class:`~repro.errors.RuleViolation` if the report has errors.

    The exception message lists every violated rule code with its nodes,
    so a bad network is diagnosed as e.g. ``ERC004 phase-isolation-
    violation (plate, s1_0)`` instead of a singular-matrix blow-up three
    layers down.  Returns the report unchanged when clean.
    """
    errors = report.errors
    if errors:
        details = "; ".join(
            f"{d.code} {d.slug}" + (f" ({', '.join(d.nodes)})" if d.nodes else "")
            for d in errors
        )
        raise RuleViolation(
            f"pre-flight check failed with {len(errors)} violation(s): {details}",
            diagnostics=tuple(errors),
        )
    return report
