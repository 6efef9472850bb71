"""Static analysis: ERC netlist checks, parameter/unit sanity, source lint.

A rule-based static-analysis subsystem with a pluggable registry, stable
diagnostic codes and severity levels.  It analyzes
:class:`~repro.circuit.netlist.Circuit` netlists,
:class:`~repro.circuit.charge.CapacitorNetwork` charge networks,
five-phase measurement flows and the Python source tree itself — all
without invoking any solver.

Quick use::

    from repro.lint import lint_circuit
    report = lint_circuit(my_circuit)
    if not report.ok:
        print(report.format_text())

Rule codes (see :mod:`repro.lint.rules_erc` etc. for details):

========  ===========================  =====================================
ERC001    floating-node                dangling node, one element terminal
ERC002    no-dc-path-to-ground         capacitively isolated node group
ERC003    charge-trap                  unreachable charged node (charge net)
ERC004    phase-isolation-violation    plate not isolated in flow step 3/4
ERC005    voltage-source-loop          V-source loop or parallel pair
PRM001    parameter-out-of-corner-range  tech card outside corner envelope
UNT001    suspicious-unit-magnitude    element value implies an SI slip
PY001     raw-si-literal               femto-scale magic float in source
PY002     bare-assert                  assert as runtime validation
ERC006    swallowed-repro-error        broad except eats ReproError silently
CCY004    fingerprint-drift            config_fingerprint misses a data field
DET001    wallclock-in-measurement-path  time.time()/now() near results
DET002    unseeded-rng                 RNG without a seeded Generator
DET003    unordered-reduction          numeric reduction in set-hash order
DET004    completion-order-accumulation  float += in completion order
FLT001    shard-overlap                die claimed by >1 shard / off-wafer
FLT002    shard-gap                    die claimed by no shard
WVR001    expired-waiver               a file waiver outlived its expiry
========  ===========================  =====================================

The measurement layer exposes the ERC pass as a pre-flight check:
``ArrayScanner.scan(..., preflight=True)`` and
``MeasurementSequencer.preflight()`` diagnose a bad network with rule
codes (raising :class:`~repro.errors.RuleViolation`) instead of letting
it explode inside a solver.
"""

from __future__ import annotations

from repro.lint.analyzer import (
    expand_codes,
    lint_charge_network,
    lint_circuit,
    lint_flow,
    lint_project,
    lint_source,
    lint_technology,
    preflight_array,
    preflight_macro,
    raise_on_errors,
)
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.registry import REGISTRY, RuleRegistry, RuleSpec, rule
from repro.lint.waivers import Waiver, apply_waivers, load_waivers

__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "REGISTRY",
    "RuleRegistry",
    "RuleSpec",
    "rule",
    "lint_circuit",
    "lint_charge_network",
    "lint_flow",
    "lint_project",
    "lint_technology",
    "lint_source",
    "expand_codes",
    "preflight_macro",
    "preflight_array",
    "raise_on_errors",
    "Waiver",
    "load_waivers",
    "apply_waivers",
]
