"""Per-rule tests: every ERC/PRM/UNT rule on known-good and -bad fixtures."""

import pytest

from repro.lint import (
    REGISTRY,
    lint_charge_network,
    lint_circuit,
    lint_flow,
    lint_technology,
)
from repro.lint.diagnostics import Severity
from repro.tech.parameters import default_technology, technology_013um
from tests.unit.lint import fixtures


# ---------------------------------------------------------------------------
# Known-good subjects are clean
# ---------------------------------------------------------------------------


def test_good_divider_is_clean():
    assert lint_circuit(fixtures.good_divider()).ok


def test_good_charge_network_is_clean():
    report = lint_charge_network(fixtures.good_charge_network())
    assert len(report) == 0


def test_good_flow_is_clean():
    built = fixtures.good_flow()
    assert len(lint_flow(built)) == 0


@pytest.mark.parametrize("tech", [default_technology(), technology_013um()])
def test_nominal_technologies_are_clean(tech):
    assert len(lint_technology(tech)) == 0


def test_healthy_measurement_circuit_is_clean():
    from repro.measure.netlist_builder import build_measurement_circuit

    array = fixtures.small_array()
    built = build_measurement_circuit(
        array.macro(0), 0, 0, fixtures.structure_for(array)
    )
    report = lint_circuit(built.circuit)
    assert report.ok, report.format_text()


# ---------------------------------------------------------------------------
# ERC001 floating-node
# ---------------------------------------------------------------------------


def test_erc001_flags_dangling_node():
    report = lint_circuit(fixtures.bad_floating_node())
    found = report.by_code("ERC001")
    assert len(found) == 1
    assert found[0].nodes == ("midd",)
    assert found[0].severity is Severity.ERROR
    assert not report.ok


def test_erc001_exempts_ground_and_driven_nodes():
    # A one-terminal source node is a legal stimulus, not a dangle.
    from repro.circuit.elements import VoltageSource
    from repro.circuit.netlist import Circuit

    ckt = Circuit("stub")
    ckt.add(VoltageSource("V1", "probe", "0", 1.0))
    report = lint_circuit(ckt, only=("ERC001",))
    assert len(report) == 0


# ---------------------------------------------------------------------------
# ERC002 no-dc-path-to-ground
# ---------------------------------------------------------------------------


def test_erc002_flags_capacitor_only_island():
    report = lint_circuit(fixtures.bad_no_dc_path(), only=("ERC002",))
    flagged = {node for d in report for node in d.nodes}
    assert flagged == {"island_a", "island_b"}
    assert not report.ok


def test_erc002_accepts_switch_and_mosfet_paths():
    # MOSFET channels and switches count as DC conduction.
    from repro.circuit.elements import Capacitor, Switch, VoltageSource
    from repro.circuit.mosfet import Mosfet
    from repro.circuit.netlist import Circuit
    from repro.units import fF

    tech = default_technology()
    ckt = Circuit("paths")
    ckt.add(VoltageSource("V1", "in", "0", 1.8))
    ckt.add(Switch("S1", "in", "a", 0.0))  # off-state still conducts (r_off)
    ckt.add(Mosfet("M1", "a", "in", "b", tech.nmos, w=1e-6, l=1e-6))
    ckt.add(Capacitor("C1", "b", "0", 30 * fF))
    assert len(lint_circuit(ckt, only=("ERC002",))) == 0


# ---------------------------------------------------------------------------
# ERC005 voltage-source-loop
# ---------------------------------------------------------------------------


def test_erc005_flags_parallel_sources():
    report = lint_circuit(fixtures.bad_vsource_loop(), only=("ERC005",))
    assert len(report) == 1
    assert set(report.diagnostics[0].nodes) == {"in", "0"}


def test_erc005_accepts_source_chains():
    # Series-stacked sources are fine; only a cycle over-determines.
    from repro.circuit.elements import Resistor, VoltageSource
    from repro.circuit.netlist import Circuit

    ckt = Circuit("stack")
    ckt.add(VoltageSource("V1", "a", "0", 1.0))
    ckt.add(VoltageSource("V2", "b", "a", 0.5))
    ckt.add(Resistor("R1", "b", "0", 1e3))
    assert len(lint_circuit(ckt, only=("ERC005",))) == 0


# ---------------------------------------------------------------------------
# ERC003 charge-trap
# ---------------------------------------------------------------------------


def test_erc003_flags_unreachable_charged_node():
    report = lint_charge_network(fixtures.bad_charge_trap(), subject="trap-net")
    found = report.by_code("ERC003")
    assert len(found) == 1
    assert found[0].nodes == ("orphan",)
    assert found[0].subject == "trap-net"


def test_erc003_driven_node_is_not_a_trap():
    net = fixtures.bad_charge_trap()
    net.drive("orphan", 0.0)
    assert len(lint_charge_network(net).by_code("ERC003")) == 0


# ---------------------------------------------------------------------------
# ERC004 phase-isolation-violation
# ---------------------------------------------------------------------------


def test_erc004_flags_short_defect_breaking_isolation():
    built = fixtures.bad_flow_isolation()
    report = lint_flow(built, row=0)
    found = report.by_code("ERC004")
    assert found, "SHORT defect must break step-3 isolation"
    assert any("s1_0" in d.nodes for d in found)
    assert any("ISOLATE" in d.message for d in found)


def test_erc004_flags_miswired_lec():
    report = lint_flow(fixtures.bad_flow_miswired_lec())
    messages = [d.message for d in report.by_code("ERC004")]
    assert any("miswired LEC" in m for m in messages)


def test_erc004_target_row_cells_are_legal():
    # The target row's access switches are *supposed* to close; measuring
    # row 1 of a healthy macro must not flag its own bitline connection.
    built = fixtures.good_flow()
    assert len(lint_flow(built, row=1)) == 0


def test_erc004_restores_network_state():
    built = fixtures.good_flow()
    before = built.network.snapshot()
    lint_flow(built, row=2)
    assert built.network.snapshot() == before


# ---------------------------------------------------------------------------
# PRM001 parameter-out-of-corner-range
# ---------------------------------------------------------------------------


def test_prm001_flags_out_of_envelope_card():
    report = lint_technology(fixtures.bad_corner_technology())
    found = report.by_code("PRM001")
    flagged = {d.message.split(" ")[0] for d in found}
    assert "nmos.vth0" in flagged
    assert "cell_capacitance" in flagged
    assert all(d.severity is Severity.WARNING for d in found)
    # Warnings never fail the check.
    assert report.ok


def test_prm001_accepts_corner_cards():
    from repro.tech.corners import Corner, corner_technology

    for corner in Corner:
        report = lint_technology(corner_technology(corner))
        assert len(report) == 0, f"corner {corner}: {report.format_text()}"


# ---------------------------------------------------------------------------
# UNT001 suspicious-unit-magnitude
# ---------------------------------------------------------------------------


def test_unt001_flags_farad_scale_capacitor():
    report = lint_circuit(fixtures.bad_unit_magnitude(), only=("UNT001",))
    assert len(report) == 1
    diag = report.diagnostics[0]
    assert "CSLIP" in diag.message
    assert diag.severity is Severity.WARNING


def test_unt001_checks_charge_networks_too():
    net = fixtures.good_charge_network()
    net.add_capacitor("CBIG", "plate", "0", 2.0)  # two farads
    report = lint_charge_network(net)
    assert any("CBIG" in d.message for d in report.by_code("UNT001"))


def test_unt001_ignores_waveform_stimuli():
    # Time-varying sources are built from already-checked design values.
    from repro.circuit.elements import Resistor, VoltageSource
    from repro.circuit.netlist import Circuit
    from repro.circuit.stimulus import Pulse

    ckt = Circuit("waveform")
    ckt.add(VoltageSource("V1", "in", "0", Pulse(0.0, 10e-9, 0.0, 1.8)))
    ckt.add(Resistor("R1", "in", "0", 1e3))
    assert len(lint_circuit(ckt, only=("UNT001",))) == 0


# ---------------------------------------------------------------------------
# Acceptance: every registered netlist rule fires on some fixture
# ---------------------------------------------------------------------------


def test_every_netlist_rule_code_is_exercised():
    seen = set()
    for code, builder, kind in fixtures.BAD_FIXTURES:
        subject = builder()
        if kind == "circuit":
            report = lint_circuit(subject)
        elif kind == "charge":
            report = lint_charge_network(subject)
        elif kind == "flow":
            report = lint_flow(subject)
        else:
            report = lint_technology(subject)
        assert code in report.codes(), f"fixture for {code} did not trigger it"
        seen.add(code)
    # Source and project rules are exercised by their own suites
    # (test_rules_ccy/_det/_flt); everything else must have a netlist
    # fixture here.
    other_codes = {
        spec.code
        for target in ("source", "project")
        for spec in REGISTRY.for_target(target)
    }
    assert seen | other_codes == set(REGISTRY.codes())
