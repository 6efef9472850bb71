"""The per-state charge solver and per-cell phase walk, kept as a reference.

The engine used to settle one network state at a time with a
union-find/dict loop, and to walk one target cell through phases 1–4 by
mutating the macro's cached network.  ``src/`` now settles stacks of
states (:meth:`repro.circuit.charge.CapacitorNetwork.settle_stack`) and
walks every target of a macro at once; the oracles in
``tests/property/test_charge_properties.py`` and
``tests/property/test_engine_oracle.py`` pin both against the loops
below, bit for bit.  Written against the network's state only, so the
reference shares no solver code with the engine.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.charge import CapacitorNetwork, ChargeState
from repro.errors import SingularCircuitError
from repro.measure.netlist_builder import _bitline_node
from repro.measure.result import FlowTrace
from repro.measure.sequencer import MeasurementSequencer


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _islands(net: CapacitorNetwork) -> _UnionFind:
    uf = _UnionFind(len(net._voltage))
    for ia, ib, closed in net._switches.values():
        if closed:
            uf.union(ia, ib)
    return uf


def island_of(net: CapacitorNetwork, node: str) -> frozenset[str]:
    """Names of all nodes shorted to ``node`` under the present switches."""
    uf = _islands(net)
    root = uf.find(net._index[node])
    return frozenset(n for n, i in net._index.items() if uf.find(i) == root)


def settle(net: CapacitorNetwork) -> ChargeState:
    """One settle of ``net``'s present state, as the per-state loop did it."""
    uf = _islands(net)
    n_nodes = len(net._voltage)
    roots = sorted({uf.find(i) for i in range(n_nodes)})

    island_drive: dict[int, float] = {}
    drive_holder: dict[int, int] = {}
    for idx, v in net._driven.items():
        r = uf.find(idx)
        if r in island_drive and abs(island_drive[r] - v) > 1e-12:
            holder = net._node_name(drive_holder[r])
            offender = net._node_name(idx)
            raise SingularCircuitError(
                f"sources at {island_drive[r]} V (node {holder!r}) and "
                f"{v} V (node {offender!r}) are shorted together",
                nodes=(holder, offender),
            )
        island_drive[r] = v
        drive_holder.setdefault(r, idx)

    floating = [r for r in roots if r not in island_drive]
    pos_f = {r: k for k, r in enumerate(floating)}
    nf = len(floating)
    a_matrix = np.zeros((nf, nf))
    b_vector = np.zeros(nf)

    for ia, ib, c in net._caps.values():
        va, vb = net._voltage[ia], net._voltage[ib]
        ra, rb = uf.find(ia), uf.find(ib)
        if ra in pos_f:
            b_vector[pos_f[ra]] += c * (va - vb)
        if rb in pos_f:
            b_vector[pos_f[rb]] += c * (vb - va)

    for ia, ib, c in net._caps.values():
        ra, rb = uf.find(ia), uf.find(ib)
        if ra == rb:
            continue
        for r_self, r_other in ((ra, rb), (rb, ra)):
            if r_self not in pos_f:
                continue
            i = pos_f[r_self]
            a_matrix[i, i] += c
            if r_other in pos_f:
                a_matrix[i, pos_f[r_other]] -= c
            else:
                b_vector[i] += c * island_drive[r_other]

    for r in floating:
        i = pos_f[r]
        if a_matrix[i, i] == 0.0:
            a_matrix[i, i] = 1.0
            b_vector[i] = net._voltage[r]

    if nf:
        x_prev = np.array([net._voltage[r] for r in floating])
        try:
            x = np.linalg.solve(a_matrix, b_vector)
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(
                a_matrix, b_vector - a_matrix @ x_prev, rcond=None
            )
            x = x_prev + delta
        if not np.all(np.isfinite(x)):
            delta, *_ = np.linalg.lstsq(
                a_matrix, b_vector - a_matrix @ x_prev, rcond=None
            )
            x = x_prev + delta
        if not np.all(np.isfinite(x)):
            raise SingularCircuitError("charge solve produced non-finite voltages")
    else:
        x = np.empty(0)

    new_v = list(net._voltage)
    for idx in range(n_nodes):
        r = uf.find(idx)
        if r in island_drive:
            new_v[idx] = island_drive[r]
        else:
            new_v[idx] = float(x[pos_f[r]])
    net._voltage = new_v
    return ChargeState({name: new_v[i] for name, i in net._index.items()})


def charge_phases(
    seq: MeasurementSequencer, row: int, lcol: int, trace: FlowTrace | None = None
) -> float:
    """Walk one target through phases 1–4 on ``seq``'s network; V_GS.

    The network is restored to its as-built state first, as every
    measurement does.
    """
    built = seq._charge_network()
    net = built.network
    mc = seq.macro.array.macro_cols
    vdd = seq.structure.tech.vdd

    for name in built.access_switches.values():
        net.close_switch(name)
    for col in range(mc):
        net.drive(_bitline_node(col), 0.0)
    net.drive("plate", 0.0)
    net.close_switch(built.lec_switch)
    state = settle(net)
    if trace is not None:
        trace.record("discharge", state["plate"], state["gate"])

    for (r, _c), name in built.access_switches.items():
        if r != row:
            net.open_switch(name)
    net.open_switch(built.lec_switch)
    for col in range(mc):
        if col != lcol:
            net.float_node(_bitline_node(col))
    net.float_node("plate")
    desired: list[tuple[str, float]] = [(_bitline_node(lcol), 0.0), ("plate", vdd)]
    desired += [(_bitline_node(col), vdd) for col in range(mc) if col != lcol]
    claimed: dict[frozenset, float] = {}
    for node, level in desired:
        island = island_of(net, node)
        holder = claimed.get(island)
        if holder is not None and holder != level:
            continue
        claimed[island] = level
        net.drive(node, level)
    state = settle(net)
    if trace is not None:
        trace.record("charge", state["plate"], state["gate"])

    if net.is_driven("plate"):
        net.float_node("plate")
    for col in range(mc):
        if col != lcol:
            net.float_node(_bitline_node(col))
    state = settle(net)
    if trace is not None:
        trace.record("isolate", state["plate"], state["gate"])

    net.close_switch(built.lec_switch)
    state = settle(net)
    if trace is not None:
        trace.record("share", state["plate"], state["gate"])
    return state["gate"]
