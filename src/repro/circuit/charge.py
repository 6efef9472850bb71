"""Exact charge-redistribution solver for switched-capacitor networks.

The measurement flow's first four phases are pure switched-capacitor
operations: capacitors are grounded, charged, isolated, and finally
shared.  For those, transistor dynamics only determine *how fast* nodes
settle (fractions of a nanosecond against 10 ns phases), not *where* they
settle — so an exact charge-conservation solve over the capacitor network
gives the same final voltages as the full transient at a tiny fraction of
the cost.  This is the engine behind array-scale scans (10⁴+ cells);
``tests/integration/test_solver_agreement.py`` pins it against the MNA
transient.

Model
-----
- Named nodes, each *driven* (ideal source) or *floating*.
- Linear capacitors between nodes.
- Named ideal switches that short two nodes when closed.

After any reconfiguration, :meth:`CapacitorNetwork.settle` computes the
new node voltages: switch closures merge nodes into electrical islands;
each floating island conserves the total plate charge it held before the
reconfiguration; driven islands take their source voltage.

:meth:`CapacitorNetwork.settle_stack` is the one solver behind it: it
settles K states of the same capacitor graph at once — each with its own
switch pattern (as :class:`Islands`), drives and pre-settle voltages —
assembling every state's charge equations with ``np.add.at`` and solving
all systems of one size with a single stacked ``np.linalg.solve``.
``settle()`` is a stack of one.  The measurement sequencer stacks every
target cell of a macro this way; ``tests/reference_charge.py`` keeps the
per-state loop it replaced as the bit-exact reference.

The engine assumes pass devices transfer full levels (valid here because
wordlines are boosted to V_PP > V_DD + V_TH; the MNA tier models the real
devices and the cross-validation tests confirm agreement).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import NetlistError, SingularCircuitError
from repro.obs.metrics import active_metrics


@dataclass(frozen=True)
class ChargeState:
    """Snapshot of node voltages after a settle, keyed by node name."""

    voltages: dict[str, float]

    def __getitem__(self, node: str) -> float:
        return self.voltages[node]


@dataclass(frozen=True)
class Islands:
    """The electrical islands of one switch pattern.

    ``labels[i]`` is the island of node ``i``; islands are numbered in
    ascending order of their union-find root, and ``roots[k]`` is island
    ``k``'s root node (the node whose voltage an isolated floating island
    keeps).  ``label_list`` is ``labels`` as Python ints for scalar loops.
    """

    labels: np.ndarray
    roots: np.ndarray
    label_list: tuple[int, ...]

    @classmethod
    def from_switches(cls, size: int, closed: Iterable[tuple[int, int]]) -> "Islands":
        """Label ``size`` nodes joined by the ``closed`` switch endpoints, in order.

        Each closed switch ``(a, b)`` hangs ``b``'s root under ``a``'s, as
        a union-find does.  Path halving re-points nodes but never
        changes a root, so the final roots are read off by pointer
        jumping.
        """
        parent = list(range(size))
        for a, b in closed:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[b] = a
        root = np.array(parent, dtype=np.intp)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        is_root = root == np.arange(size)
        labels = (np.cumsum(is_root) - 1)[root]
        return cls(labels, np.flatnonzero(is_root), tuple(labels.tolist()))

    @property
    def count(self) -> int:
        """Number of islands."""
        return len(self.roots)


#: Bytes one stacked chunk of charge systems may hold (matrices plus
#: assembly indices); larger stacks are solved in several chunks.
_STACK_BYTES = 1 << 24


class CapacitorNetwork:
    """A reconfigurable network of capacitors, sources and ideal switches.

    Typical usage::

        net = CapacitorNetwork()
        net.add_capacitor("CM", "plate", "0", 30e-15)
        net.add_capacitor("CREF", "gate", "0", 28e-15)
        net.add_switch("LEC", "plate", "gate")
        net.drive("plate", 1.8)
        net.settle()
        net.float_node("plate")
        net.close_switch("LEC")
        state = net.settle()
        state["gate"]   # charge-sharing result

    The ground node ``"0"`` always exists and is driven at 0 V.
    """

    GROUND = "0"

    def __init__(self) -> None:
        self._index: dict[str, int] = {self.GROUND: 0}
        self._voltage = [0.0]
        self._driven: dict[int, float] = {0: 0.0}
        # capacitors: name -> (node_a, node_b, farads)
        self._caps: dict[str, tuple[int, int, float]] = {}
        # switches: name -> (node_a, node_b, closed)
        self._switches: dict[str, tuple[int, int, bool]] = {}
        # settle() runs several times per measured cell; cache its
        # counter per ambient registry to keep the per-settle cost at
        # one contextvar read plus an identity check.
        self._metrics_registry: object | None = None
        self._settle_counter: Any = None
        # Every capacitor's ends and farads as arrays, in insertion
        # order; rebuilt after a capacitor edit.
        self._cap_arrays: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_node(self, name: str, voltage: float = 0.0) -> str:
        """Register a floating node (idempotent); returns the name."""
        if not name:
            raise NetlistError("node name must be non-empty")
        if name not in self._index:
            self._index[name] = len(self._voltage)
            self._voltage.append(float(voltage))
        return name

    def add_capacitor(self, name: str, a: str, b: str, capacitance: float) -> None:
        """Add a linear capacitor between nodes ``a`` and ``b``."""
        if capacitance < 0:
            raise NetlistError(f"capacitor {name!r}: capacitance must be >= 0")
        if name in self._caps:
            raise NetlistError(f"duplicate capacitor name {name!r}")
        ia = self._index[self.add_node(a)]
        ib = self._index[self.add_node(b)]
        self._caps[name] = (ia, ib, float(capacitance))
        self._cap_arrays = None

    def set_capacitance(self, name: str, capacitance: float) -> None:
        """Change the value of an existing capacitor (defect injection)."""
        if name not in self._caps:
            raise NetlistError(f"no capacitor named {name!r}")
        if capacitance < 0:
            raise NetlistError("capacitance must be >= 0")
        ia, ib, _ = self._caps[name]
        self._caps[name] = (ia, ib, float(capacitance))
        self._cap_arrays = None

    def capacitance(self, name: str) -> float:
        """Value of capacitor ``name`` in farads."""
        try:
            return self._caps[name][2]
        except KeyError:
            raise NetlistError(f"no capacitor named {name!r}") from None

    def add_switch(self, name: str, a: str, b: str, closed: bool = False) -> None:
        """Add an ideal switch between nodes ``a`` and ``b``."""
        if name in self._switches:
            raise NetlistError(f"duplicate switch name {name!r}")
        ia = self._index[self.add_node(a)]
        ib = self._index[self.add_node(b)]
        self._switches[name] = (ia, ib, bool(closed))

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------

    def drive(self, node: str, voltage: float) -> None:
        """Attach an ideal source holding ``node`` at ``voltage``."""
        idx = self._index[self.add_node(node)]
        self._driven[idx] = float(voltage)

    def float_node(self, node: str) -> None:
        """Detach any source from ``node``; it keeps its present voltage."""
        if node == self.GROUND:
            raise NetlistError("the ground node cannot be floated")
        idx = self._index[self.add_node(node)]
        self._driven.pop(idx, None)

    def is_driven(self, node: str) -> bool:
        """True if ``node`` currently has a source attached."""
        return self._index.get(node, -1) in self._driven

    def close_switch(self, name: str) -> None:
        """Close (short) the named switch."""
        self._set_switch(name, True)

    def open_switch(self, name: str) -> None:
        """Open the named switch."""
        self._set_switch(name, False)

    def _set_switch(self, name: str, closed: bool) -> None:
        try:
            ia, ib, _ = self._switches[name]
        except KeyError:
            raise NetlistError(f"no switch named {name!r}") from None
        self._switches[name] = (ia, ib, closed)

    def switch_closed(self, name: str) -> bool:
        """True if the named switch is currently closed."""
        try:
            return self._switches[name][2]
        except KeyError:
            raise NetlistError(f"no switch named {name!r}") from None

    # ------------------------------------------------------------------
    # State snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        """Capture voltages, drives and switch states for :meth:`restore`.

        The snapshot covers *state* only, not topology: restoring a
        snapshot on a network whose nodes or switches changed since the
        capture raises.  Taking a snapshot right after construction and
        restoring it before each reuse makes a cached network exactly
        equivalent to a freshly built one.
        """
        return (
            list(self._voltage),
            dict(self._driven),
            {name: closed for name, (_, _, closed) in self._switches.items()},
        )

    def restore(self, snap: tuple) -> None:
        """Return the network to a snapshot taken on this same topology."""
        voltages, driven, switches = snap
        if len(voltages) != len(self._voltage) or switches.keys() != self._switches.keys():
            raise NetlistError("snapshot belongs to a different network topology")
        self._voltage = list(voltages)
        self._driven = dict(driven)
        for name, closed in switches.items():
            ia, ib, _ = self._switches[name]
            self._switches[name] = (ia, ib, closed)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def voltage(self, node: str) -> float:
        """Present voltage of ``node`` (as of the last settle/drive)."""
        try:
            return self._voltage[self._index[node]]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    def node_index(self, node: str) -> int:
        """Index of ``node`` in :meth:`voltage_vector` and :class:`Islands`."""
        try:
            return self._index[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    def voltage_vector(self) -> np.ndarray:
        """Present node voltages as an array indexed by :meth:`node_index`."""
        return np.array(self._voltage)

    def drives(self) -> dict[int, float]:
        """Copy of the attached sources, node index → volts, in attach order."""
        return dict(self._driven)

    @property
    def node_names(self) -> list[str]:
        """All node names including ground."""
        return list(self._index)

    def _node_name(self, index: int) -> str:
        for name, i in self._index.items():
            if i == index:
                return name
        raise NetlistError(f"no node with index {index}")  # pragma: no cover - internal

    def capacitors(self) -> Iterator[tuple[str, str, str, float]]:
        """Yield ``(name, node_a, node_b, farads)`` for every capacitor.

        Read-only topology view for inspection tooling (the ERC linter);
        insertion order.
        """
        names = {i: n for n, i in self._index.items()}
        for cap_name, (ia, ib, c) in self._caps.items():
            yield (cap_name, names[ia], names[ib], c)

    def switches(self) -> Iterator[tuple[str, str, str, bool]]:
        """Yield ``(name, node_a, node_b, closed)`` for every switch.

        Read-only topology view for inspection tooling; insertion order.
        """
        names = {i: n for n, i in self._index.items()}
        for sw_name, (ia, ib, closed) in self._switches.items():
            yield (sw_name, names[ia], names[ib], closed)

    def island_of(self, node: str) -> set[str]:
        """Names of all nodes electrically shorted to ``node`` right now."""
        labels = self.islands().label_list
        own = labels[self._index[node]]
        return {n for n, i in self._index.items() if labels[i] == own}

    def total_charge(self, nodes: set[str]) -> float:
        """Total plate charge (coulombs) held by the given node set."""
        indices = {self._index[n] for n in nodes}
        q = 0.0
        for ia, ib, c in self._caps.values():
            va, vb = self._voltage[ia], self._voltage[ib]
            if ia in indices:
                q += c * (va - vb)
            if ib in indices:
                q += c * (vb - va)
        return q

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def islands(self, overrides: Mapping[str, bool] | None = None) -> Islands:
        """The islands of the present switch states, or of ``overrides``.

        ``overrides`` maps switch names to a closed state that replaces
        the present one for this labelling only; the network is not
        changed.  Closed switches join nodes in switch insertion order.
        """
        overrides = overrides or {}
        closed = [
            (ia, ib)
            for name, (ia, ib, state) in self._switches.items()
            if overrides.get(name, state)
        ]
        return Islands.from_switches(len(self._voltage), closed)

    def settle(self) -> ChargeState:
        """Compute post-reconfiguration voltages and return a snapshot.

        A stack of one through :meth:`settle_stack`.  Raises
        :class:`SingularCircuitError` if two sources with different
        voltages are shorted together.
        """
        voltages, errors = self.settle_stack(
            [self.islands()], [self._driven], np.array([self._voltage])
        )
        if errors[0] is not None:
            raise errors[0]
        new_v = voltages[0].tolist()
        self._voltage = new_v
        return ChargeState({name: new_v[i] for name, i in self._index.items()})

    def settle_stack(
        self,
        islands: Sequence[Islands],
        drives: Sequence[Mapping[int, float]],
        voltages: np.ndarray,
    ) -> tuple[np.ndarray, list[SingularCircuitError | None]]:
        """Settle K states of this network's capacitor graph at once.

        State ``k`` has the switch pattern ``islands[k]``, the sources
        ``drives[k]`` (node index → volts, in attach order) and the
        pre-settle node voltages ``voltages[k]``.  Returns the settled
        ``(K, nodes)`` voltages and one error per state: ``None``, or the
        :class:`SingularCircuitError` that state would raise alone (its
        row of the result is left as given).  The network itself is not
        changed.

        Each state is solved exactly as a lone :meth:`settle` would, bit
        for bit: islands in root order, initial charges then coupling
        terms accumulated in capacitor order, one LAPACK solve per
        system (stacked per system size), and the minimal-norm fallback
        per system.
        """
        metrics = active_metrics()
        if metrics is not self._metrics_registry:
            self._metrics_registry = metrics
            self._settle_counter = metrics.counter(
                "charge.settles", "charge-network settle solves"
            )
        voltages = np.asarray(voltages, dtype=float)
        count = len(voltages)
        self._settle_counter.inc(count)
        errors: list[SingularCircuitError | None] = [None] * count
        out = voltages.copy()
        if not count:
            return out, errors

        # Island labels of every state; states sharing an Islands share a row.
        patterns: dict[int, int] = {}
        distinct: list[Islands] = []
        which = np.empty(count, dtype=np.intp)
        for k, isl in enumerate(islands):
            row = patterns.get(id(isl))
            if row is None:
                row = patterns[id(isl)] = len(distinct)
                distinct.append(isl)
            which[k] = row
        width = max(isl.count for isl in distinct)
        roots = np.zeros((len(distinct), width), dtype=np.intp)
        exists = np.zeros((len(distinct), width), dtype=bool)
        for row, isl in enumerate(distinct):
            roots[row, : isl.count] = isl.roots
            exists[row, : isl.count] = True
        labels = np.stack([isl.labels for isl in distinct])[which]
        roots, exists = roots[which], exists[which]

        # Per-island drive of each state, in drive order: an island takes
        # its last source's level, and a source more than 1e-12 V from
        # the level its island holds so far is a conflict.
        per_state = [len(d) for d in drives]
        state = np.repeat(np.arange(count), per_state)
        nodes = np.fromiter(chain.from_iterable(drives), np.intp, len(state))
        levels = np.fromiter(
            chain.from_iterable(d.values() for d in drives), float, len(state)
        )
        key = state * width + labels[state, nodes]
        order = np.argsort(key, kind="stable")
        key, levels = key[order], levels[order]
        same = key[1:] == key[:-1]
        clash = same & (np.abs(levels[1:] - levels[:-1]) > 1e-12)
        if clash.any():
            for k in set(state[order][1:][clash].tolist()):
                errors[k] = self._drive_conflict(distinct[which[k]], drives[k])
        last = np.append(~same, True)
        driven = np.zeros((count, width), dtype=bool)
        level = np.zeros((count, width))
        driven.flat[key[last]] = True
        level.flat[key[last]] = levels[last]

        floating = exists & ~driven
        sizes = floating.sum(axis=1)
        fpos = np.cumsum(floating, axis=1) - 1
        fpos[~floating] = -1
        each = np.arange(count)[:, None]
        node_pos = fpos[each, labels]
        node_level = level[each, labels]
        live = np.array([e is None for e in errors])
        ends, cap = self._capacitor_arrays()
        for size in sorted(set(sizes[live].tolist())):
            group = np.flatnonzero(live & (sizes == size))
            state_bytes = 8 * (size * size + 16 * len(cap) + 4 * voltages.shape[1])
            step = max(1, _STACK_BYTES // state_bytes)
            for first in range(0, len(group), step):
                chunk = group[first : first + step]
                froot = roots[chunk][floating[chunk]].reshape(len(chunk), size)
                x, failed = self._solve_chunk(
                    size, ends, cap, labels[chunk], node_pos[chunk],
                    node_level[chunk], voltages[chunk], froot,
                )
                pos = node_pos[chunk]
                if size:
                    gathered = x[each[: len(chunk)], np.maximum(pos, 0)]
                    out[chunk] = np.where(pos >= 0, gathered, node_level[chunk])
                else:
                    out[chunk] = node_level[chunk]
                for j in failed:
                    k = int(chunk[j])
                    out[k] = voltages[k]
                    errors[k] = SingularCircuitError(
                        "charge solve produced non-finite voltages"
                    )
        return out, errors

    def _drive_conflict(
        self, islands: Islands, drives: Mapping[int, float]
    ) -> SingularCircuitError | None:
        """The error for the first clash of a state's sources, if any."""
        island_drive: dict[int, float] = {}
        holder: dict[int, int] = {}
        for idx, v in drives.items():
            r = islands.label_list[idx]
            if r in island_drive and abs(island_drive[r] - v) > 1e-12:
                first = self._node_name(holder[r])
                offender = self._node_name(idx)
                return SingularCircuitError(
                    f"sources at {island_drive[r]} V (node {first!r}) and "
                    f"{v} V (node {offender!r}) are shorted together",
                    nodes=(first, offender),
                )
            island_drive[r] = v
            holder.setdefault(r, idx)
        return None

    def _capacitor_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ends, farads)``: each capacitor's (a, b) nodes flattened, in order."""
        if self._cap_arrays is None:
            caps = list(self._caps.values())
            self._cap_arrays = (
                np.array([(ia, ib) for ia, ib, _ in caps], dtype=np.intp).reshape(-1),
                np.array([c for _, _, c in caps], dtype=float),
            )
        return self._cap_arrays

    @staticmethod
    def _solve_chunk(
        size: int,
        ends: np.ndarray,
        cap: np.ndarray,
        labels: np.ndarray,
        node_pos: np.ndarray,
        node_level: np.ndarray,
        voltages: np.ndarray,
        froot: np.ndarray,
    ) -> tuple[np.ndarray, list[int]]:
        """Assemble and solve G same-size systems; ``(x, failed rows)``.

        ``ends`` lists every capacitor's two nodes, capacitor by
        capacitor.  ``node_pos[g, i]`` is node ``i``'s floating-island
        position in state ``g`` (−1 when its island is driven, at
        ``node_level``); ``froot`` holds each floating island's root node.
        """
        states = len(voltages)
        if not size:
            return np.empty((states, 0)), []
        shape = (states, len(cap), 2)  # state, capacitor, (a, b) end
        pos = np.take(node_pos, ends, axis=1).reshape(shape)
        other = pos[:, :, ::-1]
        volts = np.take(voltages, ends, axis=1).reshape(shape)
        # Flat slots of each end's island in b and on A's diagonal, and
        # of the (end, other end) entry of A; terms that do not apply
        # go to one spare slot past the end, which is dropped.
        b_slot = pos + (np.arange(states) * size)[:, None, None]
        b_spare = states * size
        a_spare = b_spare * size
        diag_slot = b_slot * size + pos
        off_slot = diag_slot - pos + other

        # Initial charge of each floating island, in capacitor order:
        # c·(va − vb) onto a's island, then c·(vb − va) = −c·(va − vb)
        # onto b's.
        q = cap * (volts[:, :, 0] - volts[:, :, 1])
        floating = pos >= 0
        b = np.zeros(b_spare + 1)
        _accumulate(b, np.where(floating, b_slot, b_spare), q[:, :, None] * _SIDES)

        # Capacitive coupling between different islands, in capacitor
        # order: the diagonal and a floating neighbour into A, a driven
        # neighbour's charge into b.
        island = np.take(labels, ends, axis=1).reshape(shape)
        coupled = floating & (island != island[:, :, ::-1])
        cap_each = np.broadcast_to(cap[:, None], shape)
        a = np.zeros(a_spare + 1)
        _accumulate(a, np.where(coupled, diag_slot, a_spare), cap_each)
        _accumulate(a, np.where(coupled & (other >= 0), off_slot, a_spare), -cap_each)
        level = np.take(node_level, ends, axis=1).reshape(shape)[:, :, ::-1]
        _accumulate(b, np.where(coupled & (other < 0), b_slot, b_spare), cap_each * level)
        a, b = a[:a_spare], b[:b_spare]

        a = a.reshape(states, size, size)
        b = b.reshape(states, size)
        x_prev = voltages[np.arange(states)[:, None], froot]
        # Isolated floating islands (no incident capacitance) keep their
        # previous (root) voltage.
        diagonal = np.arange(size)
        iso_g, iso_i = np.nonzero(a[:, diagonal, diagonal] == 0.0)
        if len(iso_g):
            a[iso_g, iso_i, iso_i] = 1.0
            b[iso_g, iso_i] = x_prev[iso_g, iso_i]

        # Groups of floating islands coupled only to each other have an
        # indeterminate common mode (the matrix block is rank-deficient):
        # physically that common mode is set by history, so solve for the
        # minimal-norm *update* around the previous voltages.  For
        # well-posed systems this equals the direct solve.
        try:
            x = np.linalg.solve(a, b[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            x = np.empty((states, size))
            for g in range(states):
                try:
                    x[g] = np.linalg.solve(a[g], b[g])
                except np.linalg.LinAlgError:
                    active_metrics().counter(
                        "charge.minnorm_fallbacks",
                        "rank-deficient settles solved via minimal-norm update",
                    ).inc()
                    x[g] = _minimal_norm(a[g], b[g], x_prev[g])
        failed: list[int] = []
        for g in np.flatnonzero(~np.isfinite(x).all(axis=1)).tolist():
            x[g] = _minimal_norm(a[g], b[g], x_prev[g])
            if not np.all(np.isfinite(x[g])):
                failed.append(g)
        return x, failed


#: Signs of a capacitor's charge on its (a, b) ends.
_SIDES = np.array([1.0, -1.0])


def _accumulate(total: np.ndarray, slots: np.ndarray, terms: np.ndarray) -> None:
    """``total[slot] += term`` for every term, one after another in C order."""
    np.add.at(total, slots.ravel(), np.ascontiguousarray(terms).ravel())


def _minimal_norm(a: np.ndarray, b: np.ndarray, x_prev: np.ndarray) -> np.ndarray:
    """The minimal-norm update solution ``x_prev + lstsq(a, b − a·x_prev)``."""
    delta, *_ = np.linalg.lstsq(a, b - a @ x_prev, rcond=None)
    return x_prev + delta
