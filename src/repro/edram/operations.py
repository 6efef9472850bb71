"""Behavioural array operations: write, read, refresh, pause.

This is the functional-test view of the array used by the march-test
digital baseline.  Every operation advances an internal behavioural
clock; retention effects emerge naturally because reads evaluate each
cell's leakage droop at the current time.

Read is modelled as a real DRAM read: V_DD/2 bitline precharge, charge
sharing with the cell (:mod:`repro.edram.bitline`), resolution by the
sense amplifier (:mod:`repro.edram.senseamp`), then write-back (restore).
Defects shape the read signal exactly as described in
:mod:`repro.edram.defects`; BRIDGE defects couple horizontally adjacent
storage nodes so that writes to one victim overwrite its partner, which
is what lets march elements catch them.

The behavioural state lives in the array's two functional planes
(stored voltage, last-write time), never in cell objects.  A
whole-array :meth:`ArrayOperations.sweep` — one march element — runs
each of its ops as one numpy pass over every cell that shares no
storage node, and replays the bridge-coupled cells one at a time in
visiting order; both land bit-identical to visiting every cell in turn.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.edram.array import EDRAMArray
from repro.edram.bitline import Bitline
from repro.edram.cell import drooped_voltage
from repro.edram.defects import KIND_CODES, DefectKind
from repro.edram.senseamp import SenseAmplifier
from repro.errors import ArrayConfigError, DefectError

_BRIDGE = KIND_CODES[DefectKind.BRIDGE]
_SHORT = KIND_CODES[DefectKind.SHORT]
_OPEN = KIND_CODES[DefectKind.OPEN]
_ACCESS_OPEN = KIND_CODES[DefectKind.ACCESS_OPEN]


def _unreachable(kinds: np.ndarray) -> np.ndarray:
    """Cells whose storage node the bitline cannot reach: writes leave
    the stored level alone and reads present no capacitance."""
    return (kinds == _OPEN) | (kinds == _ACCESS_OPEN)


class ArrayOperations:
    """Functional interface to an :class:`~repro.edram.array.EDRAMArray`.

    Parameters
    ----------
    array:
        The array under test.  Every instance on one array shares its
        functional planes, so stored data outlives the instance.
    senseamp:
        Sense amplifier model; a default (3 mV σ offset) is built when
        omitted.
    cycle_time:
        Behavioural time consumed by each write/read/refresh, seconds.
    """

    def __init__(
        self,
        array: EDRAMArray,
        senseamp: SenseAmplifier | None = None,
        cycle_time: float = 20e-9,
    ) -> None:
        if cycle_time <= 0:
            raise ArrayConfigError(f"cycle_time must be positive, got {cycle_time}")
        self.array = array
        self.senseamp = senseamp if senseamp is not None else SenseAmplifier()
        self.cycle_time = cycle_time
        self.now = 0.0
        self._bitline = Bitline(
            capacitance=array.bitline_capacitance(),
            precharge_voltage=array.tech.half_vdd,
        )
        # Flat views: writes land in the array's (rows, cols) planes.
        self._v, self._t = (plane.ravel() for plane in array.functional_planes())

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def pause(self, duration: float) -> None:
        """Idle for ``duration`` seconds (retention stress)."""
        if duration < 0:
            raise ArrayConfigError(f"pause duration must be >= 0, got {duration}")
        self.now += duration

    # ------------------------------------------------------------------
    # Cell sets (flat indices, row-major)
    # ------------------------------------------------------------------

    def _partners(self, idx: np.ndarray) -> np.ndarray:
        """Flat index of the cell sharing each cell's storage node, or -1.

        A BRIDGE cell shares its node with its right-hand neighbour; a
        cell whose left neighbour is bridged shares it leftward (its own
        bridge wins in a chain).
        """
        kinds = self.array.defect_kind_view().ravel()
        cols = self.array.cols
        own = kinds[idx] == _BRIDGE
        dangling = own & (idx % cols == cols - 1)
        if dangling.any():
            row, col = divmod(int(idx[dangling][0]), cols)
            raise DefectError(
                f"BRIDGE at ({row}, {col}) sits on the last column: "
                "no right-hand neighbour to share its storage node"
            )
        left = (idx % cols > 0) & (kinds[idx - 1] == _BRIDGE)
        return np.where(own, idx + 1, np.where(left, idx - 1, -1))

    def _write(
        self, idx: np.ndarray, times: np.ndarray, levels: np.ndarray, partner: np.ndarray
    ) -> None:
        """Store ``levels`` into cells ``idx`` at ``times``.

        The bridged partner nodes (``partner``, from :meth:`_partners`)
        are overwritten too.  The cells must not share a storage node
        with one another.
        """
        kinds = self.array.defect_kind_view().ravel()
        shared = partner >= 0
        for cells, t, level in (
            (idx, times, levels),
            (partner[shared], times[shared], levels[shared]),
        ):
            reached = ~_unreachable(kinds[cells])
            self._v[cells[reached]] = level[reached]
            self._t[cells] = t

    def _read(self, idx: np.ndarray, times: np.ndarray, partner: np.ndarray) -> np.ndarray:
        """Destructive read + restore of cells ``idx`` at ``times``.

        Returns the sensed bits.  ``partner`` is as for :meth:`_write`.
        """
        cap = self.array.capacitance_view().ravel()
        leak = self.array.leak_view().ravel()
        kinds = self.array.defect_kind_view().ravel()
        plate_bias = self.array.tech.half_vdd
        short = kinds[idx] == _SHORT
        unreachable = _unreachable(kinds[idx])
        # A SHORT node sits at the plate bias with its full capacitance
        # coupled; an unreachable one presents nothing.
        presented = np.where(unreachable, 0.0, cap[idx])
        voltage = np.where(
            short | unreachable,
            plate_bias,
            drooped_voltage(self._v[idx], self._t[idx], times, leak[idx], cap[idx]),
        )
        shared = (partner >= 0) & ~short & ~unreachable
        if shared.any():
            # The shared node: capacitance-weighted mean of both levels,
            # which also covers one side rewritten without the other.
            c_own, p = cap[idx][shared], partner[shared]
            v_partner = np.where(
                kinds[p] == _SHORT,
                plate_bias,
                drooped_voltage(self._v[p], self._t[p], times[shared], leak[p], cap[p]),
            )
            total = c_own + cap[p]
            voltage[shared] = (c_own * voltage[shared] + cap[p] * v_partner) / total
            presented[shared] = total
        bits = self.senseamp.resolve(self._bitline.read_signal(presented, voltage))
        self._write(idx, times, np.where(bits, self.array.tech.vdd, 0.0), partner)
        return bits

    # ------------------------------------------------------------------
    # Single-cell operations
    # ------------------------------------------------------------------

    def _cell(self, row: int, col: int) -> tuple[np.ndarray, np.ndarray]:
        """(flat index, partner) of one addressed cell."""
        self.array.check_address(row, col)
        idx = np.array([row * self.array.cols + col])
        return idx, self._partners(idx)

    def write(self, row: int, col: int, bit: bool) -> None:
        """Write one bit; a bridged partner node is overwritten too."""
        idx, partner = self._cell(row, col)
        level = self.array.tech.vdd if bit else 0.0
        self._write(idx, np.array([self.now]), np.array([level]), partner)
        self.now += self.cycle_time

    def read(self, row: int, col: int) -> bool:
        """Read one bit (destructive read + restore), honouring defects."""
        idx, partner = self._cell(row, col)
        bit = bool(self._read(idx, np.array([self.now]), partner)[0])
        self.now += self.cycle_time
        return bit

    def refresh(self, row: int, col: int) -> bool:
        """Refresh one cell (read + restore); returns the read value."""
        return self.read(row, col)

    # ------------------------------------------------------------------
    # Whole-array passes
    # ------------------------------------------------------------------

    def sweep(
        self, steps: Sequence[bool | np.ndarray | None], descending: bool = False
    ) -> list[np.ndarray]:
        """Visit every cell once, applying ``steps`` to each in turn.

        One march element: cells are visited row-major (reversed when
        ``descending``) and every step takes one cycle, exactly as
        calling :meth:`read` / :meth:`write` cell by cell would.  A step
        is ``None`` for a read, or a bit (or a (rows, cols) bit plane)
        to write.  Returns one boolean (rows, cols) plane per read step.

        Raises :class:`~repro.errors.DefectError` before the first op
        when a BRIDGE cell has no right-hand neighbour.
        """
        rows, cols = self.array.rows, self.array.cols
        order = np.arange(rows * cols)
        if descending:
            order = order[::-1]
        partner = self._partners(order)
        shared = partner >= 0
        # Visit k, step j runs at tick k·len(steps) + j.  A sequential
        # accumulate repeats `now += cycle_time` bit for bit (a pairwise
        # sum or now + n·cycle_time would not).
        ticks = np.full(order.size * len(steps) + 1, self.cycle_time)
        ticks[0] = self.now
        clock = np.add.accumulate(ticks)
        times = clock[:-1].reshape(order.size, len(steps))
        vdd = self.array.tech.vdd
        levels = [
            None
            if step is None
            else np.broadcast_to(np.where(step, vdd, 0.0), (rows, cols)).ravel()
            for step in steps
        ]
        reads = np.zeros((len(steps), order.size), dtype=bool)

        def apply(visits: np.ndarray | slice) -> None:
            cells, cell_partner, cell_times = order[visits], partner[visits], times[visits]
            for j, level in enumerate(levels):
                if level is None:
                    reads[j, cells] = self._read(cells, cell_times[:, j], cell_partner)
                else:
                    self._write(cells, cell_times[:, j], level[cells], cell_partner)

        # Cells sharing no node are independent: one pass per step.
        apply(~shared)
        # Bridge-coupled cells disturb each other, so they replay one at
        # a time in visiting order at their own ticks.
        for k in np.flatnonzero(shared):
            apply(slice(k, k + 1))
        self.now = float(clock[-1])
        return [reads[j].reshape(rows, cols) for j, lv in enumerate(levels) if lv is None]

    def write_solid(self, bit: bool) -> None:
        """Write the same value to every cell, row-major ascending."""
        self.sweep([bit])

    def write_checkerboard(self, phase: bool = False) -> None:
        """Write a checkerboard; ``phase`` flips which parity gets '1'."""
        self.sweep([self.expected_checkerboard(phase)])

    def read_all(self) -> np.ndarray:
        """Read every cell; returns a boolean (rows, cols) array."""
        return self.sweep([None])[0]

    def expected_checkerboard(self, phase: bool = False) -> np.ndarray:
        """The ideal checkerboard pattern for comparison with reads."""
        r = np.arange(self.array.rows)[:, None]
        c = np.arange(self.array.cols)[None, :]
        return (((r + c) % 2) == 0) != phase

    @property
    def read_signal_nominal(self) -> float:
        """|ΔV| a healthy full cell produces at the sense amp, volts."""
        return abs(
            self._bitline.read_signal(self.array.tech.cell_capacitance, self.array.tech.vdd)
        )
