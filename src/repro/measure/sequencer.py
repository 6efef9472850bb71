"""Execution of the five-phase measurement flow.

:class:`MeasurementSequencer` measures one cell of one macro through
either tier:

- :meth:`measure_charge` — walks the exact ideal-switch network through
  phases 1–4, then converts the resulting V_GS statically (the paper's
  phase 5 ramp reduced to its endpoint condition).  Exact, fast, and the
  reference for the closed-form scan tier.  Given index arrays it
  measures many cells of the macro at once: phase 1 is settled once
  (every target starts from the same pristine network) and each of
  phases 2–4 is one stacked solve over all targets
  (:meth:`~repro.circuit.charge.CapacitorNetwork.settle_stack`).
- :meth:`measure_transient` — integrates the full transistor netlist
  through all five phases, drives the real current staircase through the
  shift register model, and decodes the OUT flip exactly as a tester
  would.  Slow but honest; this is the Figure-2 tier.

Both return :class:`~repro.measure.result.MeasurementResult` with the
same code for the same cell (cross-validated in the integration tests,
±1 code for converter-edge cases).
"""

from __future__ import annotations

from typing import Sequence, overload

import numpy as np

from repro.circuit.charge import CapacitorNetwork, Islands
from repro.circuit.transient import TransientOptions, transient_analysis
from repro.circuit.waveform import Waveform
from repro.edram.array import MacroCell
from repro.errors import ConvergenceError, MeasurementError, SingularCircuitError
from repro.measure.netlist_builder import (
    ChargeNetlist,
    build_charge_network,
    build_measurement_circuit,
    _bitline_node,
)
from repro.measure.phases import Phase, PhasePlan
from repro.measure.result import ChargeBatch, FlowTrace, MeasurementResult
from repro.measure.shift_register import ShiftRegister
from repro.measure.structure import MeasurementStructure
from repro.obs.metrics import active_metrics
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.resilience.faults import fault_point


class MeasurementSequencer:
    """Runs measurement flows against one macro-cell.

    Parameters
    ----------
    macro:
        The macro-cell under test.
    structure:
        The (designed) measurement structure attached to its plate.
    """

    def __init__(self, macro: MacroCell, structure: MeasurementStructure) -> None:
        self.macro = macro
        self.structure = structure
        self._built: ChargeNetlist | None = None
        self._built_version: int | None = None
        self._pristine: tuple | None = None

    def _charge_network(self) -> ChargeNetlist:
        """The macro's charge netlist, built once and reset per flow.

        The netlist is rebuilt when the array reports a mutation
        (capacitance edit, defect injection) since the last build;
        otherwise the cached network is restored to its as-built state,
        which is exactly equivalent to a fresh build.  This turns the
        engine tier's per-cell cost from build + solve into solve only.
        Hit/miss counts report to the ambient metrics registry.
        """
        version = self.macro.array.version
        if self._built is None or self._built_version != version:
            active_metrics().counter(
                "sequencer.netlist_cache_misses", "charge netlists built"
            ).inc()
            self._built = build_charge_network(self.macro, self.structure)
            self._pristine = self._built.network.snapshot()
            self._built_version = version
        else:
            active_metrics().counter(
                "sequencer.netlist_cache_hits", "charge netlists restored"
            ).inc()
            if self._pristine is None:
                raise MeasurementError(
                    "cached charge netlist has no pristine snapshot to restore"
                )
            self._built.network.restore(self._pristine)
        return self._built

    def _check_target(self, row: int, lcol: int) -> None:
        if not 0 <= row < self.macro.rows:
            raise MeasurementError(f"target row {row} outside 0..{self.macro.rows - 1}")
        if not 0 <= lcol < self.macro.array.macro_cols:
            raise MeasurementError(
                f"target local col {lcol} outside 0..{self.macro.array.macro_cols - 1}"
            )

    # ------------------------------------------------------------------
    # Static pre-flight
    # ------------------------------------------------------------------

    def preflight(self, waive_known_defects: bool = True) -> "object":
        """Run the static ERC pass on this macro's network and flow.

        Returns the :class:`~repro.lint.LintReport`.  Findings anchored
        to storage nodes of *known* (injected) defects are waived when
        ``waive_known_defects`` — a scan exists to measure those; only
        unexpected structural damage should fail the check.  No solver
        runs.
        """
        from repro.lint import preflight_macro

        return preflight_macro(
            self.macro,
            self.structure,
            built=self._charge_network(),
            waive_known_defects=waive_known_defects,
        )

    # ------------------------------------------------------------------
    # Charge tier
    # ------------------------------------------------------------------

    @overload
    def measure_charge(
        self,
        row: int,
        lcol: int,
        trace: FlowTrace | None = None,
        preflight: bool = False,
        tracer: Tracer | NullTracer = NULL_TRACER,
    ) -> MeasurementResult: ...

    @overload
    def measure_charge(
        self,
        row: np.ndarray,
        lcol: np.ndarray,
        trace: Sequence[FlowTrace] | None = None,
        preflight: bool = False,
        tracer: Tracer | NullTracer = NULL_TRACER,
    ) -> ChargeBatch: ...

    def measure_charge(self, row, lcol, trace=None, preflight=False, tracer=NULL_TRACER):
        """Measure cell (row, lcol) — or many cells — through the exact charge tier.

        With two ints, returns the cell's
        :class:`~repro.measure.result.MeasurementResult`; a solver
        failure raises.  ``tracer`` receives a ``cell`` span with one
        child per measurement phase (1–4, then the phase-5 conversion).

        With two equal-length index arrays, measures every target in one
        stacked solve per phase and returns a
        :class:`~repro.measure.result.ChargeBatch` of V_GS values and a
        failed mask; no code is converted.  A target whose solve fails
        (:class:`~repro.errors.SingularCircuitError` or
        :class:`~repro.errors.ConvergenceError`, including one injected at
        the ``sequencer.measure`` fault site, which fires once per target
        in target order) is marked failed; any other error propagates.
        ``trace`` is then one :class:`FlowTrace` per target, and
        ``tracer`` receives the four stacked phase spans, each carrying
        ``cells=`` (the targets it solved).

        With ``preflight=True`` the static ERC pass runs first and a
        structurally bad network raises
        :class:`~repro.errors.RuleViolation` naming the violated rule
        codes instead of failing inside the charge solver.
        """
        if np.ndim(row) or np.ndim(lcol):
            return self._measure_batch(
                np.asarray(row), np.asarray(lcol), trace, preflight, tracer
            )
        self._check_target(row, lcol)
        fault_point(
            "sequencer.measure",
            macro=self.macro.index,
            row=self.macro.row_start + row,
            col=self.macro.col_start + lcol,
        )
        if preflight:
            self._preflight_or_raise()
        with tracer.span(
            "cell",
            row=self.macro.row_start + row,
            col=self.macro.col_start + lcol,
            tier="charge",
        ) as span:
            traces = None if trace is None else [trace]
            vgs_all, errors = self._charge_phases([row], [lcol], traces, tracer)
            if errors[0] is not None:
                raise errors[0]
            vgs = float(vgs_all[0])
            # Phase 5 — CONVERT: the current-ramp endpoint condition,
            # evaluated statically.
            with tracer.span("phase:convert"):
                code = self.structure.code_for_vgs(vgs)
            span.attributes["code"] = code
        return MeasurementResult(
            code=code,
            num_steps=self.structure.design.num_steps,
            vgs=vgs,
            tier="charge",
            address=(self.macro.row_start + row, self.macro.col_start + lcol),
        )

    def _preflight_or_raise(self) -> None:
        from repro.lint import raise_on_errors

        raise_on_errors(self.preflight())

    def _measure_batch(
        self,
        rows: np.ndarray,
        lcols: np.ndarray,
        traces: Sequence[FlowTrace] | None,
        preflight: bool,
        tracer: Tracer | NullTracer,
    ) -> ChargeBatch:
        """The index-array form of :meth:`measure_charge`."""
        if rows.ndim != 1 or rows.shape != lcols.shape:
            raise MeasurementError(
                f"target rows {rows.shape} and cols {lcols.shape} must be "
                "equal-length index arrays"
            )
        targets = list(zip(rows.tolist(), lcols.tolist()))
        if traces is not None and len(traces) != len(targets):
            raise MeasurementError(
                f"{len(traces)} flow traces for {len(targets)} targets"
            )
        for row, lcol in targets:
            self._check_target(row, lcol)
        errors: list[Exception | None] = [None] * len(targets)
        for k, (row, lcol) in enumerate(targets):
            try:
                fault_point(
                    "sequencer.measure",
                    macro=self.macro.index,
                    row=self.macro.row_start + row,
                    col=self.macro.col_start + lcol,
                )
            except (SingularCircuitError, ConvergenceError) as exc:
                errors[k] = exc
        if preflight:
            self._preflight_or_raise()
        live = [k for k, error in enumerate(errors) if error is None]
        vgs = np.full(len(targets), np.nan)
        if live:
            solved, solve_errors = self._charge_phases(
                [targets[k][0] for k in live],
                [targets[k][1] for k in live],
                None if traces is None else [traces[k] for k in live],
                tracer,
            )
            vgs[live] = solved
            for k, error in zip(live, solve_errors):
                errors[k] = error
        failed = np.array([error is not None for error in errors], dtype=bool)
        return ChargeBatch(vgs=vgs, failed=failed, errors=tuple(errors))

    def _charge_phases(
        self,
        rows: list[int],
        lcols: list[int],
        traces: Sequence[FlowTrace] | None,
        tracer: Tracer | NullTracer,
    ) -> tuple[np.ndarray, list[Exception | None]]:
        """Drive the network through phases 1–4 for every target at once.

        Returns each target's final V_GS (NaN where it failed) and its
        solver error (``None`` when it settled every phase).
        """
        built = self._charge_network()
        net = built.network
        count = len(rows)
        mc = self.macro.array.macro_cols
        vdd = float(self.structure.tech.vdd)
        plate, gate = net.node_index("plate"), net.node_index("gate")
        bitlines = [net.node_index(_bitline_node(col)) for col in range(mc)]
        errors: list[Exception | None] = [None] * count
        vgs = np.full(count, np.nan)

        def settle(phase, alive, islands, drives, volts):
            """One stacked settle; drops the targets it failed."""
            settled, failures = net.settle_stack(islands, drives, volts)
            kept = [j for j, error in enumerate(failures) if error is None]
            for j, error in enumerate(failures):
                if error is not None:
                    errors[alive[j]] = error
            alive = [alive[j] for j in kept]
            settled = settled[kept]
            if traces is not None:
                for j, k in enumerate(alive):
                    traces[k].record(
                        phase, float(settled[j, plate]), float(settled[j, gate])
                    )
            return alive, [drives[j] for j in kept], settled

        # Phase 1 — DISCHARGE: all wordlines on, everything driven low.
        # Every target starts from the same pristine network, so this
        # phase is settled once for all of them.
        with tracer.span("phase:discharge", cells=count):
            for name in built.access_switches.values():
                net.close_switch(name)
            for col in range(mc):
                net.drive(_bitline_node(col), 0.0)
            net.drive("plate", 0.0)
            net.close_switch(built.lec_switch)
            try:
                net.settle()
            except SingularCircuitError as exc:
                return vgs, [exc] * count
            discharged = net.voltage_vector()
        if traces is not None:
            for trace in traces:
                trace.record(
                    "discharge", float(discharged[plate]), float(discharged[gate])
                )

        # Phase 2 — CHARGE C_m: only the target row stays selected; other
        # bitlines rise to V_DD; LEC opens; the plate is driven to V_DD.
        #
        # Defect shorts (dielectric shorts, storage bridges) can tie
        # nodes with different intended drives together; physically those
        # contentions resolve through on-resistances during the phase and
        # the *grounded target bitline always wins by the end of the
        # ISOLATE phase* (it is the only drive left standing).  The
        # ideal-switch model renders that as priority-resolved driving:
        # the target bitline claims its island first, then the plate,
        # then the neighbour bitlines; later claims on an already-claimed
        # island with a different level are skipped (left to follow).
        with tracer.span("phase:charge", cells=count):
            charge_islands: dict[int, Islands] = {}
            share_islands: dict[int, Islands] = {}
            deselect_all = dict.fromkeys(built.access_switches.values(), False)
            for target_row in sorted(set(rows)):
                # Only the target row's access switches stay closed.
                selected = dict(deselect_all)
                selected.update(
                    (name, True) for (r, _c), name in built.access_switches.items()
                    if r == target_row
                )
                selected[built.lec_switch] = False
                charge_islands[target_row] = net.islands(selected)
                selected[built.lec_switch] = True
                share_islands[target_row] = net.islands(selected)
            phase1_drives = net.drives()
            drives = []
            for row, lcol in zip(rows, lcols):
                labels = charge_islands[row].label_list
                driven = dict(phase1_drives)
                for col in range(mc):
                    if col != lcol:
                        driven.pop(bitlines[col], None)
                driven.pop(plate, None)
                desired = [(bitlines[lcol], 0.0), (plate, vdd)]
                desired += [(bitlines[col], vdd) for col in range(mc) if col != lcol]
                claimed: dict[int, float] = {}
                for node, level in desired:
                    island = labels[node]
                    holder = claimed.get(island)
                    if holder is not None and holder != level:
                        continue  # a higher-priority drive owns this island
                    claimed[island] = level
                    driven[node] = level
                drives.append(driven)
            alive, drives, volts = settle(
                "charge",
                list(range(count)),
                [charge_islands[row] for row in rows],
                drives,
                np.broadcast_to(discharged, (count, len(discharged))),
            )

        # Phase 3 — ISOLATE: PRG opens, every non-target bitline floats.
        with tracer.span("phase:isolate", cells=len(alive)):
            for k, driven in zip(alive, drives):
                driven.pop(plate, None)
                for col in range(mc):
                    if col != lcols[k]:
                        driven.pop(bitlines[col], None)
            alive, drives, volts = settle(
                "isolate", alive, [charge_islands[rows[k]] for k in alive],
                drives, volts,
            )

        # Phase 4 — SHARE: LEC closes; C_m shares with C_REF.
        with tracer.span("phase:share", cells=len(alive)):
            alive, drives, volts = settle(
                "share", alive, [share_islands[rows[k]] for k in alive],
                drives, volts,
            )
        vgs[alive] = volts[:, gate]
        return vgs, errors

    # ------------------------------------------------------------------
    # Transient tier
    # ------------------------------------------------------------------

    def measure_transient(
        self,
        row: int,
        lcol: int,
        dt: float = 25e-12,
        return_waveform: bool = False,
        tracer: Tracer | NullTracer = NULL_TRACER,
    ) -> MeasurementResult | tuple[MeasurementResult, Waveform]:
        """Measure cell (row, lcol) through the full MNA transient tier.

        The shift-register model is clocked once per current step and
        frozen on the OUT flip, exactly as the on-chip controller would;
        the returned code therefore exercises the register path too.
        ``tracer`` records a ``cell`` span with ``integrate`` (the MNA
        transient over all five phases) and ``phase:convert`` (register
        decode) children — the transient tier cannot split phases 1–4
        into separate spans because they share one integration.
        """
        self._check_target(row, lcol)
        with tracer.span(
            "cell",
            row=self.macro.row_start + row,
            col=self.macro.col_start + lcol,
            tier="transient",
        ) as cell_span:
            built = build_measurement_circuit(self.macro, row, lcol, self.structure)
            plan: PhasePlan = built.plan
            record = ["plate", "gate", "drain", "out"]
            with tracer.span("integrate", dt=dt):
                waveform = transient_analysis(
                    built.circuit,
                    t_stop=plan.total_duration,
                    options=TransientOptions(dt=dt, record=record),
                )
            share_end = plan.window(Phase.SHARE).end
            vgs = waveform.value_at("gate", share_end - dt)

            with tracer.span("phase:convert"):
                threshold = self.structure.tech.half_vdd
                flips = [
                    t
                    for t in waveform.crossings("out", threshold, "rise")
                    if t >= plan.convert_start
                ]
                flip_time = flips[0] if flips else None

                register = ShiftRegister(self.structure.design.num_steps)
                staircase = self.structure.dac.staircase(
                    plan.convert_start, self.structure.design.step_duration
                )
                for step in range(1, self.structure.design.num_steps + 1):
                    t_step = staircase.step_start_time(step)
                    if flip_time is not None and flip_time < t_step:
                        break
                    register.clock()
                if flip_time is not None:
                    register.freeze()
                code = register.extract_code()
            cell_span.attributes["code"] = code

        result = MeasurementResult(
            code=code,
            num_steps=self.structure.design.num_steps,
            vgs=vgs,
            flip_time=flip_time,
            tier="transient",
            address=(self.macro.row_start + row, self.macro.col_start + lcol),
        )
        if return_waveform:
            return result, waveform
        return result

    # ------------------------------------------------------------------
    # Standard-mode check
    # ------------------------------------------------------------------

    def standard_mode_plate_voltage(self) -> float:
        """Plate voltage with the structure switched off (STD on).

        In standard operation the structure must be invisible: STD holds
        the plate at V_DD/2 and every other switch is open.  Returns the
        settled plate voltage (should equal V_DD/2 exactly in the
        ideal-switch view).
        """
        built = self._charge_network()
        net: CapacitorNetwork = built.network
        net.drive("plate", self.structure.tech.half_vdd)  # via STD
        state = net.settle()
        return state["plate"]
