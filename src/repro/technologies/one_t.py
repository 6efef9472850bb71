"""Capacitorless 1T (floating-body) backend: retention is the headline.

Models a capacitorless one-transistor DRAM array per "Improvement in
Retention Time of Capacitorless DRAM with Access Transistor"
(arXiv:1910.03907).  The bit is majority-carrier charge stored on the
access transistor's floating body — there is no explicit storage
capacitor, only the small body/junction capacitance (a few fF), and the
junction leakage that drains it is orders of magnitude more damaging
than in a 1T1C cell because there is so little charge to lose.

What that means for the measurement structure:

- **The measurable quantity is still a capacitance.**  At the plate
  terminal the floating body presents its (small) storage capacitance,
  so the paper's charge-share converter measures it directly — the
  structure just has to be *designed* for a 1–8 fF range instead of
  10–55 fF, which :meth:`Capacitorless1TTechnology.measurement_range`
  requests.  The closed-form kernel's algebra is unchanged.

- **The headline figure of merit is retention time**, ``t_ret =
  (V_written − V_min)·C_body / I_leak``.  The backend derives it from
  the same capacitance/leakage planes the scanner already maintains and
  exports it through :meth:`extra_scalars`, so the run ledger's drift
  charts track retention alongside the measured capacitance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.edram.array import EDRAMArray
from repro.tech.parameters import MosfetParams, TechnologyCard
from repro.technologies.base import CellTechnology
from repro.units import fA, fF, nm

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


def one_t_technology_card() -> TechnologyCard:
    """Synthetic capacitorless-1T card on the same 0.18 µm platform.

    The "cell capacitance" is the floating-body storage capacitance
    (~4 fF) rather than a deliberate MIM/trench capacitor, and junction
    leakage is set so the nominal retention lands in the low
    milliseconds — the floating-body regime the reference paper's
    access-transistor optimization fights to extend (t_ret =
    1.3 V · 4 fF / 2 pA ≈ 2.6 ms at nominal).
    """
    return TechnologyCard(
        name="floating-body-1t-0.18um",
        vdd=1.8,
        vpp=2.9,
        nmos=MosfetParams(polarity="nmos", vth0=0.45, kp=300e-6, tox=4.0 * nm),
        pmos=MosfetParams(polarity="pmos", vth0=-0.45, kp=75e-6, tox=4.0 * nm),
        cell_capacitance=4.0 * fF,    # floating-body storage capacitance
        cell_cap_sigma=0.4 * fF,
        storage_junction_cap=0.3 * fF,
        bitline_cap_per_cell=0.35 * fF,
        bitline_base_cap=2.0 * fF,
        wordline_cap_per_cell=0.45 * fF,
        plate_parasitic_per_cell=0.08 * fF,
        plate_base_cap=1.5 * fF,
        junction_leak_per_cell=2000.0 * fA,
        retention_target_s=2e-3,      # low milliseconds, not tens of ms
    )


class Body1TArray(EDRAMArray):
    """Array of capacitorless 1T cells (floating-body storage).

    Electrically identical to :class:`EDRAMArray` at the measurement
    terminals — the body capacitance and junction leakage planes are the
    netlist stamps — plus a vectorized :meth:`retention_time_map` over
    those planes, mirroring :meth:`repro.edram.cell.DRAMCell.retention_time`
    cell-by-cell.
    """

    technology = "1t"

    def __init__(
        self,
        rows: int,
        cols: int,
        tech: TechnologyCard | None = None,
        macro_cols: int = 2,
        macro_rows: int | None = None,
        capacitance_map: np.ndarray | None = None,
        leak_map: np.ndarray | None = None,
    ) -> None:
        super().__init__(
            rows, cols,
            tech=tech if tech is not None else one_t_technology_card(),
            macro_cols=macro_cols, macro_rows=macro_rows,
            capacitance_map=capacitance_map, leak_map=leak_map,
        )

    def retention_time_map(
        self, v_written: float | None = None, v_min: float = 0.5
    ) -> np.ndarray:
        """Per-cell retention time in seconds, shape ``(rows, cols)``.

        ``t_ret = (V_written − V_min)·C/I_leak`` over the bulk planes;
        cells with zero leakage report ``inf``.  Defaults mirror
        :meth:`DRAMCell.retention_time` (written to VDD, readable down
        to ``v_min``).
        """
        if v_written is None:
            v_written = self.tech.vdd
        charge = (v_written - v_min) * self.capacitance_view()
        leak = self.leak_view()
        return np.divide(
            charge, leak, out=np.full_like(charge, np.inf), where=leak > 0.0
        )


def _leak_map(
    shape: tuple[int, int], seed: int, card: TechnologyCard
) -> np.ndarray:
    """Per-cell junction leakage, amperes.

    Leakage mismatch dominates retention spread in floating-body cells;
    a lognormal-ish positive skew from a second seed derived from
    ``seed``.
    """
    rng = np.random.default_rng(seed + 104729)
    return card.junction_leak_per_cell * np.exp(rng.normal(0.0, 0.35, size=shape))


class Capacitorless1TTechnology(CellTechnology):
    """Capacitorless 1T floating-body backend (arXiv:1910.03907)."""

    name = "1t"
    display = "capacitorless 1T floating-body array (retention-limited)"
    headline = "retention"
    reference = "arXiv:1910.03907"
    mismatch_sigma = 0.3 * fF
    die_mean_floor = 1.0 * fF
    die_cell_floor = 0.5 * fF

    def base_card(self) -> TechnologyCard:
        return one_t_technology_card()

    def array_class(self) -> type:
        return Body1TArray

    def build_array(
        self,
        rows: int,
        cols: int,
        *,
        macro_rows: int | None = None,
        macro_cols: int = 2,
        seed: int = 0,
        nominal: float | None = None,
        with_defects: bool = False,
        tech: TechnologyCard | None = None,
    ) -> Body1TArray:
        from repro.edram.variation_map import (
            compose_maps,
            mismatch_map,
            uniform_map,
        )

        card = tech if tech is not None else self.base_card()
        if nominal is None:
            nominal = card.cell_capacitance
        shape = (rows, cols)
        capacitance = compose_maps(
            uniform_map(shape, nominal),
            mismatch_map(shape, self.mismatch_sigma, seed=seed),
            floor=0.5 * fF,
        )
        array = Body1TArray(
            rows, cols, tech=card, macro_cols=macro_cols,
            macro_rows=macro_rows, capacitance_map=capacitance,
            leak_map=_leak_map(shape, seed, card),
        )
        array.seed = seed
        if with_defects:
            self.inject_defects(array, seed)
        return array

    def _die_leak_map(
        self, shape: tuple[int, int], mismatch_seed: int, card: TechnologyCard
    ) -> np.ndarray:
        # Drawn from the mismatch seed; only the die array carries it.
        return _leak_map(shape, mismatch_seed, card)

    def measurement_range(self) -> tuple[float, float, int]:
        # Floating-body capacitances are a few fF; the converter must be
        # sized for 1–8 fF or every healthy cell saturates the low bin.
        return (1.0 * fF, 8.0 * fF, 20)

    def spec_window(self) -> tuple[float, float]:
        # ±25% of the 4 fF body capacitance — retention is so sensitive
        # to C_body that a slightly wider relative window than eDRAM's
        # still maps to a tight retention spec.
        return (3.0 * fF, 5.0 * fF)

    def extra_scalars(self, array: EDRAMArray) -> dict[str, float]:
        if not isinstance(array, Body1TArray):
            return {}
        retention = array.retention_time_map()
        finite = retention[np.isfinite(retention)]
        if finite.size == 0:
            return {"retention_mean_us": float("inf")}
        return {
            "retention_mean_us": float(finite.mean() * 1e6),
            "retention_min_us": float(finite.min() * 1e6),
            "retention_below_target_frac": float(
                np.mean(retention < array.tech.retention_target_s)
            ),
        }
