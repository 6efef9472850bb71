"""Ferroelectric-capacitor backend: hysteretic state + read-disturb.

Models an array of ferroelectric (HZO-class) capacitors read
*capacitively* through the paper's measurement structure, per
"Reliability of Capacitive Read in Arrays of Ferroelectric Capacitors"
(arXiv:2506.09480).  The physics kept here:

- **Polarization-dependent capacitance.**  Each cell carries a
  normalized remanent polarization ``P ∈ [-1, +1]``.  Around the read
  bias the small-signal capacitance splits into a linear (dielectric)
  part and a switching part proportional to how much polarization is
  available to move:

      C(P) = C_lin + (1 + P)/2 · C_switch

  A fully "up"-polarized cell (P = +1, the written state) presents
  ``C_lin + C_switch``; a depolarized one (P = 0) presents
  ``C_lin + C_switch/2``; a fully reversed one only ``C_lin``.

- **Cumulative read-disturb.**  A capacitive read is *mostly*
  non-destructive, but every read cycle nudges domains back toward the
  depolarized state.  After each whole-array scan the polarization
  relaxes multiplicatively (``P ← P·(1 − δ)``), so repeated recorded
  scans show a monotonic capacitance droop — exactly the failure mode
  the reference paper characterizes, and exactly what the run ledger's
  EWMA/CUSUM drift charts are built to flag.

The charge-share algebra itself is unchanged — at the plate terminal a
FeCap cell is "a capacitor of value C(P)" — so this backend rides the
batched kernel untouched.  The
disturb update rewrites the capacitance plane in bulk, which bumps
``array.version`` and thereby evicts cached netlists automatically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.edram.array import EDRAMArray
from repro.edram.defects import DefectKind
from repro.errors import ArrayConfigError
from repro.tech.parameters import MosfetParams, TechnologyCard
from repro.technologies.base import CellTechnology
from repro.units import fA, fF, nm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measure.scan import ScanResult

#: Defect kinds whose ``factor`` rescales the drawn capacitance; the
#: disturb update must re-apply them after recomputing C(P).
_PARAMETRIC_CAP = (DefectKind.LOW_CAP, DefectKind.HIGH_CAP)


def fecap_technology_card() -> TechnologyCard:
    """Synthetic HZO-on-0.18 µm-BEOL ferroelectric technology card.

    The logic/access devices are the same 0.18 µm platform as the eDRAM
    card; the storage element differs: a written (P = +1) FeCap presents
    ~35 fF small-signal, the dielectric floor is ~15 fF, and leakage
    through the HZO stack is negligible next to a DRAM junction — the
    state is non-volatile, so the retention target is huge and the
    interesting wear-out axis is *read-disturb*, not droop.
    """
    return TechnologyCard(
        name="hzo-fecap-0.18um",
        vdd=1.8,
        vpp=2.9,
        nmos=MosfetParams(polarity="nmos", vth0=0.45, kp=300e-6, tox=4.0 * nm),
        pmos=MosfetParams(polarity="pmos", vth0=-0.45, kp=75e-6, tox=4.0 * nm),
        cell_capacitance=35.0 * fF,   # C_lin + C_switch at P = +1
        cell_cap_sigma=1.4 * fF,
        storage_junction_cap=0.6 * fF,
        bitline_cap_per_cell=0.35 * fF,
        bitline_base_cap=2.0 * fF,
        wordline_cap_per_cell=0.45 * fF,
        plate_parasitic_per_cell=0.08 * fF,
        plate_base_cap=1.5 * fF,
        junction_leak_per_cell=0.05 * fA,
        retention_target_s=3.2e8,     # ~10 years: non-volatile storage
    )


def derived_capacitance(
    c_lin: np.ndarray, c_switch: np.ndarray, polarization: np.ndarray | float
) -> np.ndarray:
    """``C(P) = C_lin + (1 + P)/2 · C_switch``, elementwise."""
    return c_lin + 0.5 * (1.0 + polarization) * c_switch


class FeCapArray(EDRAMArray):
    """Array of 1T-1FeCap cells with per-cell polarization state.

    Electrically the array presents the scanner the same planes as an
    eDRAM array — capacitance and defect-kind matrices — but the
    capacitance plane is *derived*: ``C = C_lin + (1+P)/2 · C_switch``
    from the per-cell dielectric/switching splits and the polarization
    plane.  :meth:`apply_read_disturb` advances the polarization and
    writes the derived values back into the capacitance plane.
    """

    technology = "fecap"

    def __init__(
        self,
        rows: int,
        cols: int,
        tech: TechnologyCard | None = None,
        macro_cols: int = 2,
        macro_rows: int | None = None,
        c_lin_map: np.ndarray | None = None,
        c_switch_map: np.ndarray | None = None,
        polarization: np.ndarray | float = 1.0,
        read_disturb: float = 0.04,
        leak_map: np.ndarray | None = None,
    ) -> None:
        tech = tech if tech is not None else fecap_technology_card()
        if not 0.0 <= read_disturb < 1.0:
            raise ArrayConfigError(
                f"read_disturb must be in [0, 1), got {read_disturb}"
            )
        # Default split: the dielectric floor carries ~43% of the
        # written-state capacitance (15 fF of 35 fF on the nominal card).
        c_lin = (
            np.asarray(c_lin_map, dtype=float)
            if c_lin_map is not None
            else np.full((rows, cols), 15.0 / 35.0 * tech.cell_capacitance)
        )
        c_switch = (
            np.asarray(c_switch_map, dtype=float)
            if c_switch_map is not None
            else np.full((rows, cols), tech.cell_capacitance) - c_lin
        )
        pol = np.asarray(polarization, dtype=float)
        if pol.ndim == 0:
            pol = np.full((rows, cols), float(pol))
        for name, plane in (("c_lin_map", c_lin), ("c_switch_map", c_switch),
                            ("polarization", pol)):
            if plane.shape != (rows, cols):
                raise ArrayConfigError(
                    f"{name} shape {plane.shape} does not match "
                    f"array {rows}x{cols}"
                )
        if np.any(c_lin <= 0) or np.any(c_switch <= 0):
            raise ArrayConfigError(
                "c_lin_map and c_switch_map must be strictly positive"
            )
        if np.any(np.abs(pol) > 1.0):
            raise ArrayConfigError("polarization must lie in [-1, +1]")
        self._c_lin = c_lin.copy()
        self._c_switch = c_switch.copy()
        self._polarization = pol.copy()
        self.read_disturb = read_disturb
        self.reads = 0
        super().__init__(
            rows, cols, tech=tech, macro_cols=macro_cols,
            macro_rows=macro_rows,
            capacitance_map=self._derived_capacitance(),
            leak_map=leak_map,
        )

    def _derived_capacitance(self) -> np.ndarray:
        return derived_capacitance(self._c_lin, self._c_switch, self._polarization)

    def polarization_view(self) -> np.ndarray:
        """Read-only view of the normalized polarization plane."""
        view = self._polarization.view()
        view.flags.writeable = False
        return view

    def apply_read_disturb(self, reads: int = 1) -> None:
        """Relax polarization by ``reads`` read cycles and update cells.

        Each read multiplies the polarization by ``(1 − read_disturb)``;
        the derived capacitances replace the array's capacitance plane in
        one bulk edit, which syncs the materialized cells and bumps the
        version counter once, so every cache keyed on it is evicted.
        Parametric capacitance defects (LOW_CAP/HIGH_CAP) re-apply their
        factor on top of the recomputed drawn value.
        """
        if reads < 0:
            raise ArrayConfigError(f"reads must be >= 0, got {reads}")
        if reads == 0 or self.read_disturb == 0.0:
            self.reads += reads
            return
        self._polarization *= (1.0 - self.read_disturb) ** reads
        self.reads += reads
        derived = self._derived_capacitance()
        parametric = np.logical_or.reduce(
            [self.defect_mask(kind) for kind in _PARAMETRIC_CAP]
        )
        for r, c in zip(*np.nonzero(parametric)):
            # Defective cells are always materialized (the defect was
            # attached through the cell), so their factor is at hand.
            defect = self.cell(int(r), int(c)).defect
            derived[r, c] = float(derived[r, c]) * defect.factor  # type: ignore[union-attr]
        self._set_capacitance_plane(derived)


class FeCapTechnology(CellTechnology):
    """Ferroelectric-capacitor backend (capacitive read, arXiv:2506.09480)."""

    name = "fecap"
    display = "ferroelectric capacitor array (capacitive read)"
    headline = "capacitance + read-disturb"
    reference = "arXiv:2506.09480"
    mismatch_sigma = 1.0 * fF

    def base_card(self) -> TechnologyCard:
        return fecap_technology_card()

    def array_class(self) -> type:
        return FeCapArray

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
    ) -> FeCapArray:
        from repro.edram.variation_map import mismatch_map

        card = tech if tech is not None else self.base_card()
        scale = 1.0 if nominal is None else nominal / card.cell_capacitance
        shape = (rows, cols)
        # Dielectric and switching components get independent mismatch
        # (different physical layers); seeds derive deterministically
        # from the array seed.
        lin_nominal = scale * 15.0 / 35.0 * card.cell_capacitance
        switch_nominal = scale * card.cell_capacitance - lin_nominal
        c_lin = np.maximum(
            lin_nominal + mismatch_map(shape, 0.4 * self.mismatch_sigma, seed=seed),
            1.0 * fF,
        )
        c_switch = np.maximum(
            switch_nominal
            + mismatch_map(shape, 0.6 * self.mismatch_sigma, seed=seed + 7919),
            1.0 * fF,
        )
        array = FeCapArray(
            rows, cols, tech=card, macro_cols=macro_cols,
            macro_rows=macro_rows, c_lin_map=c_lin, c_switch_map=c_switch,
        )
        array.seed = seed
        if with_defects:
            self.inject_defects(array, seed)
        return array

    def fabricate_die_planes(
        self,
        cap_out: np.ndarray,
        *,
        mean: float,
        cell_sigma: float,
        mismatch_seed: int,
    ) -> None:
        maps = self._die_maps(cap_out.shape, mean, cell_sigma, mismatch_seed)
        # A fresh die is written (P = +1) everywhere.
        cap_out[...] = derived_capacitance(
            maps["c_lin_map"], maps["c_switch_map"], 1.0
        )

    def _die_maps(
        self,
        shape: tuple[int, int],
        mean: float,
        cell_sigma: float,
        mismatch_seed: int,
    ) -> dict[str, np.ndarray]:
        # Independent mismatch on the dielectric and switching layers.
        from repro.edram.variation_map import mismatch_map

        mean = max(mean, self.die_mean_floor)
        lin_nominal = 15.0 / 35.0 * mean
        c_lin = np.maximum(
            lin_nominal + mismatch_map(shape, 0.4 * cell_sigma, seed=mismatch_seed),
            1.0 * fF,
        )
        c_switch = np.maximum(
            (mean - lin_nominal)
            + mismatch_map(shape, 0.6 * cell_sigma, seed=mismatch_seed + 7919),
            1.0 * fF,
        )
        return {"c_lin_map": c_lin, "c_switch_map": c_switch}

    def measurement_range(self) -> tuple[float, float, int]:
        # Must cover the depolarization trajectory: written cells start
        # near C_lin + C_switch (~35 fF) and droop toward the dielectric
        # floor (~15 fF) as reads accumulate.
        return (8.0 * fF, 45.0 * fF, 20)

    def spec_window(self) -> tuple[float, float]:
        # Judge against the *written* state: a cell that has lost more
        # than ~20% of its switched capacitance is disturb-degraded.
        return (28.0 * fF, 42.0 * fF)

    def after_scan(self, array: EDRAMArray, result: "ScanResult") -> None:
        if isinstance(array, FeCapArray):
            array.apply_read_disturb()

    def extra_scalars(self, array: EDRAMArray) -> dict[str, float]:
        if not isinstance(array, FeCapArray):
            return {}
        return {
            "polarization_mean": float(array.polarization_view().mean()),
            "read_cycles": float(array.reads),
        }
