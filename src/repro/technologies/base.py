"""The :class:`CellTechnology` protocol — what a backend must provide.

A backend owns everything on the *array side* of the measurement seam:

- the **technology card** (supply rails, devices, parasitics, leakage)
  and its **parameter corners**,
- the **cell electrical model** and **defect semantics** — expressed as
  the array class the backend builds, whose capacitance/defect planes
  are exactly the netlist stamps the sequencer requests at the
  plate/bitline/wordline terminals,
- the **variation maps** used to synthesize arrays and wafer dies,
- the **measurement range** the structure designer should solve for and
  the **quality thresholds** (spec window) diagnosis judges against,
- optional **post-scan physics** (e.g. ferroelectric read-disturb) and
  per-run **extra scalars** for the drift charts.

The scan engine, closed-form kernel, resilience ladder, ledger fingerprints and drift detection all stay
technology-agnostic: they consume the array's bulk planes and the
structure's constants, both of which the backend produced, so every
backend's arrays ride the batched kernel (see docs/architecture.md,
"Cell-technology backends").
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import TechnologyError
from repro.units import fF, to_fF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.edram.array import EDRAMArray
    from repro.measure.scan import ScanResult
    from repro.measure.structure import MeasurementStructure
    from repro.tech.parameters import TechnologyCard


class CellTechnology(abc.ABC):
    """One pluggable memory technology behind the measurement seam.

    Subclasses set the class attributes and implement
    :meth:`base_card` and :meth:`build_array`; every other method has a
    technology-agnostic default expressed in terms of those two.
    Backends are stateless singletons (the registry caches one instance
    per process) — all mutable physics state lives on the arrays they
    build.
    """

    #: Registry name (``repro scan --tech <name>``).
    name: str = ""
    #: Human-readable one-liner for ``repro tech list``.
    display: str = ""
    #: The backend's headline measurement (``"capacitance"``,
    #: ``"retention"``, ...).
    headline: str = "capacitance"
    #: Literature reference for the cell physics.
    reference: str = ""
    #: Within-die mismatch sigma used by the default array synthesis.
    mismatch_sigma: float = 0.8 * fF
    #: Floor on a wafer die's drawn mean capacitance.
    die_mean_floor: float = 5.0 * fF
    #: Floor on every cell of a fabricated wafer die.
    die_cell_floor: float = 1.0 * fF

    # ------------------------------------------------------------------
    # Cards and corners
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def base_card(self) -> "TechnologyCard":
        """The nominal (typical-typical) technology card."""

    def corners(self) -> dict[str, "TechnologyCard"]:
        """Parameter-corner cards keyed by corner tag (``tt``/``ff``/...).

        Defaults to the five-corner transistor shifts of
        :mod:`repro.tech.corners` applied over :meth:`base_card`;
        backends whose storage element corners differently override.
        """
        from repro.tech.corners import all_corners

        return {
            corner.value: card
            for corner, card in all_corners(self.base_card()).items()
        }

    # ------------------------------------------------------------------
    # Array synthesis
    # ------------------------------------------------------------------

    @abc.abstractmethod
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
        tech: "TechnologyCard | None" = None,
    ) -> "EDRAMArray":
        """Synthesize an array with this technology's variation model.

        ``nominal`` overrides the card's nominal storage capacitance
        (farads); ``None`` uses the card value.  ``with_defects``
        scatters the backend's standard defect population (deterministic
        under ``seed``).  ``tech`` substitutes a corner card.  The array
        keeps ``seed`` as ``array.seed`` for its run manifests.
        """

    def inject_defects(self, array: "EDRAMArray", seed: int = 0) -> None:
        """Scatter the standard demo defect population onto ``array``.

        The recipe mirrors the original eDRAM CLI synthesis (density per
        defect class scales with the cell count; LOW_CAP at factor 0.6)
        so the default eDRAM path stays bit-exact.  Backends with
        different dominant mechanisms override.
        """
        from repro.edram.defects import DefectInjector, DefectKind

        injector = DefectInjector(array, seed=seed + 1)
        injector.scatter(DefectKind.SHORT, max(1, array.num_cells // 400))
        injector.scatter(DefectKind.OPEN, max(1, array.num_cells // 400))
        injector.scatter(
            DefectKind.LOW_CAP, max(2, array.num_cells // 200), factor=0.6
        )
        injector.scatter(DefectKind.BRIDGE, max(1, array.num_cells // 500))

    def fabricate_die(
        self,
        rows: int,
        cols: int,
        *,
        macro_rows: int,
        macro_cols: int,
        mean: float,
        cell_sigma: float,
        mismatch_seed: int,
        tech: "TechnologyCard | None" = None,
    ) -> "EDRAMArray":
        """Build one wafer die with a given mean and mismatch draw.

        The wafer model owns the RNG (die means and mismatch seeds must
        come from *its* stream so checkpoint fast-forward stays
        bit-exact); the backend turns one ``(mean, mismatch_seed)`` draw
        into a die array: the array class over :meth:`_die_maps`.
        """
        return self.array_class()(
            rows, cols, tech=tech if tech is not None else self.base_card(),
            macro_cols=macro_cols, macro_rows=macro_rows,
            **self._die_maps((rows, cols), mean, cell_sigma, mismatch_seed),
        )

    def fabricate_die_planes(
        self,
        cap_out: np.ndarray,
        *,
        mean: float,
        cell_sigma: float,
        mismatch_seed: int,
    ) -> None:
        """Write one die's capacitance plane into ``cap_out`` whole.

        ``cap_out`` is a ``(die_rows, die_cols)`` view of a wafer
        chunk's stacked plane; the result is bit for bit what
        :meth:`fabricate_die` with the same draw returns through
        ``capacitance_view()``.  A die has no defects, so there is no
        kind plane to write.
        """
        cap_out[...] = self._die_maps(
            cap_out.shape, mean, cell_sigma, mismatch_seed
        )["capacitance_map"]

    def _die_maps(
        self,
        shape: tuple[int, int],
        mean: float,
        cell_sigma: float,
        mismatch_seed: int,
    ) -> dict[str, np.ndarray]:
        """One draw's die maps, as keyword arguments of the array class.

        The backend's one die recipe: :meth:`fabricate_die` and
        :meth:`fabricate_die_planes` both derive from it.  The default
        is a uniform mean (floored at :attr:`die_mean_floor`) plus white
        mismatch, clamped at :attr:`die_cell_floor` — in
        :func:`~repro.edram.variation_map.compose_maps`' order.
        """
        from repro.edram.variation_map import mismatch_map

        capacitance = max(mean, self.die_mean_floor) + mismatch_map(
            shape, cell_sigma, seed=mismatch_seed
        )
        return {
            "capacitance_map": np.maximum(
                capacitance, self.die_cell_floor, out=capacitance
            )
        }

    def array_class(self) -> type:
        """The array class this backend fabricates."""
        from repro.edram.array import EDRAMArray

        return EDRAMArray

    # ------------------------------------------------------------------
    # Measurement range / structure design
    # ------------------------------------------------------------------

    def measurement_range(self) -> tuple[float, float, int]:
        """``(c_lo, c_hi, num_steps)`` the structure should be sized for.

        Defaults to the paper's 10–55 fF over 20 steps; backends whose
        storage capacitance lives elsewhere (e.g. a few-fF floating
        body) override so :func:`~repro.calibration.design.design_structure`
        solves a feasible converter.
        """
        return (10.0 * fF, 55.0 * fF, 20)

    def design_structure(
        self, array: "EDRAMArray", *, bitline_rows: int | None = None
    ) -> "MeasurementStructure":
        """Size a measurement structure for ``array``'s macro geometry."""
        from repro.calibration.design import design_structure

        c_lo, c_hi, num_steps = self.measurement_range()
        return design_structure(
            array.tech, array.macro_rows, array.macro_cols,
            c_lo=c_lo, c_hi=c_hi, num_steps=num_steps,
            bitline_rows=bitline_rows if bitline_rows is not None else array.rows,
        )

    def default_structure(self, array: "EDRAMArray") -> "MeasurementStructure":
        """The reference (undesigned) structure for quick scans.

        Must match what :class:`~repro.measure.scan.ArrayScanner` builds
        when no structure is passed — the registry path may not perturb
        the default-scan results.
        """
        from repro.measure.structure import MeasurementDesign, MeasurementStructure

        return MeasurementStructure(array.tech, MeasurementDesign())

    def spec_window(self) -> tuple[float, float]:
        """Capacitance quality thresholds (farads) diagnosis judges by.

        Defaults to ±20 % of the card nominal; the eDRAM backend pins
        the historical 24–36 fF window explicitly.
        """
        nominal = self.base_card().cell_capacitance
        return (0.8 * nominal, 1.2 * nominal)

    # ------------------------------------------------------------------
    # Post-scan physics hooks
    # ------------------------------------------------------------------

    def after_scan(self, array: "EDRAMArray", result: "ScanResult") -> None:
        """Apply any physical consequence of having read every cell.

        Called by :meth:`ArrayScanner.scan` once per completed scan,
        before the run is recorded.  The default is a no-op (an eDRAM
        capacitive measurement is non-destructive at this abstraction);
        the ferroelectric backend applies cumulative read-disturb here,
        which bumps ``array.version`` and thereby invalidates cached
        netlists automatically.
        """

    def extra_scalars(self, array: "EDRAMArray") -> dict[str, float]:
        """Backend-specific per-run scalars for the ledger/drift charts."""
        return {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        """Machine-readable summary for ``repro tech list``."""
        card = self.base_card()
        c_lo, c_hi, num_steps = self.measurement_range()
        spec_lo, spec_hi = self.spec_window()
        return {
            "name": self.name,
            "display": self.display,
            "headline": self.headline,
            "reference": self.reference,
            "card": card.name,
            "vdd": card.vdd,
            "nominal_fF": to_fF(card.cell_capacitance),
            "range_fF": [to_fF(c_lo), to_fF(c_hi)],
            "num_steps": num_steps,
            "spec_window_fF": [to_fF(spec_lo), to_fF(spec_hi)],
            "corners": {
                tag: {
                    "card": corner_card.name,
                    "nominal_fF": to_fF(corner_card.cell_capacitance),
                    "nmos_vth": corner_card.nmos.vth0,
                    "pmos_vth": corner_card.pmos.vth0,
                }
                for tag, corner_card in self.corners().items()
            },
        }

    def check_array(self, array: "EDRAMArray") -> None:
        """Raise unless ``array`` was fabricated for this technology."""
        array_technology = getattr(array, "technology", "edram")
        if array_technology != self.name:
            raise TechnologyError(
                f"array carries technology {array_technology!r}, "
                f"not {self.name!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CellTechnology {self.name!r} ({self.display})>"
