"""Device and technology parameter cards.

Two dataclasses live here:

- :class:`MosfetParams` — a level-1 (Shichman-Hodges) MOSFET parameter set
  extended with an exponential subthreshold region, enough physics for the
  charge-sharing and current-ramp behaviour the paper relies on.
- :class:`TechnologyCard` — the full synthetic "design kit": supply rails,
  the n/p device cards, eDRAM cell and parasitic capacitances, and leakage.

All values are in base SI units (see :mod:`repro.units`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import TechnologyError
from repro.units import EPS0, EPS_SIO2, T_NOMINAL, fF, nm, um, fA


@dataclass(frozen=True)
class MosfetParams:
    """Level-1 MOSFET parameters with subthreshold extension.

    Parameters
    ----------
    polarity:
        ``"nmos"`` or ``"pmos"``.
    vth0:
        Zero-bias threshold voltage in volts.  Positive for n-MOS,
        negative for p-MOS (SPICE convention).
    kp:
        Process transconductance ``µ·C_ox`` in A/V².
    lambda_:
        Channel-length modulation in 1/V.
    gamma:
        Body-effect coefficient in V^0.5 (applied when the source rises
        above the bulk for n-MOS).
    phi:
        Surface potential ``2·φ_F`` in volts, used with ``gamma``.
    tox:
        Gate-oxide thickness in metres (sets the gate capacitance).
    n_sub:
        Subthreshold slope factor (typically 1.3–1.6).
    i_off:
        Leakage floor per µm of width at V_GS = 0, in amperes
        (keeps the device matrix non-singular and models off-state leak).
    """

    polarity: str
    vth0: float
    kp: float
    lambda_: float = 0.06
    gamma: float = 0.4
    phi: float = 0.7
    tox: float = 4.0 * nm
    n_sub: float = 1.45
    i_off: float = 5.0 * fA
    temperature_k: float = 300.15
    vth_tc: float = 1.0e-3  # |V_TH| decrease per kelvin
    mobility_exponent: float = -1.5  # kp ~ (T/T0)^exponent

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise TechnologyError(f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}")
        if self.kp <= 0:
            raise TechnologyError(f"kp must be positive, got {self.kp}")
        if self.tox <= 0:
            raise TechnologyError(f"tox must be positive, got {self.tox}")
        if self.polarity == "nmos" and self.vth0 <= 0:
            raise TechnologyError(f"n-MOS vth0 must be positive, got {self.vth0}")
        if self.polarity == "pmos" and self.vth0 >= 0:
            raise TechnologyError(f"p-MOS vth0 must be negative, got {self.vth0}")

    @property
    def cox(self) -> float:
        """Gate-oxide capacitance per unit area, F/m²."""
        return EPS0 * EPS_SIO2 / self.tox

    def gate_capacitance(self, width: float, length: float) -> float:
        """Total gate capacitance ``C_ox·W·L`` in farads for a device geometry."""
        if width <= 0 or length <= 0:
            raise TechnologyError(f"device W={width}, L={length} must be positive")
        return self.cox * width * length

    def beta(self, width: float, length: float) -> float:
        """Device transconductance factor ``kp·W/L`` in A/V²."""
        if width <= 0 or length <= 0:
            raise TechnologyError(f"device W={width}, L={length} must be positive")
        return self.kp * width / length

    # ------------------------------------------------------------------
    # Temperature behaviour
    #
    # ``vth0``/``kp`` are specified at the SPICE nominal 300.15 K; the
    # effective values below apply the card's evaluation temperature:
    # |V_TH| drops ~1 mV/K and mobility follows (T/T0)^-1.5.  The device
    # model consumes only the *_eff properties, so re-biasing a whole
    # card is a single `with_temperature` away.
    # ------------------------------------------------------------------

    @property
    def _dtemp(self) -> float:
        return self.temperature_k - T_NOMINAL

    @property
    def vth_eff(self) -> float:
        """Signed threshold at the evaluation temperature."""
        magnitude = max(0.05, abs(self.vth0) - self.vth_tc * self._dtemp)
        return magnitude if self.polarity == "nmos" else -magnitude

    @property
    def kp_eff(self) -> float:
        """Transconductance at the evaluation temperature."""
        return self.kp * (self.temperature_k / T_NOMINAL) ** self.mobility_exponent

    def beta_eff(self, width: float, length: float) -> float:
        """Temperature-corrected ``kp_eff·W/L`` in A/V²."""
        if width <= 0 or length <= 0:
            raise TechnologyError(f"device W={width}, L={length} must be positive")
        return self.kp_eff * width / length

    def with_temperature(self, temperature_k: float) -> "MosfetParams":
        """Copy of this card evaluated at ``temperature_k``."""
        if temperature_k <= 0:
            raise TechnologyError(f"temperature must be positive, got {temperature_k}")
        return replace(self, temperature_k=temperature_k)

    def with_shift(self, *, dvth: float = 0.0, kp_scale: float = 1.0) -> "MosfetParams":
        """Return a copy with a threshold shift and/or transconductance scaling.

        ``dvth`` moves ``|vth0|`` (a positive shift makes either polarity
        *slower*); ``kp_scale`` multiplies ``kp``.
        """
        sign = 1.0 if self.polarity == "nmos" else -1.0
        return replace(self, vth0=self.vth0 + sign * dvth, kp=self.kp * kp_scale)


@dataclass(frozen=True)
class TechnologyCard:
    """Synthetic 0.18 µm eDRAM technology card.

    Substitutes for the ST-Microelectronics design kit used in the paper
    (see DESIGN.md §2).  Every quantity the simulator, the array model and
    the measurement structure need is collected here so that corner and
    Monte-Carlo experiments can swap a single object.

    Notes on eDRAM-specific entries:

    - ``cell_capacitance``: nominal storage capacitance, 30 fF per the paper.
    - ``vpp``: boosted wordline level; high enough to pass a full V_DD
      through the n-MOS access transistor (V_DD + V_TH + margin).
    - ``bitline_capacitance``: parasitic bitline capacitance for a full
      column; this is the "capacitance noise" the paper's plate-node
      connection avoids.
    - ``plate_parasitic``: stray capacitance of the shared plate node of
      one macro-cell (wiring + well), charged alongside C_m and therefore
      part of what the abacus calibrates out.
    - ``storage_junction_cap``: source/drain junction capacitance at a
      cell's storage node; sets the (small) series load that unselected
      cells present to the plate.
    """

    name: str = "generic-0.18um-edram"
    vdd: float = 1.8
    vpp: float = 2.9
    temperature_k: float = 300.15
    nmos: MosfetParams = field(
        default_factory=lambda: MosfetParams(polarity="nmos", vth0=0.45, kp=300e-6)
    )
    pmos: MosfetParams = field(
        default_factory=lambda: MosfetParams(polarity="pmos", vth0=-0.45, kp=75e-6)
    )
    # eDRAM cell
    cell_capacitance: float = 30.0 * fF
    cell_cap_sigma: float = 1.0 * fF
    storage_junction_cap: float = 0.6 * fF
    access_w: float = 0.28 * um
    access_l: float = 0.18 * um
    # Interconnect parasitics
    bitline_cap_per_cell: float = 0.35 * fF
    bitline_base_cap: float = 2.0 * fF
    wordline_cap_per_cell: float = 0.45 * fF
    plate_parasitic_per_cell: float = 0.08 * fF
    plate_base_cap: float = 1.5 * fF
    # Leakage
    junction_leak_per_cell: float = 1.0 * fA
    retention_target_s: float = 64e-3

    def __post_init__(self) -> None:
        if self.vdd <= 0:
            raise TechnologyError(f"vdd must be positive, got {self.vdd}")
        if self.vpp < self.vdd:
            raise TechnologyError(
                f"vpp ({self.vpp} V) must be at least vdd ({self.vdd} V) "
                "to pass a full level through the access transistor"
            )
        if self.cell_capacitance <= 0:
            raise TechnologyError("cell_capacitance must be positive")
        if self.nmos.polarity != "nmos" or self.pmos.polarity != "pmos":
            raise TechnologyError("nmos/pmos cards have swapped polarities")

    @property
    def half_vdd(self) -> float:
        """The V_DD/2 plate bias / inverter threshold reference, volts."""
        return self.vdd / 2.0

    def bitline_capacitance(self, rows: int) -> float:
        """Parasitic capacitance of a bitline spanning ``rows`` cells, farads."""
        if rows < 0:
            raise TechnologyError(f"rows must be non-negative, got {rows}")
        return self.bitline_base_cap + rows * self.bitline_cap_per_cell

    def plate_parasitic(self, cells: int) -> float:
        """Stray plate-node capacitance for a macro-cell of ``cells`` cells."""
        if cells < 0:
            raise TechnologyError(f"cells must be non-negative, got {cells}")
        return self.plate_base_cap + cells * self.plate_parasitic_per_cell

    def access_transistor_beta(self) -> float:
        """β of the cell access transistor, A/V²."""
        return self.nmos.beta(self.access_w, self.access_l)

    def with_devices(self, nmos: MosfetParams, pmos: MosfetParams) -> "TechnologyCard":
        """Return a copy of this card with replacement device parameter sets."""
        return replace(self, nmos=nmos, pmos=pmos)

    def junction_leak_at(self, temperature_k: float | None = None) -> float:
        """Per-cell junction leakage at a temperature, amperes.

        DRAM junction leakage roughly doubles every 10 K; the card's base
        value is specified at the nominal 300.15 K.
        """
        t = self.temperature_k if temperature_k is None else temperature_k
        if t <= 0:
            raise TechnologyError(f"temperature must be positive, got {t}")
        return self.junction_leak_per_cell * 2.0 ** ((t - T_NOMINAL) / 10.0)

    def at_temperature(self, temperature_k: float) -> "TechnologyCard":
        """Copy of this card evaluated at ``temperature_k``.

        Re-biases both device cards, scales the junction leakage
        (doubling every 10 K) and tags the name, so downstream consumers
        (arrays, structures, abaci) see a consistent environment.
        """
        if temperature_k <= 0:
            raise TechnologyError(f"temperature must be positive, got {temperature_k}")
        return replace(
            self,
            name=f"{self.name}@{temperature_k - 273.15:.0f}C",
            temperature_k=temperature_k,
            nmos=self.nmos.with_temperature(temperature_k),
            pmos=self.pmos.with_temperature(temperature_k),
            junction_leak_per_cell=self.junction_leak_at(temperature_k),
        )


def default_technology() -> TechnologyCard:
    """Return the nominal (typical-typical) 0.18 µm eDRAM technology card."""
    return TechnologyCard()


def technology_013um() -> TechnologyCard:
    """A scaled 0.13 µm eDRAM card (portability check, not the paper's node).

    Public-domain-typical 0.13 µm values: V_DD = 1.2 V, thinner oxide,
    lower thresholds, smaller cells with a slightly smaller capacitor
    (trench/stack capacitance does not scale with lithography, which is
    exactly why eDRAM capacitor monitoring stays hard node over node).
    The library's design solver must adapt the structure to this card
    without code changes — pinned in tests.
    """
    return TechnologyCard(
        name="generic-0.13um-edram",
        vdd=1.2,
        vpp=2.1,
        nmos=MosfetParams(polarity="nmos", vth0=0.34, kp=430e-6, tox=2.2 * nm),
        pmos=MosfetParams(polarity="pmos", vth0=-0.34, kp=110e-6, tox=2.2 * nm),
        cell_capacitance=25.0 * fF,
        cell_cap_sigma=1.2 * fF,
        storage_junction_cap=0.45 * fF,
        access_w=0.20 * um,
        access_l=0.13 * um,
        bitline_cap_per_cell=0.28 * fF,
        bitline_base_cap=1.6 * fF,
        wordline_cap_per_cell=0.36 * fF,
        plate_parasitic_per_cell=0.06 * fF,
        plate_base_cap=1.2 * fF,
        junction_leak_per_cell=2.0 * fA,
        retention_target_s=32e-3,
    )
