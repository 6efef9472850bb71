"""Technology cards for the simulated 0.18 µm eDRAM process.

The paper validated its structure on ST-Microelectronics' proprietary
0.18 µm eDRAM design kit.  That kit is not available, so this package
provides a synthetic technology card with public-domain-typical 0.18 µm
parameters (V_DD = 1.8 V, n-MOS V_TH ≈ 0.45 V, t_ox ≈ 4 nm) plus the
eDRAM-specific quantities the measurement structure depends on: nominal
cell capacitance (~30 fF), bitline/wordline parasitics, boosted wordline
voltage, and junction leakage.

Public API
----------
- :class:`MosfetParams` — level-1 + subthreshold device parameter set
- :class:`TechnologyCard` — everything the simulator and array model need
- :func:`default_technology` — the nominal TT 0.18 µm eDRAM card
- :class:`Corner` / :func:`corner_technology` — TT/FF/SS/FS/SF corners
- :class:`VariationModel` / :class:`MonteCarloSampler` — parametric
  mismatch sampling for Monte-Carlo experiments

Names resolve lazily from ``_EXPORTS`` (:mod:`repro._lazy`): reading
the card does not load the corner and Monte-Carlo modules.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.tech.parameters import (
        MosfetParams,
        TechnologyCard,
        default_technology,
        technology_013um,
    )
    from repro.tech.corners import Corner, corner_technology, all_corners, CORNER_SHIFTS
    from repro.tech.variation import VariationModel, MonteCarloSampler

_EXPORTS = {
    "MosfetParams": "repro.tech.parameters",
    "TechnologyCard": "repro.tech.parameters",
    "default_technology": "repro.tech.parameters",
    "technology_013um": "repro.tech.parameters",
    "all_corners": "repro.tech.corners",
    "Corner": "repro.tech.corners",
    "corner_technology": "repro.tech.corners",
    "CORNER_SHIFTS": "repro.tech.corners",
    "VariationModel": "repro.tech.variation",
    "MonteCarloSampler": "repro.tech.variation",
}

__all__ = [
    "MosfetParams",
    "TechnologyCard",
    "default_technology",
    "technology_013um",
    "all_corners",
    "Corner",
    "corner_technology",
    "CORNER_SHIFTS",
    "VariationModel",
    "MonteCarloSampler",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
