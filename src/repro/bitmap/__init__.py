"""Analog and digital bitmaps plus spatial signature analysis.

The paper's diagnostic payoff: "build an Analog Bitmap of the capacitor
values of the cells in the memory array.  This analog bitmap can be
treated in the same way than the digital one, with signatures
categorization depending on the capacitor values."

- :class:`AnalogBitmap` — per-cell codes + capacitance estimates from a
  measurement scan,
- :class:`DigitalBitmap` — classical pass/fail map from a march test,
- :mod:`repro.bitmap.signatures` — spatial signature categorization
  (single cell / paired cells / row / column / cluster) and gradient
  extraction,
- :mod:`repro.bitmap.compare` — scoring of analog vs digital diagnosis
  against injected ground truth (experiment E2),
- :mod:`repro.bitmap.export` — terminal-friendly renderings.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.bitmap.analog import AnalogBitmap
    from repro.bitmap.digital import DigitalBitmap
    from repro.bitmap.signatures import (
        Signature,
        SignatureKind,
        categorize,
        fit_gradient,
        GradientReport,
    )
    from repro.bitmap.cluster import connected_components, ClusterStats, cluster_stats
    from repro.bitmap.compare import DiagnosisComparison
    from repro.bitmap.export import render_code_map, render_fail_map
    from repro.bitmap.scramble import AddressScrambler

_EXPORTS = {
    "AnalogBitmap": "repro.bitmap.analog",
    "DigitalBitmap": "repro.bitmap.digital",
    "Signature": "repro.bitmap.signatures",
    "SignatureKind": "repro.bitmap.signatures",
    "categorize": "repro.bitmap.signatures",
    "fit_gradient": "repro.bitmap.signatures",
    "GradientReport": "repro.bitmap.signatures",
    "connected_components": "repro.bitmap.cluster",
    "ClusterStats": "repro.bitmap.cluster",
    "cluster_stats": "repro.bitmap.cluster",
    "DiagnosisComparison": "repro.bitmap.compare",
    "render_code_map": "repro.bitmap.export",
    "render_fail_map": "repro.bitmap.export",
    "AddressScrambler": "repro.bitmap.scramble",
}

__all__ = [
    "AnalogBitmap",
    "DigitalBitmap",
    "Signature",
    "SignatureKind",
    "categorize",
    "fit_gradient",
    "GradientReport",
    "connected_components",
    "ClusterStats",
    "cluster_stats",
    "DiagnosisComparison",
    "render_code_map",
    "render_fail_map",
    "AddressScrambler",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
