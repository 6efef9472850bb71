"""Cell defect taxonomy and injection.

The paper's motivation is failure analysis of the eDRAM capacitor module:
its measurement structure separates defect classes that classical digital
bitmaps merge.  This module defines those classes and a deterministic
injector that applies them to an array.

Defect classes
--------------
- ``SHORT``: capacitor dielectric short — the storage node is resistively
  tied to the plate.  The cell cannot hold charge; measurement code 0.
- ``OPEN``: broken storage-node contact — the capacitor is disconnected.
  Invisible to both write and measurement; code 0.
- ``LOW_CAP`` / ``HIGH_CAP``: parametric capacitance shift by ``factor``
  (process-module thinning / over-deposition).  The digital test only
  catches these when retention or sense margin actually fails; the analog
  measurement reads the value directly.
- ``ACCESS_OPEN``: access transistor stuck off (gate contact fail).  The
  storage node floats; behaves like an open from the array terminals.
- ``BRIDGE``: storage node bridged to the horizontally adjacent cell
  (metal sliver).  Both cells read each other's charge; the measurement
  sees roughly the parallel combination.
- ``RETENTION``: elevated junction leakage by ``factor``; fails pause
  tests but measures a normal capacitance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import DefectError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.edram.array import EDRAMArray


class DefectKind(enum.Enum):
    """Classes of cell-level defects (see module docstring)."""

    SHORT = "short"
    OPEN = "open"
    LOW_CAP = "low_cap"
    HIGH_CAP = "high_cap"
    ACCESS_OPEN = "access_open"
    BRIDGE = "bridge"
    RETENTION = "retention"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Defect kinds whose capacitance shift is parametric and needs ``factor``.
_PARAMETRIC = {DefectKind.LOW_CAP, DefectKind.HIGH_CAP, DefectKind.RETENTION}

#: Small-int codes used by the bulk defect-kind matrices
#: (:meth:`~repro.edram.array.EDRAMArray.defect_kind_matrix`); 0 means
#: "no defect".  Codes follow enum definition order.
KIND_CODES: dict[DefectKind, int] = {
    kind: code for code, kind in enumerate(DefectKind, start=1)
}

#: Inverse of :data:`KIND_CODES`.
CODE_KINDS: dict[int, DefectKind] = {code: kind for kind, code in KIND_CODES.items()}


@dataclass(frozen=True)
class CellDefect:
    """One defect instance attached to a cell.

    ``factor`` is interpreted per kind: the capacitance multiplier for
    LOW_CAP/HIGH_CAP, the leakage multiplier for RETENTION, and ignored
    otherwise.
    """

    kind: DefectKind
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind in _PARAMETRIC and self.factor <= 0:
            raise DefectError(f"{self.kind} defect needs a positive factor, got {self.factor}")
        if self.kind == DefectKind.LOW_CAP and self.factor >= 1.0:
            raise DefectError(f"LOW_CAP factor must be < 1, got {self.factor}")
        if self.kind == DefectKind.HIGH_CAP and self.factor <= 1.0:
            raise DefectError(f"HIGH_CAP factor must be > 1, got {self.factor}")
        if self.kind == DefectKind.RETENTION and self.factor <= 1.0:
            raise DefectError(f"RETENTION factor must be > 1, got {self.factor}")


class DefectInjector:
    """Applies defects to an :class:`~repro.edram.array.EDRAMArray`.

    All placement helpers are deterministic under a seed so experiments
    are reproducible; injected locations are recorded in
    :attr:`injected` as ``(row, col, CellDefect)`` tuples (the ground
    truth that diagnosis benches score against).
    """

    def __init__(self, array: "EDRAMArray", seed: int = 0) -> None:
        self.array = array
        self._rng = np.random.default_rng(seed)
        self.injected: list[tuple[int, int, CellDefect]] = []

    def inject(self, row: int, col: int, defect: CellDefect) -> None:
        """Attach ``defect`` to the cell at (row, col)."""
        cell = self.array.cell(row, col)
        if defect.kind == DefectKind.BRIDGE and col + 1 >= self.array.cols:
            raise DefectError(
                f"BRIDGE at ({row}, {col}) needs a right-hand neighbour "
                f"(array has {self.array.cols} columns)"
            )
        cell.apply_defect(defect)
        self.injected.append((row, col, defect))

    def inject_many(self, defects: Iterable[tuple[int, int, CellDefect]]) -> None:
        """Inject a batch of ``(row, col, defect)`` entries."""
        for row, col, defect in defects:
            self.inject(row, col, defect)

    # ------------------------------------------------------------------
    # Random placement helpers
    # ------------------------------------------------------------------

    def scatter(self, kind: DefectKind, count: int, factor: float = 1.0) -> list[tuple[int, int]]:
        """Place ``count`` defects of one kind at distinct random cells.

        Returns the chosen locations.  Cells that already carry a defect
        are skipped when choosing.
        """
        if count < 0:
            raise DefectError(f"count must be >= 0, got {count}")
        rows, cols = self._candidates(kind)
        if count > rows.size:
            raise DefectError(
                f"cannot place {count} defects: only {rows.size} healthy cells"
            )
        chosen = self._rng.choice(rows.size, size=count, replace=False)
        return self._inject_all(kind, factor, rows[chosen], cols[chosen])

    def cluster(
        self,
        kind: DefectKind,
        center: tuple[int, int],
        radius: int,
        factor: float = 1.0,
    ) -> list[tuple[int, int]]:
        """Place one defect kind on every cell within ``radius`` (Chebyshev)
        of ``center`` — models a localized process flaw (particle, scratch).
        """
        if radius < 0:
            raise DefectError(f"radius must be >= 0, got {radius}")
        r0, c0 = center
        window = self._candidates(
            kind,
            slice(max(0, r0 - radius), max(0, r0 + radius + 1)),
            slice(max(0, c0 - radius), max(0, c0 + radius + 1)),
        )
        return self._inject_all(kind, factor, *window)

    def row_stripe(self, kind: DefectKind, row: int, factor: float = 1.0) -> list[tuple[int, int]]:
        """Defect every cell of one row (wordline-level process flaw)."""
        if not 0 <= row < self.array.rows:
            raise DefectError(f"row {row} out of range 0..{self.array.rows - 1}")
        return self._inject_all(
            kind, factor, *self._candidates(kind, rows=slice(row, row + 1))
        )

    def column_stripe(self, kind: DefectKind, col: int, factor: float = 1.0) -> list[tuple[int, int]]:
        """Defect every cell of one column (bitline-level process flaw)."""
        if not 0 <= col < self.array.cols:
            raise DefectError(f"col {col} out of range 0..{self.array.cols - 1}")
        if kind == DefectKind.BRIDGE and col + 1 >= self.array.cols:
            raise DefectError("cannot bridge the last column")
        return self._inject_all(
            kind, factor, *self._candidates(kind, cols=slice(col, col + 1))
        )

    def _candidates(
        self, kind: DefectKind, rows: slice = slice(None), cols: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Healthy cells of a window that may take ``kind``, row-major.

        Read from the defect-kind plane, so no cell object is built just
        to be skipped.  A BRIDGE needs a right-hand neighbour, so the
        array's last column never qualifies for one.
        """
        kinds = self.array.defect_kind_view()
        healthy = np.zeros(kinds.shape, dtype=bool)
        healthy[rows, cols] = kinds[rows, cols] == 0
        if kind == DefectKind.BRIDGE:
            healthy[:, -1] = False
        return np.nonzero(healthy)

    def _inject_all(
        self, kind: DefectKind, factor: float, rows: np.ndarray, cols: np.ndarray
    ) -> list[tuple[int, int]]:
        locations = [(int(r), int(c)) for r, c in zip(rows, cols)]
        for row, col in locations:
            self.inject(row, col, CellDefect(kind, factor))
        return locations
