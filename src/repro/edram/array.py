"""eDRAM array geometry: cells, macro-cells, addressing.

An :class:`EDRAMArray` is a ``rows × cols`` grid of
:class:`~repro.edram.cell.DRAMCell`.  Columns are grouped into
**macro-cells** of ``macro_cols`` adjacent bitlines sharing one plate
node; per Figure 1 of the paper, each macro-cell owns one embedded
measurement structure attached to that plate.  (The paper's figure shows
a 2-bitline macro; ``macro_cols`` is a parameter precisely so the
isolation-error ablation can sweep it.)

The array carries structural truth only — behavioural read/write lives
in :mod:`repro.edram.operations`, measurement in :mod:`repro.measure`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.edram.cell import DRAMCell
from repro.edram.defects import CODE_KINDS, KIND_CODES, DefectKind
from repro.errors import ArrayConfigError
from repro.tech.parameters import TechnologyCard, default_technology

#: Defect-kind codes that present ~0 F at the plate when selected
#: (mirrors :meth:`~repro.edram.cell.DRAMCell.effective_capacitance`).
_DEAD_AT_PLATE = (
    KIND_CODES[DefectKind.OPEN],
    KIND_CODES[DefectKind.ACCESS_OPEN],
    KIND_CODES[DefectKind.SHORT],
)


@dataclass(frozen=True, order=True)
class CellAddress:
    """(row, col) address of one cell; ordered row-major."""

    row: int
    col: int


class EDRAMArray:
    """Grid of 1T1C cells organised into plate-sharing macro-cells.

    The plate of an eDRAM array is a bias net, not a signal net, so it
    can be segmented freely; bitlines, by contrast, must span the whole
    column to reach the sense amplifiers.  Macro-cells are therefore
    **tiles**: ``macro_rows × macro_cols`` cells sharing one plate
    segment (and one embedded measurement structure), while every
    bitline keeps the full array height's parasitic capacitance.  This
    asymmetry is exactly why the paper's plate-node connection wins over
    bitline-side measurement (experiment E1).

    Parameters
    ----------
    rows, cols:
        Array dimensions (wordlines × bitlines).
    tech:
        Technology card; defaults to the nominal 0.18 µm eDRAM card.
    macro_cols:
        Bitlines per macro-cell tile (must divide ``cols``).
    macro_rows:
        Wordlines per macro-cell tile (must divide ``rows``); defaults
        to the full array height (column-stripe macros, the simple
        configuration).
    capacitance_map:
        Optional ``(rows, cols)`` array of per-cell capacitances in
        farads; defaults to the uniform nominal value.  Use the
        generators in :mod:`repro.edram.variation_map` to build realistic
        maps.
    leak_map:
        Optional ``(rows, cols)`` array of per-cell junction leakage in
        amperes; defaults to the uniform technology value.
    """

    #: Cell-technology backend name this array class belongs to
    #: (``repro.technologies``).  Subclasses for other memories override;
    #: the scanner checks it against ``ScanConfig.technology``.
    technology = "edram"

    #: The seed a technology backend's ``build_array`` drew this array
    #: from (recorded in its run manifests); ``None`` when hand-built.
    seed: int | None = None

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
        if rows < 1 or cols < 1:
            raise ArrayConfigError(f"array must be at least 1x1, got {rows}x{cols}")
        if macro_cols < 1 or cols % macro_cols != 0:
            raise ArrayConfigError(
                f"macro_cols ({macro_cols}) must be >= 1 and divide cols ({cols})"
            )
        if macro_rows is None:
            macro_rows = rows
        if macro_rows < 1 or rows % macro_rows != 0:
            raise ArrayConfigError(
                f"macro_rows ({macro_rows}) must be >= 1 and divide rows ({rows})"
            )
        self.rows = rows
        self.cols = cols
        self.tech = tech if tech is not None else default_technology()
        self.macro_cols = macro_cols
        self.macro_rows = macro_rows

        cap = self._validated_map(capacitance_map, self.tech.cell_capacitance, "capacitance_map")
        leak = self._validated_map(leak_map, self.tech.junction_leak_per_cell, "leak_map")

        # The bulk planes are the truth; cell() builds a DRAMCell only on
        # first access (kernel scans and wafer dies never ask), and its
        # watcher mirrors every later edit back through _note_cell_changed.
        self._cells: list[list[DRAMCell | None]] = [[None] * cols for _ in range(rows)]
        self._cap = cap.astype(float, copy=True)
        self._leak = leak.astype(float, copy=True)
        self._kinds = np.zeros((rows, cols), dtype=np.int8)
        self._kind_counts: dict[DefectKind, int] = dict.fromkeys(DefectKind, 0)
        self._version = 0
        # Functional-test state (stored voltage, last-write time), built
        # by the first ArrayOperations: a scanned-only array never pays
        # for two more planes.
        self._functional: tuple[np.ndarray, np.ndarray] | None = None

    def _validated_map(self, arr: np.ndarray | None, default: float, name: str) -> np.ndarray:
        if arr is None:
            return np.full((self.rows, self.cols), default)
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (self.rows, self.cols):
            raise ArrayConfigError(
                f"{name} shape {arr.shape} does not match array {self.rows}x{self.cols}"
            )
        if np.any(arr <= 0):
            raise ArrayConfigError(f"{name} must be strictly positive everywhere")
        return arr

    # ------------------------------------------------------------------
    # Mutation tracking
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every watched cell mutation.

        Consumers holding derived state (cached netlists, designed
        windows) compare versions to decide whether to rebuild.
        """
        return self._version

    def _note_cell_changed(self, row: int, col: int) -> None:
        """Mirror one cell's mutation into the bulk matrices (cell hook)."""
        cell = self.cell(row, col)
        self._cap[row, col] = cell.capacitance
        self._leak[row, col] = cell.leak_current
        new = 0 if cell.defect is None else KIND_CODES[cell.defect.kind]
        old = int(self._kinds[row, col])
        if old != new:
            if old:
                self._kind_counts[CODE_KINDS[old]] -= 1
            if new:
                self._kind_counts[CODE_KINDS[new]] += 1
            self._kinds[row, col] = new
        self._version += 1

    def _set_capacitance_plane(self, plane: np.ndarray) -> None:
        """Overwrite every cell's capacitance in one edit (one version bump).

        Cells never materialized read the new plane on first access;
        materialized ones are synced here without per-cell watcher
        traffic.
        """
        self._cap[...] = plane
        for r, row_cells in enumerate(self._cells):
            for c, cell in enumerate(row_cells):
                if cell is not None:
                    object.__setattr__(cell, "capacitance", float(self._cap[r, c]))
        self._version += 1

    def functional_planes(self) -> tuple[np.ndarray, np.ndarray]:
        """Writable (stored voltage, last-write time) planes, shape (rows, cols).

        The behavioural state every
        :class:`~repro.edram.operations.ArrayOperations` on this array
        shares; allocated (all zeros, like a fresh cell) on first use.
        """
        if self._functional is None:
            shape = (self.rows, self.cols)
            self._functional = (np.zeros(shape), np.zeros(shape))
        return self._functional

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def check_address(self, row: int, col: int) -> None:
        """Raise :class:`ArrayConfigError` unless (row, col) is in the array."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ArrayConfigError(
                f"address ({row}, {col}) outside array {self.rows}x{self.cols}"
            )

    def cell(self, row: int, col: int) -> DRAMCell:
        """The cell at (row, col); raises on out-of-range addresses.

        Built from the bulk planes on first access, watched, and cached:
        later edits through the cell land back in the planes.
        """
        self.check_address(row, col)
        cell = self._cells[row][col]
        if cell is None:
            cell = DRAMCell(
                capacitance=float(self._cap[row, col]),
                leak_current=float(self._leak[row, col]),
            )
            cell._watcher = (self, row, col)
            self._cells[row][col] = cell
        return cell

    def addresses(self) -> list[CellAddress]:
        """All cell addresses in row-major order."""
        return [CellAddress(r, c) for r in range(self.rows) for c in range(self.cols)]

    @property
    def num_cells(self) -> int:
        """Total number of cells."""
        return self.rows * self.cols

    # ------------------------------------------------------------------
    # Macro-cells
    # ------------------------------------------------------------------

    @property
    def macros_per_row(self) -> int:
        """Macro tiles across the array width."""
        return self.cols // self.macro_cols

    @property
    def macros_per_col(self) -> int:
        """Macro tiles down the array height."""
        return self.rows // self.macro_rows

    @property
    def num_macros(self) -> int:
        """Number of macro-cell tiles (plate segments)."""
        return self.macros_per_row * self.macros_per_col

    def macro(self, index: int) -> "MacroCell":
        """The macro-cell with the given index (row-major tile order)."""
        if not 0 <= index < self.num_macros:
            raise ArrayConfigError(
                f"macro index {index} out of range 0..{self.num_macros - 1}"
            )
        return MacroCell(self, index)

    def macros(self) -> list["MacroCell"]:
        """All macro-cell tiles, row-major."""
        return [MacroCell(self, i) for i in range(self.num_macros)]

    def macro_of(self, row: int, col: int) -> int:
        """Index of the macro-cell tile containing cell (row, col)."""
        if not 0 <= col < self.cols:
            raise ArrayConfigError(f"col {col} out of range 0..{self.cols - 1}")
        if not 0 <= row < self.rows:
            raise ArrayConfigError(f"row {row} out of range 0..{self.rows - 1}")
        return (row // self.macro_rows) * self.macros_per_row + col // self.macro_cols

    # ------------------------------------------------------------------
    # Bulk views
    # ------------------------------------------------------------------

    def capacitance_matrix(self) -> np.ndarray:
        """Per-cell as-fabricated capacitances, farads, shape (rows, cols)."""
        return self._cap.copy()

    def leak_matrix(self) -> np.ndarray:
        """Per-cell junction leakage, amperes, shape (rows, cols)."""
        return self._leak.copy()

    def capacitance_view(self) -> np.ndarray:
        """Read-only no-copy view of the capacitance plane.

        The vectorized measurement kernel gathers its inputs through
        these views so a whole-array scan allocates nothing per macro;
        hold a :attr:`version` alongside any long-lived reference.
        """
        view = self._cap.view()
        view.flags.writeable = False
        return view

    def defect_kind_view(self) -> np.ndarray:
        """Read-only no-copy view of the defect-kind plane (int8)."""
        view = self._kinds.view()
        view.flags.writeable = False
        return view

    def leak_view(self) -> np.ndarray:
        """Read-only no-copy view of the leakage plane."""
        view = self._leak.view()
        view.flags.writeable = False
        return view

    def defect_kind_matrix(self) -> np.ndarray:
        """Per-cell defect-kind codes, shape (rows, cols), dtype int8.

        0 marks a healthy cell; other codes are
        :data:`repro.edram.defects.KIND_CODES` entries.
        """
        return self._kinds.copy()

    def defect_mask(self, kind: DefectKind) -> np.ndarray:
        """Boolean (rows, cols) mask of cells carrying ``kind``."""
        return self._kinds == KIND_CODES[kind]

    def defect_count(self, kind: DefectKind | None = None) -> int:
        """Number of defective cells (of one kind, or in total).  O(1)."""
        if kind is None:
            return sum(self._kind_counts.values())
        return self._kind_counts[kind]

    def effective_capacitance_matrix(self) -> np.ndarray:
        """Per-cell capacitance presented at the plate (defects applied)."""
        return np.where(np.isin(self._kinds, _DEAD_AT_PLATE), 0.0, self._cap)

    def defect_locations(self) -> list[tuple[int, int]]:
        """Addresses of every cell carrying a defect (row-major)."""
        rows, cols = np.nonzero(self._kinds)
        return [(int(r), int(c)) for r, c in zip(rows, cols)]

    def bitline_capacitance(self) -> float:
        """Parasitic capacitance of one full-height bitline, farads."""
        return self.tech.bitline_capacitance(self.rows)


class MacroCell:
    """View over one plate-sharing tile of an :class:`EDRAMArray`.

    The measurement structure of the paper attaches to
    :attr:`plate_parasitic` worth of stray capacitance plus every cell in
    :meth:`cells`; bitlines within the macro are selected through the
    S_BLi transistors but keep the **full array height's** parasitic
    capacitance — a bitline cannot be segmented the way the plate can.

    All ``row``/``local_col`` arguments to this class are tile-local.
    """

    def __init__(self, array: EDRAMArray, index: int) -> None:
        self.array = array
        self.index = index
        tile_row, tile_col = divmod(index, array.macros_per_row)
        self.row_start = tile_row * array.macro_rows
        self.row_stop = self.row_start + array.macro_rows  # exclusive
        self.col_start = tile_col * array.macro_cols
        self.col_stop = self.col_start + array.macro_cols  # exclusive

    @property
    def rows(self) -> int:
        """Wordlines spanning this tile."""
        return self.array.macro_rows

    @property
    def columns(self) -> range:
        """Global column indices belonging to this macro."""
        return range(self.col_start, self.col_stop)

    @property
    def row_range(self) -> range:
        """Global row indices belonging to this macro."""
        return range(self.row_start, self.row_stop)

    @property
    def num_cells(self) -> int:
        """Cells in this macro tile."""
        return self.rows * self.array.macro_cols

    def _check_local(self, row: int, local_col: int) -> None:
        if not 0 <= local_col < self.array.macro_cols:
            raise ArrayConfigError(
                f"local col {local_col} out of range 0..{self.array.macro_cols - 1}"
            )
        if not 0 <= row < self.rows:
            raise ArrayConfigError(f"local row {row} out of range 0..{self.rows - 1}")

    def cell(self, row: int, local_col: int) -> DRAMCell:
        """Cell at tile-local (row, local_col)."""
        self._check_local(row, local_col)
        return self.array.cell(self.row_start + row, self.col_start + local_col)

    def cells(self) -> list[tuple[int, int, DRAMCell]]:
        """All (local_row, local_col, cell) triples of the macro."""
        return [
            (r, c, self.cell(r, c))
            for r in range(self.rows)
            for c in range(self.array.macro_cols)
        ]

    def capacitance_matrix(self) -> np.ndarray:
        """As-fabricated capacitances of the tile, (rows, macro_cols)."""
        return self.array._cap[
            self.row_start : self.row_stop, self.col_start : self.col_stop
        ].copy()

    def defect_kind_matrix(self) -> np.ndarray:
        """Defect-kind codes of the tile, (rows, macro_cols), int8.

        Codes as in :meth:`EDRAMArray.defect_kind_matrix`.
        """
        return self.array._kinds[
            self.row_start : self.row_stop, self.col_start : self.col_stop
        ].copy()

    def defect_mask(self, kind: "DefectKind") -> np.ndarray:
        """Boolean (rows, macro_cols) mask of tile cells carrying ``kind``."""
        return self.defect_kind_matrix() == KIND_CODES[kind]

    @property
    def plate_parasitic(self) -> float:
        """Stray plate-node capacitance of this macro tile, farads."""
        return self.array.tech.plate_parasitic(self.num_cells)

    @property
    def bitline_capacitance(self) -> float:
        """Parasitic capacitance of one full-height bitline, farads."""
        return self.array.tech.bitline_capacitance(self.array.rows)

    def global_address(self, row: int, local_col: int) -> CellAddress:
        """Translate a macro-local address to a global one."""
        self._check_local(row, local_col)
        return CellAddress(self.row_start + row, self.col_start + local_col)
