"""March functional tests — the digital bitmapping baseline.

A march test is a sequence of *march elements*; each element visits
every cell in a fixed address order and applies a short op string
(read-expect / write).  The classics implemented here:

- **MATS++**: ``{⇕(w0); ⇑(r0,w1); ⇓(r1,w0,r0)}`` — detects stuck-at and
  address faults.
- **March C−**: ``{⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0);
  ⇕(r0)}`` — adds coupling-fault coverage (catches storage bridges).
- **Retention test**: write a band, pause beyond the refresh interval,
  read back — catches leaky cells that march elements are too fast for.

Each run yields a :class:`~repro.bitmap.digital.DigitalBitmap` marking
every cell that miscompared at least once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.bitmap.digital import DigitalBitmap
from repro.edram.operations import ArrayOperations
from repro.errors import DiagnosisError


class Order(enum.Enum):
    """Address order of one march element."""

    ASCENDING = "up"
    DESCENDING = "down"
    ANY = "any"  # conventionally run ascending


@dataclass(frozen=True)
class Op:
    """One operation of a march element.

    ``read`` selects read-and-compare (expected value = ``value``) vs
    write (``value`` written).
    """

    read: bool
    value: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{'r' if self.read else 'w'}{int(self.value)}"


def _parse_ops(spec: str) -> tuple[Op, ...]:
    """Parse ``"r0,w1"``-style op strings."""
    ops = []
    for token in spec.split(","):
        token = token.strip()
        if len(token) != 2 or token[0] not in "rw" or token[1] not in "01":
            raise DiagnosisError(f"bad march op {token!r} (expected e.g. 'r0' or 'w1')")
        ops.append(Op(read=token[0] == "r", value=token[1] == "1"))
    return tuple(ops)


@dataclass(frozen=True)
class MarchElement:
    """One march element: an order plus an op string."""

    order: Order
    ops: tuple[Op, ...]

    @classmethod
    def parse(cls, order: Order, spec: str) -> "MarchElement":
        """Build from an op string like ``"r0,w1"``."""
        return cls(order=order, ops=_parse_ops(spec))


class MarchTest:
    """A named sequence of march elements, runnable against an array."""

    def __init__(self, name: str, elements: list[MarchElement]) -> None:
        if not elements:
            raise DiagnosisError("march test needs at least one element")
        self.name = name
        self.elements = elements

    @property
    def op_count_per_cell(self) -> int:
        """Total operations applied to each cell (complexity metric)."""
        return sum(len(e.ops) for e in self.elements)

    def run(self, ops: ArrayOperations) -> DigitalBitmap:
        """Execute against an array; returns the fail bitmap.

        Each element is one :meth:`ArrayOperations.sweep`: every op runs
        as one pass over the array.
        """
        fails = np.zeros((ops.array.rows, ops.array.cols), dtype=bool)
        for element in self.elements:
            reads = iter(
                ops.sweep(
                    [None if op.read else op.value for op in element.ops],
                    descending=element.order is Order.DESCENDING,
                )
            )
            for op in element.ops:
                if op.read:
                    fails |= next(reads) != op.value
        return DigitalBitmap(fails, source=self.name)


# ---------------------------------------------------------------------------
# Standard algorithms
# ---------------------------------------------------------------------------


def mats_pp() -> MarchTest:
    """MATS++: {⇕(w0); ⇑(r0,w1); ⇓(r1,w0,r0)}."""
    return MarchTest(
        "MATS++",
        [
            MarchElement.parse(Order.ANY, "w0"),
            MarchElement.parse(Order.ASCENDING, "r0,w1"),
            MarchElement.parse(Order.DESCENDING, "r1,w0,r0"),
        ],
    )


def march_c_minus() -> MarchTest:
    """March C−: {⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}."""
    return MarchTest(
        "March C-",
        [
            MarchElement.parse(Order.ANY, "w0"),
            MarchElement.parse(Order.ASCENDING, "r0,w1"),
            MarchElement.parse(Order.ASCENDING, "r1,w0"),
            MarchElement.parse(Order.DESCENDING, "r0,w1"),
            MarchElement.parse(Order.DESCENDING, "r1,w0"),
            MarchElement.parse(Order.ANY, "r0"),
        ],
    )


def mats() -> MarchTest:
    """MATS: {⇕(w0); ⇕(r0,w1); ⇕(r1)} — minimal stuck-at coverage."""
    return MarchTest(
        "MATS",
        [
            MarchElement.parse(Order.ANY, "w0"),
            MarchElement.parse(Order.ANY, "r0,w1"),
            MarchElement.parse(Order.ANY, "r1"),
        ],
    )


def march_b() -> MarchTest:
    """March B: {⇕(w0); ⇑(r0,w1,r1,w0,r0,w1); ⇑(r1,w0,w1);
    ⇓(r1,w0,w1,w0); ⇓(r0,w1,w0)} — adds linked coupling-fault coverage.
    """
    return MarchTest(
        "March B",
        [
            MarchElement.parse(Order.ANY, "w0"),
            MarchElement.parse(Order.ASCENDING, "r0,w1,r1,w0,r0,w1"),
            MarchElement.parse(Order.ASCENDING, "r1,w0,w1"),
            MarchElement.parse(Order.DESCENDING, "r1,w0,w1,w0"),
            MarchElement.parse(Order.DESCENDING, "r0,w1,w0"),
        ],
    )


def march_catalog() -> dict[str, MarchTest]:
    """Every bundled march algorithm, keyed by name.

    Ordered by op count — the classical test-time vs coverage ladder.
    """
    tests = [mats(), mats_pp(), march_c_minus(), march_b()]
    return {t.name: t for t in sorted(tests, key=lambda t: t.op_count_per_cell)}


def retention_test(ops: ArrayOperations, pause: float, value: bool = True) -> DigitalBitmap:
    """Write-pause-read retention screen.

    Writes ``value`` everywhere, idles ``pause`` seconds (no refresh),
    then reads back.  Cells that drooped below the sense margin fail.
    """
    if pause < 0:
        raise DiagnosisError(f"pause must be >= 0, got {pause}")
    ops.write_solid(value)
    ops.pause(pause)
    fails = ops.read_all() != value
    return DigitalBitmap(fails, source=f"retention({pause * 1e3:.0f} ms)")
