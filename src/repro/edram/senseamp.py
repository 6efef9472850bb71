"""Sense amplifier model for the behavioural (digital) read path.

A latch-type sense amplifier resolving the bitline signal against the
precharge reference.  The only analog imperfection the digital baseline
needs is the input offset: signals smaller than the offset resolve to a
data-independent value, which is exactly how marginal (low-capacitance or
drooped) cells turn into flaky digital reads.

The model is deterministic: a per-instance offset is drawn once from the
configured distribution, mimicking one physical amplifier.
"""

from __future__ import annotations

from typing import overload

import numpy as np

from repro.errors import ArrayConfigError


class SenseAmplifier:
    """Latch sense amp with a fixed random input offset.

    Parameters
    ----------
    offset_sigma:
        1σ of the input-referred offset distribution, volts.
    seed:
        Seed for the offset draw (one draw per instance).
    fail_low:
        Which way a below-offset signal resolves: ``True`` reads 0
        (typical n-latch imbalance direction), ``False`` reads 1.
        Used only when the signal magnitude is below the offset.
    """

    def __init__(self, offset_sigma: float = 3e-3, seed: int = 0, fail_low: bool = True) -> None:
        if offset_sigma < 0:
            raise ArrayConfigError(f"offset_sigma must be >= 0, got {offset_sigma}")
        self.offset_sigma = offset_sigma
        self.offset = float(np.random.default_rng(seed).normal(0.0, offset_sigma))
        self.fail_low = fail_low

    @overload
    def resolve(self, signal: float) -> bool: ...

    @overload
    def resolve(self, signal: np.ndarray) -> np.ndarray: ...

    def resolve(self, signal: float | np.ndarray) -> bool | np.ndarray:
        """Resolve a signed sense signal ΔV into a data bit.

        Signals beyond the offset magnitude resolve correctly by sign;
        weaker signals collapse to the amplifier's preferred state.  A
        plane of signals resolves to a boolean plane.
        """
        signal = np.asarray(signal)
        bits = np.where(np.abs(signal) <= abs(self.offset), not self.fail_low, signal > 0.0)
        return bits if bits.ndim else bool(bits)

    def margin(self, signal: float) -> float:
        """Sensing margin |ΔV| − |offset| in volts (negative = unreliable)."""
        return abs(signal) - abs(self.offset)
