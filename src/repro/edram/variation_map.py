"""Spatially correlated per-cell capacitance map generators.

The analog-bitmap diagnosis methodology of the paper exists to make
process signatures visible: deposition tilt across a die, edge roll-off
of the capacitor etch, particle-induced clusters, and random mismatch.
Each generator here produces one such component as a ``(rows, cols)``
numpy array in farads (or an additive delta); :func:`compose_maps` sums
components onto a base.

All generators are deterministic under a seed.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ArrayConfigError
from repro.units import fF


def _check_shape(shape: tuple[int, int]) -> tuple[int, int]:
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise ArrayConfigError(f"map shape must be at least 1x1, got {shape}")
    return rows, cols


def uniform_map(shape: tuple[int, int], value: float) -> np.ndarray:
    """Constant capacitance everywhere (the defect-free ideal)."""
    rows, cols = _check_shape(shape)
    if value <= 0:
        raise ArrayConfigError(f"uniform value must be positive, got {value}")
    return np.full((rows, cols), float(value))


def mismatch_map(shape: tuple[int, int], sigma: float, seed: int = 0) -> np.ndarray:
    """Additive white Gaussian mismatch with standard deviation ``sigma``."""
    rows, cols = _check_shape(shape)
    if sigma < 0:
        raise ArrayConfigError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, sigma, size=(rows, cols))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
#: The seed whose computed state is checked against numpy once per process.
_CHECK_SEED = 2**31 + 7918


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(seed)`` for every one-word seed.

    ``SeedSequence(seed)``'s pool mixing over the whole seed array in
    uint32 arithmetic — the hash constants evolve independently of the
    data, so they stay Python ints — then ``generate_state(4, uint64)``
    and PCG64's set-seed step (``state = 0; inc = 2·initseq + 1; step;
    state += initstate; step``) in Python ints.
    """
    u32 = np.uint32
    hash_a = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_a
        value = value ^ u32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * u32(hash_a)
        return value ^ (value >> u32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    words = seeds.astype(u32)
    pool = [hashmix(words)] + [hashmix(np.zeros_like(words)) for _ in range(_POOL_WORDS - 1)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_b, state_words = _INIT_B, []
    for i in range(2 * _POOL_WORDS):  # 4 uint64 words, little-endian halves
        value = pool[i % _POOL_WORDS] ^ u32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * u32(hash_b)
        state_words.append(value ^ (value >> u32(16)))
    halves = np.stack(state_words, axis=1).astype(np.uint64)
    u64 = halves[:, 0::2] | (halves[:, 1::2] << np.uint64(32))
    states = []
    for high, low, inc_high, inc_low in u64.tolist():
        inc = (((inc_high << 64) | inc_low) << 1 | 1) & _MASK128
        state = ((inc + ((high << 64) | low)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


@functools.cache
def _check_seeding() -> None:
    """Raise unless :func:`_pcg64_states` is numpy's own seeding; a
    passed check is kept for the life of the process."""
    (computed,) = _pcg64_states(np.array([_CHECK_SEED]))
    numpy_state = np.random.PCG64(_CHECK_SEED).state["state"]
    if computed != (numpy_state["state"], numpy_state["inc"]):
        raise RuntimeError(
            f"numpy {np.__version__} seeds PCG64 differently from the "
            "SeedSequence mixing mismatch_stack computes"
        )


def mismatch_stack(out: np.ndarray, sigma: float, seeds: np.ndarray) -> np.ndarray:
    """Fill ``out[k]`` with :func:`mismatch_map`'s draw for ``seeds[k]``.

    ``out`` is a C-contiguous ``(n, rows, cols)`` float plane and
    ``out[k]`` becomes ``np.random.default_rng(seeds[k]).normal(0.0,
    sigma, (rows, cols))`` — bit for bit, except that a zero takes the
    sign of its standard normal (``normal`` adds ``0.0``; a caller's
    next ``mean +`` erases the difference).  Returns ``out``.

    One ``default_rng`` per die would dominate a wafer chunk, so the
    stack is seeded at once: every die's PCG64 state comes from one
    array pass of ``SeedSequence``'s pool mixing (:func:`_pcg64_states`),
    one reused ``Generator`` takes each state in turn and draws the
    die's standard normals into its slice, and the whole stack is
    scaled by ``sigma`` once.  Seeds must lie in ``[0, 2**32)`` — one
    entropy word, the only case computed — and anything else raises.
    numpy documents seeding as part of its stream-compatibility policy
    (https://numpy.org/neps/nep-0019-rng-policy.html); the first call
    in a process still checks one computed state against
    ``PCG64(seed).state`` and raises ``RuntimeError`` naming the numpy
    version if they differ, so a numpy that changes its seeding can
    never silently fabricate different dies.
    """
    if sigma < 0:
        raise ArrayConfigError(f"sigma must be >= 0, got {sigma}")
    seeds = np.asarray(seeds)
    if seeds.shape != out.shape[:1]:
        raise ArrayConfigError(
            f"{seeds.shape} seeds for a stack of {out.shape[:1]} maps"
        )
    if seeds.size and (
        seeds.dtype.kind not in "iu" or seeds.min() < 0 or seeds.max() > _MASK32
    ):
        raise ArrayConfigError("mismatch seeds must be integers in [0, 2**32)")
    _check_seeding()
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    for k, (state, inc) in enumerate(_pcg64_states(seeds)):
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        generator.standard_normal(out=out[k])
    out *= sigma
    return out


def linear_tilt_map(
    shape: tuple[int, int], row_slope: float = 0.0, col_slope: float = 0.0
) -> np.ndarray:
    """Additive linear gradient: ``row_slope``/``col_slope`` farads per cell.

    Models deposition-thickness tilt across the die; the map is centred
    (zero mean) so the nominal value stays the array average.
    """
    rows, cols = _check_shape(shape)
    r = np.arange(rows) - (rows - 1) / 2.0
    c = np.arange(cols) - (cols - 1) / 2.0
    return row_slope * r[:, None] + col_slope * c[None, :]


def radial_map(shape: tuple[int, int], amplitude: float) -> np.ndarray:
    """Additive radial bowl/dome centred on the array.

    ``amplitude`` is the corner-to-centre difference in farads (positive:
    dome — centre thicker; negative: bowl).  Models radially non-uniform
    etch/deposition.
    """
    rows, cols = _check_shape(shape)
    r = (np.arange(rows) - (rows - 1) / 2.0) / max((rows - 1) / 2.0, 1.0)
    c = (np.arange(cols) - (cols - 1) / 2.0) / max((cols - 1) / 2.0, 1.0)
    rr, cc = np.meshgrid(r, c, indexing="ij")
    radius_sq = (rr**2 + cc**2) / 2.0  # 1.0 at the corners
    return amplitude * (1.0 - radius_sq)


def edge_rolloff_map(shape: tuple[int, int], depth: float, width: int = 2) -> np.ndarray:
    """Subtractive roll-off within ``width`` cells of the array edge.

    Capacitor modules commonly lose capacitance at array boundaries
    (loading effects); ``depth`` is the loss at the outermost ring,
    decaying linearly to zero ``width`` cells in.
    """
    rows, cols = _check_shape(shape)
    if depth < 0:
        raise ArrayConfigError(f"depth must be >= 0, got {depth}")
    if width < 1:
        raise ArrayConfigError(f"width must be >= 1, got {width}")
    r = np.arange(rows)
    c = np.arange(cols)
    dist_r = np.minimum(r, rows - 1 - r)
    dist_c = np.minimum(c, cols - 1 - c)
    dist = np.minimum(dist_r[:, None], dist_c[None, :])
    falloff = np.clip(1.0 - dist / width, 0.0, 1.0)
    return -depth * falloff


def cluster_defect_map(
    shape: tuple[int, int],
    center: tuple[int, int],
    radius: float,
    depth: float,
) -> np.ndarray:
    """Additive Gaussian dip of ``depth`` farads at ``center``.

    Models a particle or local process flaw degrading nearby capacitors;
    ``radius`` is the 1σ extent in cells.
    """
    rows, cols = _check_shape(shape)
    if radius <= 0:
        raise ArrayConfigError(f"radius must be positive, got {radius}")
    r0, c0 = center
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    dist_sq = (rr - r0) ** 2 + (cc - c0) ** 2
    return -depth * np.exp(-dist_sq / (2.0 * radius**2))


def compose_maps(base: np.ndarray, *deltas: np.ndarray, floor: float = 1.0 * fF) -> np.ndarray:
    """Sum additive components onto a base map, clamping at ``floor``.

    The floor keeps pathological compositions physical (a capacitor
    cannot go non-positive); real sub-floor cells should be modelled as
    defects instead.
    """
    result = np.array(base, dtype=float, copy=True)
    for delta in deltas:
        if delta.shape != base.shape:
            raise ArrayConfigError(
                f"component shape {delta.shape} does not match base {base.shape}"
            )
        result += delta
    return np.maximum(result, floor)
