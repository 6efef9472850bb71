"""Batched die seeding: ``mismatch_stack`` is ``default_rng`` per seed.

A wafer chunk seeds every die's mismatch generator from one array pass
of numpy's ``SeedSequence`` pool mixing and PCG64's set-seed step
instead of one ``default_rng(seed)`` per die.  For every seed in
``[0, 2**32)`` (one entropy word: die seeds are below ``2**31`` and
FeCap's second layer adds 7919):

1. the computed ``(state, inc)`` is ``default_rng(seed)``'s;
2. each row of the stack is ``default_rng(seed).normal(0, sigma,
   shape)`` bit for bit — once ``0.0`` is added, as ``normal`` does;
3. a seed outside that range raises instead of being mixed as one word.

A numpy whose seeding changes fails here by name.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.edram.variation_map import _pcg64_states, mismatch_stack
from repro.errors import ArrayConfigError
from repro.units import fF

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds=st.lists(SEEDS, min_size=1, max_size=8))
@example(seeds=[0, 1, 2**31 - 1, 2**31 + 7918, 2**32 - 1])
@settings(max_examples=200, deadline=None)
def test_computed_states_are_default_rngs(seeds):
    computed = _pcg64_states(np.array(seeds))
    for seed, (state, inc) in zip(seeds, computed):
        expected = np.random.default_rng(seed).bit_generator.state
        assert expected["state"] == {"state": state, "inc": inc}, seed


@given(
    seeds=st.lists(SEEDS, min_size=1, max_size=6),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    sigma_fF=st.floats(min_value=0.0, max_value=6.0),
)
@example(seeds=[0, 1, 2**31 - 1, 2**31 + 7918, 2**32 - 1], shape=(16, 8),
         sigma_fF=0.8)
@example(seeds=[5, 5], shape=(3, 2), sigma_fF=0.0)
@settings(max_examples=100, deadline=None)
def test_stack_rows_are_default_rng_draws_bit_for_bit(seeds, shape, sigma_fF):
    sigma = sigma_fF * fF
    out = np.full((len(seeds), *shape), np.nan)
    assert mismatch_stack(out, sigma, np.array(seeds)) is out
    for row, seed in zip(out, seeds):
        expected = np.random.default_rng(seed).normal(0.0, sigma, shape)
        assert ((row + 0.0).view(np.uint64) == expected.view(np.uint64)).all()


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_seed_outside_one_entropy_word_raises(seed):
    out = np.zeros((2, 2, 2))
    with pytest.raises(ArrayConfigError, match=r"\[0, 2\*\*32\)"):
        mismatch_stack(out, 1 * fF, np.array([0, seed]))
    assert not out.any()


def test_negative_sigma_and_seed_count_mismatch_raise():
    with pytest.raises(ArrayConfigError, match="sigma"):
        mismatch_stack(np.zeros((1, 2, 2)), -1.0, np.array([0]))
    with pytest.raises(ArrayConfigError, match="seeds"):
        mismatch_stack(np.zeros((2, 2, 2)), 1 * fF, np.array([0]))


def test_a_numpy_that_seeds_differently_is_refused(monkeypatch):
    """The first call in a process checks one computed state against
    numpy's own; a mismatch raises naming the numpy version."""
    import repro.edram.variation_map as variation_map

    def shifted(seeds):
        return [(state + 1, inc) for state, inc in _pcg64_states(seeds)]

    variation_map._check_seeding.cache_clear()
    monkeypatch.setattr(variation_map, "_pcg64_states", shifted)
    try:
        with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__}")):
            mismatch_stack(np.zeros((1, 2, 2)), 1 * fF, np.array([0]))
    finally:
        variation_map._check_seeding.cache_clear()
