from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alignlab import deviation_hit_count, solve_alpha_for_kl
from alignlab.rng import SEED_BLOCK, spawn_generator, trial_uniforms

# Master seeds of one to five uint32 words; 2^64 - 1 is the top of the
# probe's point seeds (one uint64 from generate_state).
MASTER_SEEDS = (0, 2**32 + 1, 2**63 + 5, 2**64 - 1, 2**128 + 3)
WIDTHS = (1, 40, 400, 3241)


def _reference(seed: int, first: int, trials: int, width: int) -> np.ndarray:
    return np.array([spawn_generator(seed, first + i).random(width) for i in range(trials)])


def _block_seeded(seed: int, first: int, trials: int, width: int, rows: int) -> np.ndarray:
    return np.concatenate([u.copy() for u in trial_uniforms(seed, first, trials, width, rows)])


class TestTrialUniforms:
    @given(
        seed=st.sampled_from(MASTER_SEEDS),
        # trial indices of one uint32 word, across 2^32, and of two words
        first=st.sampled_from((0, 2**32 - 2)) | st.integers(2**32, 2**32 + 2**20),
        trials=st.integers(1, 6),
        width=st.sampled_from(WIDTHS),
        rows=st.integers(1, 4),
    )
    def test_rows_equal_spawn_generator(self, seed, first, trials, width, rows):
        got = _block_seeded(seed, first, trials, width, rows)
        assert np.array_equal(got, _reference(seed, first, trials, width))

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    def test_blocks_across_two_word_indices(self, seed):
        # more than one seeding block, the second one crossing 2^32
        first = 2**32 - SEED_BLOCK - 3
        trials = SEED_BLOCK + 6
        got = _block_seeded(seed, first, trials, 1, 50)
        assert np.array_equal(got, _reference(seed, first, trials, 1))

    def test_chunking_does_not_move_bytes(self):
        whole = _block_seeded(1009, 0, 30, 40, 30)
        for rows in (1, 7, 29):
            assert np.array_equal(_block_seeded(1009, 0, 30, 40, rows), whole)

    def test_index_beyond_two_words_rejected(self):
        with pytest.raises(ValueError, match="trial indices must be < 2"):
            next(trial_uniforms(0, 2**64 - 1, 2, 1, 2))


class TestNoStreamObjectPerTrial:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts of SeedSequence and PCG64 objects built through numpy.random."""
        counts = {"SeedSequence": 0, "PCG64": 0}
        for name in counts:
            real = getattr(np.random, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counting)
        return counts

    @pytest.mark.parametrize(
        "count",
        [
            lambda p, q, trials: deviation_hit_count(
                solve_alpha_for_kl(q, p, 0.11).phi, q, 1.2, 0.05, 40, trials, 7
            ),
        ],
        ids=["deviation_hit_count"],
    )
    def test_constant_per_call(self, built, demo_p, demo_q, count):
        count(demo_p, demo_q, 500)
        per_call = dict(built)
        assert per_call["SeedSequence"] <= 1 and per_call["PCG64"] <= 1, per_call
        count(demo_p, demo_q, 5)
        assert built == {name: 2 * n for name, n in per_call.items()}
