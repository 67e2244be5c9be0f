"""Per-trial random streams for reproducible Monte Carlo.

Monte Carlo consumers derive one child stream per trial, ``spawn_generator(
master seed, trial index)``, so results do not depend on how trials are
grouped; the hit counts read a fixed number of uniforms from each
(:func:`fill_trial_uniforms`).
"""

from __future__ import annotations

import numpy as np


def spawn_generator(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial child stream of a master integer seed."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def fill_trial_uniforms(master_seed: int, first: int, out: np.ndarray) -> np.ndarray:
    """Fill row i of the (trials, width) float array ``out`` with the first
    ``width`` uniforms of trial ``first + i``'s child stream; returns ``out``."""
    for i, row in enumerate(out):
        spawn_generator(master_seed, first + i).random(out=row)
    return out
