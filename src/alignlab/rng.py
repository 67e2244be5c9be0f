"""Seeded random streams for reproducible Monte Carlo.

:func:`spawn_generator` is the package's one recipe for a seeded stream:
random-alphabet and closeness-bound take one per random instance, and
ldp-probe one per probe point, whose trials draw their types from it in order.
"""

from __future__ import annotations

import numpy as np


def spawn_generator(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic child stream ``index`` of a master integer seed."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))
