from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from alignlab import make_distribution

# Property tests draw the same examples on every run, so a tier-1 result
# does not depend on the run; no example database is written.
settings.register_profile("alignlab", derandomize=True, database=None, deadline=None)
settings.load_profile("alignlab")

TERNARY_P = (0.2, 0.3, 0.5)
TERNARY_Q = (2.0 / 3.0, 1.0 / 9.0, 2.0 / 9.0)


@pytest.fixture
def demo_p():
    return make_distribution(TERNARY_P)


@pytest.fixture
def demo_q():
    return make_distribution(TERNARY_Q)


def interior_dirichlet(rng: np.random.Generator, K: int, floor: float = 1e-9) -> np.ndarray:
    """Flat Dirichlet draw with all coordinates above the floor."""
    while True:
        draw = rng.dirichlet(np.ones(K))
        if draw.min() >= floor:
            return draw


def random_pair(rng: np.random.Generator, K: int):
    p = make_distribution(interior_dirichlet(rng, K))
    q = make_distribution(interior_dirichlet(rng, K))
    return p, q
