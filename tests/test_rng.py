from __future__ import annotations

import numpy as np
import pytest

from alignlab import deviation_hit_count, solve_alpha_for_kl
from alignlab.rng import spawn_generator


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
            lambda p, q, trials, rng: deviation_hit_count(
                solve_alpha_for_kl(q, p, [0.11])[0].phi, q, 1.2, 0.05, 40, trials, rng
            ),
        ],
        ids=["deviation_hit_count"],
    )
    def test_constant_per_call(self, built, demo_p, demo_q, count):
        # the caller's stream is the only one: a call builds none
        rng = spawn_generator(7, 0)
        before = dict(built)
        count(demo_p, demo_q, 500, rng)
        count(demo_p, demo_q, 5, rng)
        assert built == before, built
