"""Feedback channels and query validation."""

import numpy as np
import pytest

from bestofk.errors import DomainError
from bestofk.game import observe


class TestObserve:
    def test_bandit_miss(self):
        x = np.array([1, 0, 0], dtype=np.uint8)
        assert observe(x, (1, 2), "bandit", np.random.default_rng(0)).bit == 0

    def test_semi_bits(self):
        x = np.array([1, 0, 1], dtype=np.uint8)
        obs = observe(x, (0, 2), "semi", np.random.default_rng(0))
        assert obs.bits == (1, 1)
        assert obs.query == (0, 2)

    def test_marked_empty(self):
        x = np.zeros(3, dtype=np.uint8)
        assert observe(x, (0, 1, 2), "marked", np.random.default_rng(0)).marked is None

    def test_marked_uniform_over_winners(self):
        x = np.array([1, 0, 1], dtype=np.uint8)
        rng = np.random.default_rng(1)
        counts = {0: 0, 2: 0}
        trials = 100_000
        for _ in range(trials):
            counts[observe(x, (0, 1, 2), "marked", rng).marked] += 1
        for arm in counts:
            assert abs(counts[arm] / trials - 0.5) < 0.01

    def test_bad_query(self):
        x = np.zeros(3, dtype=np.uint8)
        with pytest.raises(DomainError):
            observe(x, (), "bandit", np.random.default_rng(0))
        with pytest.raises(DomainError):
            observe(x, (0, 3), "bandit", np.random.default_rng(0))

    def test_degradation_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            x = (rng.random(n) < 0.5).astype(np.uint8)
            size = int(rng.integers(1, n + 1))
            q = tuple(sorted(rng.choice(n, size=size, replace=False)))
            bandit = observe(x, q, "bandit", rng)
            semi = observe(x, q, "semi", rng)
            marked = observe(x, q, "marked", rng)
            assert bandit.bit == max(semi.bits)
            assert (marked.marked is None) == (bandit.bit == 0)
            if marked.marked is not None:
                assert marked.marked in q
                assert x[marked.marked] == 1

    def test_marking_exchangeable(self):
        # three winners: each marked about a third of the time
        x = np.array([1, 1, 1, 0], dtype=np.uint8)
        rng = np.random.default_rng(3)
        counts = np.zeros(4)
        trials = 90_000
        for _ in range(trials):
            counts[observe(x, (0, 1, 2, 3), "marked", rng).marked] += 1
        assert counts[3] == 0
        for arm in range(3):
            assert abs(counts[arm] / trials - 1 / 3) < 0.01

