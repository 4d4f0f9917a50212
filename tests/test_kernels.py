"""Query layout and the win recorder of the batched stage engine."""

import numpy as np
import pytest

from bestofk import kernels
from bestofk.elimination import stage_play
from bestofk.measures import ProductMeasure


def test_queries_per_play():
    assert kernels.queries_per_play(6, 3) == 2
    assert kernels.queries_per_play(7, 3) == 3
    assert kernels.queries_per_play(2, 2) == 1


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        kernels.record_plays(
            np.zeros((1, 1, 2), np.uint8),
            np.zeros((1, 1, 2), np.int64),
            np.ones((1, 2), bool),
            "nope",
            np.zeros((1, 1)),
            np.zeros(2, np.int64),
        )


def test_play_arms_layout():
    # m=5, k1=2: two full blocks, then the remainder padded by the first arm;
    # the top-off arm joins every query unrecorded
    order = np.array([[10, 11, 12, 13, 14]])
    arms, recorded = kernels.play_arms(order, np.array([[7]]), 2)
    assert arms.tolist() == [[[10, 11, 7], [12, 13, 7], [14, 10, 7]]]
    assert recorded.tolist() == [[True, True, False], [True, True, False],
                                 [True, False, False]]
    arms, recorded = kernels.play_arms(order[:, :4], np.zeros((1, 0), np.int64), 2)
    assert arms.tolist() == [[[10, 11], [12, 13]]]
    assert recorded.all()


@pytest.mark.parametrize(
    "model,mark,expected",
    [
        # both queries win; bandit credits every recorded arm of a winner
        ("bandit", 0.0, {0: 1, 1: 1, 2: 1, 3: 1}),
        ("semi", 0.0, {2: 1, 3: 1}),
        # marked: query 0's only winner is its unrecorded top-off arm; in
        # query 1 the uniform picks the first or the last of two winners
        ("marked", 0.0, {2: 1}),
        ("marked", 0.99, {3: 1}),
    ],
)
def test_record_plays_credits_recorded_slots(model, mark, expected):
    arms = np.array([[[0, 1, 4], [2, 3, 4]]])
    bits = np.array([[[0, 0, 1], [1, 1, 0]]], np.uint8)
    recorded = np.array([[True, True, False], [True, True, False]])
    y = kernels.record_plays(bits, arms, recorded, model, np.full((1, 2), mark),
                             np.zeros(5, np.int64))
    assert {a: int(c) for a, c in enumerate(y) if c} == expected


def test_numpy_path_counts_match_play_semantics():
    # one deterministic winner: every bandit query in which it appears wins
    env = ProductMeasure(means=(0.0, 0.0, 0.0, 0.0))
    y, q = stage_play(env, range(4), (), (), 2, 0, "bandit", 500,
                      np.random.default_rng(1))
    assert q == 1000
    assert not y.any()
