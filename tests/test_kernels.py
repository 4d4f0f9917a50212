"""Query layout and the win recorder of the batched stage engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bestofk import kernels
from bestofk.elimination import stage_play
from bestofk.errors import DomainError
from bestofk.game import MODELS, observe
from bestofk.measures import ProductMeasure


def test_queries_per_play():
    assert kernels.queries_per_play(6, 3) == 2
    assert kernels.queries_per_play(7, 3) == 3
    assert kernels.queries_per_play(2, 2) == 1


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        kernels.record_plays(
            np.zeros((1, 1, 2), np.uint8),
            np.zeros((1, 2), np.int64),
            2,
            "nope",
            np.zeros(2, np.int64),
        )


def _play_arms(order, topoff, k1):
    """``play_arms`` into a buffer of -1s, so an unwritten element shows."""
    q = kernels.queries_per_play(order.shape[1], k1)
    out = np.full((len(order), q, k1 + topoff.shape[1]), -1, np.int64)
    return kernels.play_arms(order, topoff, k1, out)


def test_play_arms_layout():
    # m=5, k1=2: two full blocks, then the remainder padded by the first arm;
    # the top-off arm joins every query unrecorded
    order = np.array([[10, 11, 12, 13, 14]])
    arms = _play_arms(order, np.array([[7]]), 2)
    assert arms.tolist() == [[[10, 11, 7], [12, 13, 7], [14, 10, 7]]]
    # order position i sits at slot i % 2 of query i // 2
    assert [arms[0, i // 2, i % 2] for i in range(5)] == order[0].tolist()
    # k1 divides m and there is no top-off: the layout is the order itself
    order = np.array([[10, 11, 12, 13]])
    arms = _play_arms(order, np.zeros((1, 0), np.int64), 2)
    assert arms.tolist() == [[[10, 11], [12, 13]]]
    assert np.shares_memory(arms, order)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(0, 3), st.integers(1, 4))
def test_play_arms_follows_the_per_play_spec(data, k1, k2, plays):
    """Query j, slot s < k1 holds the pool arm at position j*k1 + s of the
    order, wrapping round to its leading arms past m; slot k1 + i holds
    top-off arm i in every query.  So order position i sits at slot i % k1
    of query i // k1, where the recorder reads it."""
    m = data.draw(st.integers(k1, 20))
    perms = [data.draw(st.permutations(range(m + k2))) for _ in range(plays)]
    order = np.array([p[:m] for p in perms], dtype=np.int64)
    topoff = np.array([p[m:] for p in perms], dtype=np.int64).reshape(plays, k2)
    arms = _play_arms(order, topoff, k1)
    q = kernels.queries_per_play(m, k1)
    assert arms.shape == (plays, q, k1 + k2)
    for p in range(plays):
        for j in range(q):
            expected = [order[p, (j * k1 + s) % m] for s in range(k1)] + topoff[p].tolist()
            assert arms[p, j].tolist() == expected
    positions = np.arange(m)
    assert (arms[:, positions // k1, positions % k1] == order).all()


# pool widths: small pools, and the widest packed pools around the 2**11 arm bound
POOL_WIDTHS = st.one_of(st.integers(1, 40), st.sampled_from([1024, 2048, 2049]))


def _pool(data, m, limits):
    """m distinct ascending arms below m or below one of ``limits`` of at least m."""
    top = data.draw(st.sampled_from(sorted({m} | {t for t in limits if t >= m})))
    seed = data.draw(st.integers(0, 2**32 - 1))
    return np.sort(np.random.default_rng(seed).choice(top, m, replace=False))


# the packed sort keeps the top 53 - s bits of each key, s the bits an arm needs
# beyond PACKED_ARM_BITS: 0 below 2**11, 1 below 2**12, 6 below 2**17
PERMUTE_WIDTHS = st.one_of(POOL_WIDTHS, st.just(4096))
PERMUTE_LIMITS = (2048, 4096, 2**17)


@settings(max_examples=60, deadline=None)
@given(st.data(), PERMUTE_WIDTHS, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_permute_pool_equals_stable_argsort(data, m, rows, seed):
    # distinct uniform keys rarely agree in their top 53 - s bits
    pool = _pool(data, m, PERMUTE_LIMITS)
    keys = np.random.default_rng(seed).random((rows, m))
    order = kernels.permute_pool(keys, pool, np.empty((rows, m), np.int64))
    assert order.tolist() == pool[np.argsort(keys, axis=1, kind="stable")].tolist()


@settings(max_examples=60, deadline=None)
@given(st.data(), PERMUTE_WIDTHS, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_permute_pool_orders_exact_ties_by_pool_position(data, m, rows, seed):
    # keys from four values on the 2**-(53 - s) grid, the least and greatest
    # among them, so rows tie exactly; tied arms keep pool order, as a stable
    # sort lists them
    pool = _pool(data, m, PERMUTE_LIMITS)
    dropped = max(0, int(pool[-1]).bit_length() - kernels.PACKED_ARM_BITS)
    step = 2.0 ** -(53 - dropped)
    values = np.array([0.0, step, 0.5, 1.0 - step])
    keys = values[np.random.default_rng(seed).integers(0, len(values), (rows, m))]
    order = kernels.permute_pool(keys, pool, np.empty((rows, m), np.int64))
    assert order.tolist() == pool[np.argsort(keys, axis=1, kind="stable")].tolist()


def test_permute_pool_orders_keys_agreeing_in_their_kept_bits_by_pool_position():
    # a pool holding arm 4095 drops one key bit: keys 0 and 2**-53 pack alike,
    # so arm 7 comes first whichever of the two it holds; 2**-52 stays apart
    pool = np.array([7, 4095])
    keys = np.array([[2.0**-53, 0.0], [2.0**-52, 0.0]])
    order = kernels.permute_pool(keys, pool, np.empty((2, 2), np.int64))
    assert order.tolist() == [[7, 4095], [4095, 7]]


def _shift_packed(keys, pool):
    """``permute_pool`` as it packs a pool holding an arm of 2**10 or above: the
    key truncated to its top 53 - s bits, then shifted past the arm bits."""
    arm_bits = int(pool[-1]).bit_length()
    dropped = max(0, arm_bits - kernels.PACKED_ARM_BITS)
    codes = (keys * 2.0 ** (53 - dropped)).astype(np.int64).view(np.uint64)
    codes = (codes << np.uint64(arm_bits)) | pool.view(np.uint64)
    codes.sort(axis=1)
    return (codes & np.uint64((1 << arm_bits) - 1)).astype(np.int64)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1023, 1024, 2047]), st.integers(1, 40), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_permute_pool_packs_by_one_multiply_as_the_shift_does(largest, m, rows, seed):
    # pools whose largest arm is 1023 pack each key with one multiply; 1024 and
    # 2047 take the shift.  Keys from the least, greatest and two middle grid
    # values tie within rows, and random keys fill the rest
    rng = np.random.default_rng(seed)
    pool = np.append(np.sort(rng.choice(largest, m - 1, replace=False)), largest)
    keys = rng.random((rows, m))
    tied = rng.random((rows, m)) < 0.5
    keys[tied] = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])[rng.integers(0, 4, tied.sum())]
    order = kernels.permute_pool(keys, pool, np.empty((rows, m), np.int64))
    assert order.tolist() == _shift_packed(keys, pool).tolist()


TOPOFF_SMALL = ProductMeasure(means=tuple(np.linspace(0.05, 0.95, 12)))
# arm i has mean linspace(0.05, 0.95, 12)[i % 12], so arms 2040-2099 spread over it
TOPOFF_WIDE = ProductMeasure(means=tuple(np.resize(np.linspace(0.05, 0.95, 12), 2100)))


@pytest.mark.parametrize("env, stage, wins, end_state", [
    # one pick from three rejects
    (TOPOFF_SMALL, ((0, 1, 2, 3, 4), (), (5, 8, 11), 3, 1, "bandit"),
     [4215, 4268, 4294, 4316, 4368], 0xd90ada503dcc240902b3d951b3b72520),
    # two picks from four rejects
    (TOPOFF_SMALL, ((0, 1, 2, 3, 4), (), (5, 6, 8, 11), 3, 2, "marked"),
     [96, 263, 414, 552, 796], 0xac3c35849acb638aefd98952a74ff258),
    # the one reject, then two fill-ins from four accepted arms
    (TOPOFF_SMALL, ((0, 1, 2), (6, 7, 8, 9), (5,), 3, 3, "marked"),
     [104, 233, 399], 0x657aa670530eb7a29e91a221874f2c70),
    # three picks from rejects 2040-2099: arms of 2**11 and above, so the
    # top-off order reads the keys' leading 52 bits
    (TOPOFF_WIDE, ((0, 1, 2, 3, 4), (), tuple(range(2040, 2100)), 3, 3, "marked"),
     [102, 261, 421, 589, 771], 0x6c9d0f8b0ac961eec593dcd18d17c448),
], ids=["one-pick", "two-picks", "reject-and-fill", "picks-past-2048"])
def test_topoff_stages_are_pinned(env, stage, wins, end_state):
    # 5000 plays: a full chunk and a partial one.  The wins depend on which
    # top-off arms join each query, the generator's end state on how many
    # doubles the stage draws
    rng = np.random.default_rng(21)
    y, queries = stage_play(env, *stage, 5000, rng)
    u_prime, k1 = stage[0], stage[3]
    assert y[list(u_prime)].tolist() == wins
    assert not np.delete(y, u_prime).any()
    assert queries == 5000 * kernels.queries_per_play(len(u_prime), k1)
    assert rng.bit_generator.state["state"]["state"] == end_state


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
    # order 0 1 2 3 in two queries of two, each topped off by arm 4
    order = np.array([[0, 1, 2, 3]])
    assert _play_arms(order, np.array([[4]]), 2).tolist() == [[[0, 1, 4], [2, 3, 4]]]
    bits = np.array([[[0, 0, 1], [1, 1, 0]]], np.uint8)
    y = kernels.record_plays(bits, order, 2, model, np.zeros(5, np.int64), np.full((1, 2), mark))
    assert {a: int(c) for a, c in enumerate(y) if c} == expected


@pytest.mark.parametrize("k1", [0, 1, 3, 4])
@pytest.mark.parametrize("model", MODELS)
def test_record_plays_rejects_a_k1_that_does_not_fit_the_bits(model, k1):
    # 5 pool arms as 3 queries of 3 slots fit k1 = 2 only: k1 = 1 makes 5
    # queries, k1 = 3 two, and k1 = 4 is wider than a query
    order = np.arange(5)[None, :]
    bits = np.ones((1, 3, 3), np.uint8)
    with pytest.raises(DomainError):
        kernels.record_plays(bits, order, k1, model, np.zeros(6, np.int64), np.zeros((1, 3)))
    y = kernels.record_plays(bits, order, 2, model, np.zeros(6, np.int64), np.zeros((1, 3)))
    assert y.any()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(0, 3), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
def test_bandit_query_of_the_whole_pool_credits_every_arm_alike(data, m, k2, plays, seed):
    """With k1 = m every play's one query holds the whole pool, so under
    bandit feedback every pool arm reads the same max bit, with or without
    top-off arms: the premise of the stall exit of ``run_identification``."""
    rejects = data.draw(st.integers(0, k2))
    accepted = k2 - rejects + data.draw(st.integers(0, 2))
    n = m + rejects + accepted
    means = data.draw(st.lists(st.floats(0.0, 0.95), min_size=n, max_size=n))
    pool, r_prime, accept = range(m), range(m, m + rejects), range(m + rejects, n)
    y, q = stage_play(ProductMeasure(means=tuple(means)), pool, accept, r_prime, m, k2,
                      "bandit", plays, np.random.default_rng(seed))
    assert q == plays
    assert len(set(y[:m].tolist())) == 1


def test_numpy_path_counts_match_play_semantics():
    # one deterministic winner: every bandit query in which it appears wins
    env = ProductMeasure(means=(0.0, 0.0, 0.0, 0.0))
    y, q = stage_play(env, range(4), (), (), 2, 0, "bandit", 500,
                      np.random.default_rng(1))
    assert q == 1000
    assert not y.any()


class FixedUniform:
    """Stands in for a generator whose next uniform is already known."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


@st.composite
def recorder_cases(draw):
    """A chunk of plays laid out by ``play_arms`` with hand-picked bits and marks."""
    model = draw(st.sampled_from(MODELS))
    k1 = draw(st.integers(1, 4))
    m = draw(st.integers(k1, 9))  # pool size; m % k1 > 0 gives a padded remainder
    k2 = draw(st.integers(0, 3))  # top-off arms
    n = m + k2 + draw(st.integers(0, 2))
    plays = draw(st.integers(1, 8))
    perms = [draw(st.permutations(range(n))) for _ in range(plays)]
    order = np.array([p[:m] for p in perms], dtype=np.int64)
    topoff = np.array([p[m : m + k2] for p in perms], dtype=np.int64).reshape(plays, k2)
    arms = _play_arms(order, topoff, k1)
    bits = draw(arrays(np.uint8, arms.shape, elements=st.integers(0, 1)))
    mark_u = draw(arrays(np.float64, arms.shape[:2],
                         elements=st.floats(0.0, 1.0, exclude_max=True)))
    return model, n, k1, order, arms, bits, mark_u


def _observed_credits(model, n, k1, order, arms, bits, mark_u):
    """Per-arm credits of a chunk as ``observe`` reports them, query by query.

    ``observe`` sees each query's slots as its arms: it orders winners by arm
    label, and the recorder picks the marked winner in slot order, so slot
    labels make the two orders the same.  A reported slot is then credited
    to its arm when the slot is recorded: a pool slot (s < k1) before the
    remainder block's padding (j * k1 + s < m).
    """
    expected = np.zeros(n, dtype=np.int64)
    plays, q, width = arms.shape
    m = order.shape[1]
    for p in range(plays):
        for j in range(q):
            obs = observe(bits[p, j], range(width), model, FixedUniform(mark_u[p, j]))
            if model == "bandit":
                shown = obs.query if obs.bit else ()
            elif model == "semi":
                shown = [s for s, b in zip(obs.query, obs.bits) if b]
            else:
                shown = () if obs.marked is None else (obs.marked,)
            for s in shown:
                if s < k1 and j * k1 + s < m:
                    expected[arms[p, j, s]] += 1
    return expected


@settings(max_examples=300, deadline=None)
@given(recorder_cases())
def test_record_plays_equals_observe_query_by_query(case):
    """The recorder credits exactly what ``observe`` reports, query by query."""
    model, n, k1, order, arms, bits, mark_u = case
    expected = _observed_credits(model, n, k1, order, arms, bits, mark_u)
    y = kernels.record_plays(bits, order, k1, model, np.zeros(n, np.int64), mark_u)
    assert y.tolist() == expected.tolist()


def _slot_major(bits):
    """A copy of (B, q, w) ``bits`` laid out as a gathering draw returns them:
    each slot's (B, q) plane contiguous, the slots B * q bytes apart."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(bits, 2, 0)), 0, 2)


@settings(max_examples=300, deadline=None)
@given(recorder_cases())
def test_record_plays_credits_slot_major_bits_as_row_major(case):
    """The recorder reads the bits' layout from their strides; both layouts
    of the same bits credit the same counts."""
    model, n, k1, order, arms, bits, mark_u = case
    slot_major = _slot_major(bits)
    plays, q, width = bits.shape
    assert width == 1 or plays * q == 1 or slot_major.strides[2] > slot_major.strides[1]
    rows = kernels.record_plays(bits, order, k1, model, np.zeros(n, np.int64), mark_u)
    slots = kernels.record_plays(slot_major, order, k1, model, np.zeros(n, np.int64), mark_u)
    assert slots.tolist() == rows.tolist()


@pytest.mark.parametrize("m,k1,k2", [
    # 260 slots a query, 200 of them pool slots; a padded remainder block
    (450, 200, 60),
    # no top-off: every slot is a pool slot (k1 = w = 300)
    (700, 300, 0),
    # one query of the whole pool and 10 top-off arms: k1 < w
    (300, 300, 10),
])
@pytest.mark.parametrize("fill", ["ones", "mixed"])
def test_record_plays_marked_wide_queries_equal_observe(m, k1, k2, fill):
    # a query of 256 or more slots can hold 256 or more winners, more than a
    # uint8 count can
    rng = np.random.default_rng(m + k2)
    plays, n = 6, m + k2 + 1
    perms = [rng.permutation(n) for _ in range(plays)]
    order = np.array([p[:m] for p in perms], dtype=np.int64)
    topoff = np.array([p[m : m + k2] for p in perms], dtype=np.int64).reshape(plays, k2)
    arms = _play_arms(order, topoff, k1)
    bits = (np.ones(arms.shape, np.uint8) if fill == "ones"
            else (rng.random(arms.shape) < 0.9).astype(np.uint8))
    mark_u = rng.random(arms.shape[:2])
    mark_u[0] = 0.0
    mark_u[1] = np.nextafter(1.0, 0.0)  # the last winner of each query
    expected = _observed_credits("marked", n, k1, order, arms, bits, mark_u)
    y = kernels.record_plays(bits, order, k1, "marked", np.zeros(n, np.int64), mark_u)
    assert y.tolist() == expected.tolist()
    assert y.any()
