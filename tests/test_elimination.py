"""Intervals, stage play, balancing, the elimination loop."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bestofk
from bestofk import measures
from bestofk.elimination import (
    CHUNK_PLAYS,
    STAGE_CAP,
    _undecidable_stages,
    balance,
    balance_set_size,
    confidence_radius,
    elimination_step,
    run_identification,
    stage_play,
    stage_shape,
)
from bestofk.errors import DomainError, IdentifiabilityError, InfeasibleError
from bestofk.harness import replicate_rng
from bestofk.measures import (DRAW_ELEMENTS, CoverageMeasure, JointTableMeasure, PlantedMeasure,
                              ProductMeasure)
from bestofk.oracle import exact_query_stats
from bestofk.theory import inversion_sample_size, kappa_constants, true_variance_radius


class TestConfidenceRadius:
    def test_reference_value(self):
        # mu = 1/2 at T = 8: v_hat = 8 * 1/4 / 7 = 2/7
        c = confidence_radius(0.5, n=10, t=3, delta=0.1)
        log_term = math.log(8 * 10 * 9 / 0.1)
        assert c == pytest.approx(
            math.sqrt(2 * (2 / 7) * log_term / 8) + 8 * log_term / (3 * 7)
        )
        assert c == pytest.approx(4.18, abs=0.01)

    def test_zero_variance_symmetry(self):
        lo = confidence_radius(0.0, n=5, t=4, delta=0.1)
        hi = confidence_radius(1.0, n=5, t=4, delta=0.1)
        assert lo == hi
        log_term = math.log(8 * 5 * 16 / 0.1)
        assert lo == pytest.approx(8 * log_term / (3 * 15))

    def test_small_T_rejected(self):
        # T = 2^t < 2 exactly when t < 1, and the sample variance divides by T - 1
        with pytest.raises(DomainError, match="t >= 1"):
            confidence_radius(0.5, n=5, t=0, delta=0.1)

    @pytest.mark.parametrize("mu", [0.0, 0.5, np.array([0.0, 0.3, 1.0])],
                             ids=["zero", "half", "array"])
    def test_delta_too_small_for_the_log_term_rejected(self, mu):
        # 8 n t^2 / delta overflows to inf, which would make every radius inf or NaN
        with pytest.raises(DomainError, match=r"delta=1e-320 is too small: log\(8 n t\^2"):
            confidence_radius(mu, n=10, t=3, delta=1e-320)

    @pytest.mark.parametrize("t", [1, 2, 5, 12, 30])
    def test_array_equals_scalar_bit_for_bit(self, t):
        big_t, n, delta = 2**t, 37, 0.05
        rng = np.random.default_rng(t)
        mu = np.concatenate([rng.integers(0, big_t + 1, 300) / big_t, [0.0, 0.5, 1.0]])
        radii = confidence_radius(mu, n, t, delta)
        assert radii.shape == mu.shape
        log_term = math.log(8.0 * n * t * t / delta)
        for i, m in enumerate(mu.tolist()):
            one = confidence_radius(m, n, t, delta)
            assert type(one) is float
            assert radii[i] == one
            # the formula as written with math.sqrt gives the same float
            v = big_t * m * (1.0 - m) / (big_t - 1)
            c = math.sqrt(2.0 * v * log_term / big_t) + 8.0 * log_term / (3.0 * (big_t - 1))
            assert one == c

    @pytest.mark.parametrize("bad", [[0.2, 1.5], [-0.1, 0.5], [0.5, float("nan")]])
    def test_array_with_a_mean_outside_unit_interval_rejected(self, bad):
        with pytest.raises(DomainError):
            confidence_radius(np.array(bad), n=5, t=3, delta=0.1)


class TestInversion:
    def test_radius_below_gap_on_grid(self):
        for v in (0.0025, 0.01, 0.09, 0.25):
            for gap in (0.05, 0.1, 0.2, 0.4):
                for n in (2, 10, 100):
                    for delta in (0.01, 0.1):
                        T = inversion_sample_size(v, gap, n, delta)
                        assert T >= 4
                        assert true_variance_radius(v, T, n, delta) <= gap

    def test_domain(self):
        with pytest.raises(DomainError):
            inversion_sample_size(0.1, 0.0, 5, 0.1)


class TestBalance:
    def test_no_balancing_needed(self):
        u_prime, r_prime, balancing = balance(range(10), range(10, 20), 4,
                                              np.random.default_rng(0))
        assert balancing == ()
        assert (u_prime, r_prime) == (tuple(range(10)), tuple(range(10, 20)))

    def test_small_u_example(self):
        assert balance_set_size(3, 3) == 4
        u_prime, _, balancing = balance((0, 1, 2), range(3, 11), 3, np.random.default_rng(1))
        assert len(balancing) == 4
        assert len(u_prime) == 7
        kappa1, kappa2 = kappa_constants(len(u_prime), 3)
        assert kappa1 == pytest.approx(2 / 3) and kappa1 >= 0.5
        assert kappa2 == pytest.approx(2.0) and kappa2 <= 2.0

    def test_balanced_pools_keep_kappas_in_range(self):
        rng = np.random.default_rng(10)
        for u_size in range(2, 12):
            for k1 in range(1, min(u_size, 6) + 1):
                u_prime, _, _ = balance(range(u_size), range(u_size, u_size + 40), k1, rng)
                kappa1, kappa2 = kappa_constants(len(u_prime), k1)
                assert kappa1 >= 0.5
                assert kappa2 <= 2.0
                assert len(u_prime) <= 2.5 * u_size

    def test_u_equals_k_example(self):
        assert balance_set_size(4, 4) == 6
        u_prime, _, _ = balance(range(4), range(4, 14), 4, np.random.default_rng(2))
        assert len(u_prime) == 10
        assert len(u_prime) <= 2.5 * 4

    def test_infeasible_when_rejects_short(self):
        with pytest.raises(InfeasibleError):
            balance((0, 1, 2), (3,), 3, np.random.default_rng(3))

    def test_transfer_is_consistent(self):
        u_prime, r_prime, balancing = balance((0, 1, 2), range(3, 11), 3,
                                              np.random.default_rng(4))
        assert u_prime == tuple(sorted({0, 1, 2} | set(balancing)))
        assert r_prime == tuple(sorted(set(range(3, 11)) - set(balancing)))


class TestEliminationStep:
    def test_accept_rule(self):
        mu = np.array([0.9, 0.5, 0.4])
        c = np.array([0.05, 0.1, 0.1])
        # lower(0)=0.85 > 2nd largest upper = max(0.6, 0.5) = 0.6, and both
        # of those upper bounds fall under the largest lower bound, 0.85
        assert elimination_step((0, 1, 2), 1, mu, c) == ((), (0,), (1, 2))

    def test_overlapping_intervals_keep_everything(self):
        mu = np.array([0.6, 0.5, 0.4])
        c = np.full(3, 0.3)
        assert elimination_step((0, 1, 2), 1, mu, c) == ((0, 1, 2), (), ())

    def test_reject_completion_ends_the_game(self):
        # n=5, k=2 with arms 2 and 3 rejected: once the reject count hits n-k
        # the undecided rest is accepted
        mu = np.array([0.8, 0.7, 0.1])  # arms 0, 1, 4
        c = np.full(3, 0.05)
        assert elimination_step((0, 1, 4), 2, mu, c) == ((), (0, 1), (4,))

    def test_interval_count_mismatch(self):
        U = (0, 1, 2)
        with pytest.raises(DomainError):
            elimination_step(U, 1, np.array([0.5, 0.5]), np.array([0.1, 0.1]))
        with pytest.raises(DomainError):
            elimination_step(U, 1, np.array([0.5, 0.5, 0.5]), np.array([0.1, -0.1, 0.1]))
        with pytest.raises(DomainError):
            elimination_step(U, 1, np.array([0.5, 0.5, 0.5]), np.array([0.1, np.nan, 0.1]))

    @pytest.mark.parametrize("k_t", [0, 3, 4])
    def test_k_t_outside_its_range(self, k_t):
        # the rules need 1 <= k_t < |U|: an arm to accept and one beyond it
        with pytest.raises(DomainError):
            elimination_step((0, 1, 2), k_t, np.full(3, 0.5), np.full(3, 0.1))


@st.composite
def _stage_snapshots(draw):
    """A stage the loop can reach (|A| < k, |R| < n - k) plus intervals:
    (n, k, undecided, accepted, rejected, mu, c).

    Means and radii sit on a 1/16 grid so ties between bounds are common;
    the largest radius varies so that some stages decide every arm.
    """
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    arms = draw(st.permutations(range(n)))
    a = draw(st.integers(0, k - 1))
    r = draw(st.integers(0, n - k - 1))
    undecided = tuple(sorted(arms[a + r:]))
    size = len(undecided)
    mu = draw(st.lists(st.integers(0, 16).map(lambda j: j / 16), min_size=size, max_size=size))
    widest = draw(st.sampled_from([0, 1, 4, 16]))
    c = draw(st.lists(st.integers(0, widest).map(lambda j: j / 16), min_size=size, max_size=size))
    return n, k, undecided, set(arms[:a]), set(arms[a:a + r]), mu, c


class TestEliminationStepProperties:
    @settings(max_examples=300, deadline=None)
    @given(_stage_snapshots())
    def test_invariants(self, snapshot):
        n, k, U, accepted, rejected, mu, c = snapshot
        k_t = k - len(accepted)
        still, accepted_now, rejected_now = elimination_step(U, k_t, np.array(mu), np.array(c))
        parts = still + accepted_now + rejected_now
        assert all(type(a) is int for a in parts)
        # the step splits U, each part in the order of U
        assert sorted(parts) == list(U)
        for part in (still, accepted_now, rejected_now):
            assert list(part) == [i for i in U if i in part]
        assert len(accepted) + len(accepted_now) <= k
        assert len(rejected) + len(rejected_now) <= n - k

        upper = {i: m + r for i, m, r in zip(U, mu, c)}
        lower = {i: m - r for i, m, r in zip(U, mu, c)}
        accept_bar = sorted(upper.values(), reverse=True)[k_t]
        reject_bar = sorted(lower.values(), reverse=True)[k_t - 1]
        assert {i for i in U if lower[i] > accept_bar} == set(accepted_now)
        assert {i for i in U if upper[i] < reject_bar} == set(rejected_now)
        if len(rejected) + len(rejected_now) == n - k:
            # completion: the accept rule has taken every arm left
            assert still == () and len(accepted) + len(accepted_now) == k


# bandit configs below the balancing threshold n >= ceil(7k/2): product means,
# k, and how many of 40 replicates at base_seed 3 stall with |U| <= k
BANDIT_STALL_CONFIGS = [
    ((0.6, 0.6, 0.4, 0.4, 0.4), 2, 8),
    ((0.6, 0.6, 0.4, 0.4, 0.4, 0.4), 2, 9),
    ((0.9, 0.5, 0.2, 0.1, 0.1, 0.1), 2, 18),
    ((0.6, 0.6, 0.6, 0.4, 0.4, 0.4, 0.4, 0.4), 3, 1),
]


class TestRunIdentification:
    def test_n_equals_k_short_circuit(self):
        env = ProductMeasure(means=(0.5, 0.5))
        rec = run_identification(env, "semi", 2, 0.1, np.random.default_rng(0))
        assert rec.returned == (0, 1)
        assert rec.total_queries == 0 and rec.stages == 0

    def test_two_arm_success_rate(self):
        env = ProductMeasure(means=(0.9, 0.1))
        wins = 0
        for seed in range(200):
            rec = run_identification(env, "semi", 1, 0.1, np.random.default_rng(seed))
            wins += rec.returned == (0,)
        assert wins >= 180

    def test_budget_doubling_and_query_accounting(self):
        env = ProductMeasure(means=(0.9, 0.6, 0.2, 0.1))
        rec = run_identification(env, "semi", 2, 0.1, np.random.default_rng(1))
        sizes = [s.sample_size for s in rec.stage_log]
        # the log starts at the first stage that can decide an arm
        first = _undecidable_stages(4, 0.1) + 1
        assert rec.stage_log[0].t == first and sizes[0] == 2**first
        assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
        for s in rec.stage_log:
            # stage queries = ceil(|U'|/k1) * T with U' = U here (semi)
            k1 = min(len(s.undecided), 2)
            assert s.queries == -(-len(s.undecided) // k1) * s.sample_size
        # the undrawn stages' 2 + 4 + ... + 2**(first - 1) plays of 2 queries count too
        assert rec.total_queries == (2**first - 2) * 2 + sum(s.queries for s in rec.stage_log)

    def test_semi_efficiency_bound(self):
        env = ProductMeasure(means=(0.9, 0.6, 0.2, 0.1, 0.05))
        rec = run_identification(env, "semi", 2, 0.1, np.random.default_rng(2))
        for s in rec.stage_log:
            per_play = s.queries / s.sample_size
            assert per_play <= 2 * max(1, len(s.undecided) / 2)

    def test_bandit_identifiability_guard(self):
        env = ProductMeasure(means=(1.0, 0.5, 0.2, 0.2, 0.2, 0.2, 0.2))
        with pytest.raises(IdentifiabilityError):
            run_identification(env, "bandit", 2, 0.1, np.random.default_rng(3))

    def test_bandit_small_n_warns_and_runs(self):
        env = ProductMeasure(means=(0.9, 0.05, 0.05))
        rec = run_identification(env, "bandit", 1, 0.1, np.random.default_rng(4))
        assert rec.returned == (0,)
        assert any("balancing disabled" in w for w in rec.warnings)

    def test_bandit_small_n_stall_ends_inconclusive(self):
        # k = 2 below the balancing threshold: once arm 0 is accepted, arms 1
        # and 2 share every query, read the same max bit and cannot be split;
        # the cap of 20 stages makes a run that misses the stall fail in seconds
        env = ProductMeasure(means=(0.9, 0.5, 0.5))
        rec = run_identification(env, "bandit", 2, 0.1, np.random.default_rng(4), stage_cap=20)
        assert rec.inconclusive and rec.returned == (0,)
        assert any("balancing disabled" in w for w in rec.warnings)
        last = rec.stage_log[-1]
        assert last.t == rec.stages < 20
        assert set(last.undecided) - set(last.accepted_now) - set(last.rejected_now) == {1, 2}

    @pytest.mark.parametrize("means, k, stalled", BANDIT_STALL_CONFIGS)
    def test_bandit_stall_configs_end_inconclusive(self, means, k, stalled):
        env = ProductMeasure(means=means)
        inconclusive = 0
        for r in range(40):
            rec = run_identification(env, "bandit", k, 0.1, replicate_rng(3, r))
            assert rec == run_identification(env, "bandit", k, 0.1, replicate_rng(3, r),
                                             keep_log=False)
            if rec.inconclusive:
                inconclusive += 1
                last = rec.stage_log[-1]
                assert last.t == rec.stages < STAGE_CAP
                left = set(last.undecided) - set(last.accepted_now) - set(last.rejected_now)
                assert len(left) <= k
        assert inconclusive == stalled

    def test_bandit_balancing_kicks_in(self):
        # once the undecided pool shrinks below 5k/2 the balancing set fills it
        env = ProductMeasure(means=(0.9, 0.6, 0.3, 0.05, 0.05, 0.05, 0.05))
        rec = run_identification(env, "bandit", 2, 0.1, np.random.default_rng(0))
        assert rec.returned == (0, 1)
        balanced = [s for s in rec.stage_log if s.balancing > 0]
        assert balanced
        for s in balanced:
            k1 = min(len(s.undecided), 2)
            assert s.balancing == balance_set_size(len(s.undecided), k1)

    def test_stage_cap_inconclusive(self):
        env = ProductMeasure(means=(0.51, 0.5))
        rec = run_identification(env, "semi", 1, 0.1, np.random.default_rng(6), stage_cap=3)
        assert rec.inconclusive
        assert rec.stages == 3

    def test_stage_cap_below_one_rejected(self):
        env = ProductMeasure(means=(0.9, 0.1))
        with pytest.raises(DomainError):
            run_identification(env, "semi", 1, 0.1, np.random.default_rng(6), stage_cap=0)

    def test_marked_late_stage_topoff_engaged(self, monkeypatch):
        # once |U| drops below k, exact-k mode must pad queries with a top-off
        import bestofk.elimination as elim

        calls = []
        real = elim.stage_play

        def spy(env, u_prime, accept, r_prime, k1, k2, *args, **kwargs):
            calls.append((len(tuple(u_prime)), k1, k2))
            return real(env, u_prime, accept, r_prime, k1, k2, *args, **kwargs)

        monkeypatch.setattr(elim, "stage_play", spy)
        env = ProductMeasure(means=(0.9, 0.85, 0.5, 0.45, 0.05))
        rec = run_identification(env, "marked", 3, 0.1, np.random.default_rng(21))
        assert rec.returned == (0, 1, 2)
        assert any(k2 > 0 and k1 < 3 for _, k1, k2 in calls)
        for u_size, k1, k2 in calls:
            assert k1 == min(u_size, 3)
            assert k2 == (3 - k1 if k1 < 3 else 0)
        # without exact-k mode no stage is topped off, not even once |U| < k
        calls.clear()
        rec = run_identification(env, "marked", 3, 0.1, np.random.default_rng(21),
                                 exact_k_mode=False)
        assert any(k1 < 3 for _, k1, _ in calls)
        assert all(k2 == 0 for _, _, k2 in calls)

    def test_marked_and_bandit_runs_succeed(self):
        semi_env = ProductMeasure(means=(0.8, 0.7, 0.6, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3))
        bandit_env = ProductMeasure(means=semi_env.means + (0.3,))
        for model, env in (("marked", semi_env), ("bandit", bandit_env)):
            rec = run_identification(env, model, 3, 0.1, np.random.default_rng(7))
            assert rec.returned == (0, 1, 2), model

    def test_semi_queries_stay_below_calculated_upper_bound(self):
        from bestofk.theory import GapProfile, upper_bound_total

        means = (0.8, 0.7, 0.6) + (0.3,) * 7
        env = ProductMeasure(means=means)
        bound = upper_bound_total(GapProfile(means=means, k=3), "semi", 0.1).value
        for seed in range(20):
            rec = run_identification(env, "semi", 3, 0.1, np.random.default_rng(500 + seed))
            assert rec.returned == (0, 1, 2)
            assert rec.total_queries <= bound

    def test_bandit_efficiency_bound(self):
        # balanced stages: |U'| <= 5|U|/2 so queries per pass <= ceil(2.5|U|/k1)
        env = ProductMeasure(means=(0.9, 0.6, 0.3, 0.05, 0.05, 0.05, 0.05))
        rec = run_identification(env, "bandit", 2, 0.1, np.random.default_rng(8))
        for s in rec.stage_log:
            k1 = min(len(s.undecided), 2)
            per_play = s.queries / s.sample_size
            assert per_play <= math.ceil(2.5 * max(len(s.undecided), k1) / k1)

    def test_correct_side_property(self):
        # a top arm rejected (or bottom accepted) at most delta-often, with slack
        env = ProductMeasure(means=(0.8, 0.6, 0.35, 0.2))
        k, runs, delta = 2, 200, 0.1
        bad = 0
        for seed in range(runs):
            rec = run_identification(env, "semi", k, delta,
                                     np.random.default_rng(10_000 + seed))
            wrong = False
            for s in rec.stage_log:
                wrong |= any(arm >= k for arm in s.accepted_now)
                wrong |= any(arm < k for arm in s.rejected_now)
            bad += wrong
        assert bad / runs <= delta + 3 * math.sqrt(delta * (1 - delta) / runs)

    def test_requires_explicit_rng(self):
        env = ProductMeasure(means=(0.9, 0.1))
        with pytest.raises(TypeError):
            run_identification(env, "semi", 1, 0.1)


# the generators a run takes its undrawn stages on: PCG64 as
# ``harness.replicate_rng`` makes it, PCG64 after one 32-bit draw (its other
# half buffered) and after two (the spent half left in the state), and two
# other bit generators
GENERATORS = ("PCG64", "PCG64 buffered", "PCG64 spent", "MT19937", "SFC64")


def make_generator(kind: str, seed: int) -> np.random.Generator:
    if kind in ("MT19937", "SFC64"):
        return np.random.Generator(getattr(np.random, kind)(seed))
    rng = np.random.default_rng(seed)
    rng.integers(0, 10, size={"PCG64": 0, "PCG64 buffered": 1, "PCG64 spent": 2}[kind])
    return rng


def generator_state(rng: np.random.Generator) -> str:
    """The bit generator's whole state, comparable with == (MT19937 holds an array)."""
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


def gathering_measure(data, family: str, n: int):
    """A coverage or joint-table measure over ``n`` arms drawn by hypothesis,
    every arm's mean in (0, 1) so that bandit feedback can identify it."""
    if family == "coverage":
        sets = st.sets(st.integers(0, 2 * n - 1), min_size=1, max_size=2 * n - 1)
        return CoverageMeasure(2 * n, [data.draw(sets) for _ in range(n)])
    weights = data.draw(st.lists(st.integers(1, 9), min_size=2**n, max_size=2**n))
    return JointTableMeasure(k=n, probs=tuple(w / math.fsum(weights) for w in weights))


def spy(monkeypatch, module, name: str, rng_at: int) -> list:
    """Patch ``module.name`` to note each call's positional arguments and the
    state of its generator, the argument at ``rng_at``, before the call."""
    calls, real = [], getattr(module, name)

    def noted(*args):
        calls.append((args, generator_state(args[rng_at])))
        return real(*args)

    monkeypatch.setattr(module, name, noted)
    return calls


class TestUndrawnStages:
    """The leading stages that cannot decide an arm are taken undrawn: the
    first drawn stage draws from the generator as the run found it."""

    # union-bound counts: the arms of elimination (n = 2 to 256, 10**6) and the
    # subset arms of a baseline (C(8, 2) = 28, C(64, 3) = 41664)
    UNION_COUNTS = (2, 3, 5, 12, 28, 64, 256, 41664, 10**6)
    # worst-case estimates of 4 undecided arms: 0s and 1s, with 1/2 between
    ESTIMATES = ((1.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 1.0, 0.0),
                 (1.0, 0.5, 0.5, 0.0), (0.5, 0.5, 0.5, 0.5))

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("n_arms", UNION_COUNTS)
    def test_undecidable_stages_decide_nothing(self, n_arms, delta):
        # the skip's premise for elimination: at every stage it leaves undrawn,
        # no estimates can accept or reject an arm, and at the next stage the
        # 0/1 estimates do
        def decides(t, mu):
            mu = np.array(mu)
            c_hat = confidence_radius(mu, n_arms, t, delta)
            return any(any(elimination_step(range(4), k_t, mu, c_hat)[1:]) for k_t in (1, 2, 3))

        skipped = _undecidable_stages(n_arms, delta)
        for t in range(1, skipped + 1):
            assert not any(decides(t, mu) for mu in self.ESTIMATES), t
        assert decides(skipped + 1, self.ESTIMATES[0])

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 28, 64])
    def test_undecidable_stages_drop_no_subset(self, n, delta, monkeypatch):
        # the same premise for the baselines' drop rule: subset_arm over the n
        # singletons (k = 1, so n subset arms) draws every stage, on draws that
        # give arm a the estimate values[a] in {0, 1/2, 1}: a survivor's rows
        # come in even-length blocks from even rows, so alternating rows read 1/2
        from bestofk import baselines
        from bestofk.baselines import subset_arm_identify

        def draws(measure, rng, arms):
            value = values[arms[:, 0]]
            return np.where(value == 0.5, np.arange(len(arms)) % 2, value).astype(np.uint8)[:, None]

        monkeypatch.setattr(baselines, "_skip_undecidable_stages", lambda *args: (1, 0))
        monkeypatch.setattr(baselines, "sample_matrix", draws)
        env, skipped = ProductMeasure(means=(0.5,) * n), _undecidable_stages(n, delta)
        patterns = ([1.0] + [0.0] * (n - 1), [1.0] * (n - 1) + [0.0],
                    [(1.0, 0.5, 0.0)[a % 3] for a in range(n)])
        for values in map(np.array, patterns):
            rec = subset_arm_identify(env, 1, delta, np.random.default_rng(0), skipped + 1)
            # the stage after them still queries all n subset arms: none dropped
            assert rec.total_queries == (2 ** (skipped + 2) - 2) * n, values
        values = np.array(patterns[0])  # 1 then 0s: that stage drops every 0
        rec = subset_arm_identify(env, 1, delta, np.random.default_rng(0), skipped + 1)
        assert rec.returned == (0,) and not rec.inconclusive

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), model=st.sampled_from(["semi", "bandit", "marked"]),
           exact_k_mode=st.sampled_from([None, True, False]), stage_cap=st.integers(1, 14),
           delta=st.floats(1e-6, 0.9), seed=st.integers(0, 2**32 - 1),
           generator=st.sampled_from(GENERATORS),
           family=st.sampled_from(["product", "planted", "coverage", "joint_table"]))
    def test_every_run_draws_from_its_first_decidable_stage(self, data, model, exact_k_mode,
                                                            stage_cap, delta, seed, generator,
                                                            family):
        # 4-8 stages cannot decide here, so caps of 1-14 end inside that
        # prefix and past it; k = n draws nothing.  Traced and untraced runs
        # take the same stages undrawn and give the same record
        import bestofk.elimination as elim

        n = data.draw(st.integers(2, 8))
        k = data.draw(st.integers(1, n))
        if family == "product":
            # extreme means let the first drawn stage decide arms
            means = [0.0, 0.1, 0.5, 0.9] + ([] if model == "bandit" else [1.0])
            env = ProductMeasure(means=data.draw(st.lists(st.sampled_from(means),
                                                          min_size=n, max_size=n)))
        elif family == "planted":
            env = PlantedMeasure(n, data.draw(st.integers(2, n)),
                                 data.draw(st.sampled_from([0.1, 0.3, 0.5])),
                                 data.draw(st.sampled_from([0.5, 1.0])))
        else:
            env = gathering_measure(data, family, n)
        first = min(_undecidable_stages(n, delta), stage_cap - 1) + 1
        runs = []
        for keep_log in (True, False):
            rng = make_generator(generator, seed)
            fresh = generator_state(rng)
            with pytest.MonkeyPatch.context() as mp:
                calls = spy(mp, elim, "stage_play", -1)
                runs.append(run_identification(env, model, k, delta, rng, stage_cap,
                                               exact_k_mode, keep_log=keep_log))
            if k == n:
                assert not calls and runs[-1].stages == 0
            else:
                # stage_play(..., plays, rng): stage ``first`` plays 2**first times
                (*_, plays, _), state = calls[0]
                assert plays == 2**first and state == fresh
        traced, untraced = runs
        assert untraced == traced and untraced.stage_log == ()
        if k < n:
            assert [s.t for s in traced.stage_log] == list(range(first, traced.stages + 1))

    @staticmethod
    def _first_drawn_stages(monkeypatch, config):
        """Per replicate of ``config``, traced and untraced: (stages, the plays
        of each drawn stage)."""
        import bestofk.elimination as elim
        from bestofk import harness
        from bestofk.harness import ExperimentConfig, run_experiment

        plays, per_replicate = [], []
        stage_play_, run_identification_ = elim.stage_play, harness.run_identification

        def counted_stage(*args, **kwargs):
            plays.append(args[-2])
            return stage_play_(*args, **kwargs)

        def counted_run(*args, **kwargs):
            before = len(plays)
            rec = run_identification_(*args, **kwargs)
            per_replicate.append((rec.stages, plays[before:]))
            return rec

        monkeypatch.setattr(elim, "stage_play", counted_stage)
        monkeypatch.setattr(harness, "run_identification", counted_run)
        for trace in (False, True):
            run_experiment(ExperimentConfig.from_json(json.dumps({**config, "trace": trace})))
        return per_replicate

    def test_benchmark_config_draws_from_stage_six(self, monkeypatch):
        # the bandit-product-n12 config: the radius floor over its 12 arms is
        # 18.3, 7.3, 3.5, 1.7 and 0.87 at stages 1-5 and 0.44 at stage 6
        floors = [confidence_radius(0.0, 12, t, 0.1) for t in range(1, 7)]
        assert [round(r, 2) for r in floors] == [18.31, 7.34, 3.45, 1.71, 0.87, 0.44]
        means = (0.8, 0.7, 0.6) + (0.3,) * 9
        per_replicate = self._first_drawn_stages(monkeypatch, {
            "measure": ProductMeasure(means=means).to_dict(), "model": "bandit", "k": 3,
            "delta": 0.1, "replicates": 3, "base_seed": 1})
        assert len(per_replicate) == 6
        for stages, sizes in per_replicate:
            assert stages > 5
            assert sizes == [2**t for t in range(6, stages + 1)]

    def test_coverage_workload_draws_from_stage_seven(self, monkeypatch, workloads):
        # the marked-coverage-n64 config: the radius floor over its 64 arms is
        # 22.8, 8.8, 4.1, 2.0, 1.01 and 0.51 at stages 1-6 and 0.26 at stage 7
        floors = [confidence_radius(0.0, 64, t, 0.1) for t in range(1, 8)]
        assert [round(r, 2) for r in floors] == [22.78, 8.82, 4.09, 2.01, 1.01, 0.51, 0.26]
        config = workloads["marked-coverage-n64"].config_doc(1, replicates=3)
        per_replicate = self._first_drawn_stages(monkeypatch, config)
        assert len(per_replicate) == 6
        for stages, sizes in per_replicate:
            assert stages > 6
            assert sizes == [2**t for t in range(7, stages + 1)]

    @pytest.mark.parametrize("stage_cap", [3, 5, 6, 8, 40])
    def test_both_identifiers_draw_from_the_same_stage(self, stage_cap, monkeypatch):
        # the bandit-product-n12 config under each feedback model (elimination,
        # traced and untraced), marked elimination on the subset-planted-n8
        # instance and that config itself (subset_arm) each have 5 undecidable
        # stages; all take min(5, cap - 1) of them undrawn, as the cap stage
        # always draws.  Their first stage-t draw is 2**t plays of 4 queries
        # (12 arms, k = 3, or 8 arms, k = 2) and 2**t rows for each of the 28
        # subset arms.
        from bestofk import baselines
        from bestofk import elimination as elim
        from bestofk.baselines import subset_arm_identify

        sizes = []

        def counted(measure, rng, arms):
            sizes.append(len(arms))
            return measures.sample_matrix(measure, rng, arms)

        def eliminate(model, k, keep_log):
            return lambda env, rng: run_identification(env, model, k, 0.1, rng, stage_cap,
                                                       keep_log=keep_log)

        monkeypatch.setattr(elim, "sample_matrix", counted)
        monkeypatch.setattr(baselines, "sample_matrix", counted)
        product = ProductMeasure(means=(0.8, 0.7, 0.6) + (0.3,) * 9)
        planted = PlantedMeasure(8, 2, 0.5, 1.0)
        runs = [
            *((product, 4, eliminate(model, 3, keep_log)) for model in ("bandit", "semi", "marked")
              for keep_log in (False, True)),
            (planted, 4, eliminate("marked", 2, False)),
            (planted, 28, lambda env, rng: subset_arm_identify(env, 2, 0.1, rng, stage_cap)),
        ]
        for env, rows_per_play, identify in runs:
            sizes.clear()
            identify(env, np.random.default_rng(1))
            assert sizes and math.log2(sizes[0] // rows_per_play) == min(5, stage_cap - 1) + 1


class TestStagePlayConsistency:
    def test_topoff_infeasible(self):
        # k1 = 1 and k2 = 2, but the reject and accept pools are empty
        env = ProductMeasure(means=(0.5, 0.5, 0.5))
        with pytest.raises(InfeasibleError):
            stage_play(env, (0,), (), (), 1, 2, "bandit", 4, np.random.default_rng(5))

    @pytest.mark.parametrize("model", ["bandit", "marked", "semi"])
    def test_matches_exact_stats(self, model):
        means = (0.85, 0.6, 0.45, 0.3, 0.15)
        env = ProductMeasure(means=means)
        stats = exact_query_stats(env, range(5), k1=2, model=model)
        plays = 40_000
        y, queries = stage_play(env, range(5), (), (), 2, 0, model, plays,
                                np.random.default_rng(11))
        assert queries == plays * 3
        for i in range(5):
            mu_bar = stats[i]
            se = math.sqrt(mu_bar * (1 - mu_bar) / plays)
            assert abs(y[i] / plays - mu_bar) < 4 * se + 1e-9, (model, i)

    @pytest.mark.parametrize("model", ["bandit", "marked"])
    def test_topoff_matches_exact_stats(self, model):
        means = (0.7, 0.5, 0.3, 0.8, 0.2)
        env = ProductMeasure(means=means)
        stats = exact_query_stats(
            env, (0, 1, 2), k1=2, model=model,
            reject_pool=(3,), accept_pool=(4,), k=3,
        )
        plays = 40_000
        y, _ = stage_play(env, (0, 1, 2), (4,), (3,), 2, 1, model, plays,
                          np.random.default_rng(12))
        for i in (0, 1, 2):
            mu_bar = stats[i]
            se = math.sqrt(mu_bar * (1 - mu_bar) / plays)
            assert abs(y[i] / plays - mu_bar) < 4 * se + 1e-9, (model, i)

    # measures whose arms are dependent: the batched engine draws only the
    # queried arms, so each query must still see their joint law
    DEPENDENT = {
        "planted": PlantedMeasure(7, 3, 0.4, 0.8, planted_set=(0, 2, 4)),
        "coverage": CoverageMeasure(
            8, [{0, 1, 2}, {2, 3}, {3, 4, 5}, {5, 6}, {6, 7, 0}, {1, 4}, {7}]
        ),
    }

    @staticmethod
    def _assert_matches(stats, y, plays, arms):
        for i in arms:
            mu_bar = stats[i]
            se = math.sqrt(mu_bar * (1 - mu_bar) / plays)
            assert abs(y[i] / plays - mu_bar) < 4 * se + 1e-9, i

    @pytest.mark.parametrize("model", ["bandit", "marked", "semi"])
    @pytest.mark.parametrize("family", ["planted", "coverage"])
    def test_dependent_measure_matches_exact_stats(self, family, model):
        # |U'| = 5 and k1 = 3: one full block, then a remainder padded by one arm
        env = self.DEPENDENT[family]
        stats = exact_query_stats(env, range(5), k1=3, model=model)
        plays = 40_000
        y, queries = stage_play(env, range(5), (), (), 3, 0, model, plays,
                                np.random.default_rng(14))
        assert queries == plays * 2
        self._assert_matches(stats, y, plays, range(5))

    @pytest.mark.parametrize("model", ["bandit", "marked", "semi"])
    @pytest.mark.parametrize("family", ["planted", "coverage"])
    def test_dependent_measure_topoff_matches_exact_stats(self, family, model):
        # k = 4 and k1 = 2: the top-off is reject arm 4 plus one accepted arm
        env = self.DEPENDENT[family]
        stats = exact_query_stats(
            env, (0, 1, 2, 3), k1=2, model=model,
            reject_pool=(4,), accept_pool=(5, 6), k=4,
        )
        plays = 40_000
        y, queries = stage_play(env, (0, 1, 2, 3), (5, 6), (4,), 2, 2, model, plays,
                                np.random.default_rng(15))
        assert queries == plays * 2
        self._assert_matches(stats, y, plays, (0, 1, 2, 3))


class TestStageShape:
    """``stage_shape`` states a play's layout before any draw."""

    @pytest.mark.parametrize("model,means,k,exact_k_mode", [
        ("semi", (0.9, 0.85, 0.5, 0.45, 0.05), 3, None),
        ("bandit", (0.9, 0.6, 0.3, 0.05, 0.05, 0.05, 0.05), 2, None),
        ("marked", (0.9, 0.85, 0.5, 0.45, 0.05), 3, True),
    ])
    def test_traced_stages_agree_with_their_shape(self, model, means, k, exact_k_mode):
        # the balanced 7-arm bandit config of test_bandit_balancing_kicks_in
        # samples U + B and tops off from R - B; the marked one tops off once |U| < k
        rec = run_identification(ProductMeasure(means=means), model, k, 0.1,
                                 np.random.default_rng(21 if model == "marked" else 0),
                                 exact_k_mode=exact_k_mode)
        exact_k = exact_k_mode if exact_k_mode is not None else model != "semi"
        k2s = []
        for s in rec.stage_log:
            k1 = min(len(s.undecided), k)
            k2s.append(k - k1 if exact_k else 0)
            shape = stage_shape(len(s.undecided) + s.balancing, s.accepted,
                                s.rejected - s.balancing, k1, k2s[-1])
            assert s.queries == s.sample_size * shape.q
        if model == "bandit":
            assert any(s.balancing for s in rec.stage_log)
        if model == "marked":
            assert any(k2s)


WIDE_PRODUCT = "ProductMeasure(means=tuple(np.linspace(0.1, 0.9, 2048)))"


class TestStageMemory:
    # (u_prime, accept, r_prime, k1, k2, model): 11 arms in blocks of 4 leave a
    # remainder of 3 padded by one arm; the top-off cases join 2 arms to every
    # query, from the rejects alone or from one reject and the accepted arms
    STAGES = {
        "padded-remainder": (range(11), (), (), 4, 0, "semi"),
        "topoff-rejects": ((0, 1, 2, 3, 4), (), (9, 10, 11), 3, 2, "bandit"),
        "topoff-fill": ((0, 1, 2, 3, 4), (6, 7, 8), (5,), 3, 2, "marked"),
    }
    ENV = ProductMeasure(means=tuple(np.linspace(0.05, 0.95, 12)))

    def _stage(self, case):
        # 5000 plays: a full chunk, then a smaller one reusing its buffers
        y, queries = stage_play(self.ENV, *self.STAGES[case], 5000, np.random.default_rng(21))
        return y.tolist(), queries

    @pytest.mark.parametrize("case", sorted(STAGES))
    def test_held_buffers_carry_no_stale_state(self, case, monkeypatch):
        monkeypatch.setattr(measures, "_HELD", {})
        cold = self._stage(case)
        # a wider stage leaves larger buffers whose leading elements the next
        # stage reuses; a narrower one rewrites only those leading elements
        wide = ProductMeasure(means=tuple(np.linspace(0.1, 0.9, 300)))
        for u_prime, k1 in ((range(300), 7), (range(3), 2)):
            stage_play(wide, u_prime, (), (), k1, 0, "semi", 5000, np.random.default_rng(1))
            assert self._stage(case) == cold
        for buf in measures._HELD.values():
            buf.fill(-1)
        assert self._stage(case) == cold

    def test_held_buffers_stay_one_chunk(self, monkeypatch):
        # a chunk holds five held arrays (keys, perm, arms, the draw's uniforms
        # and gathered thresholds) of at most DRAW_ELEMENTS elements each, plus
        # the remainder block's padding; smaller stages later reuse them and add none
        monkeypatch.setattr(measures, "_HELD", {})
        n, k1 = 2048, 8
        env = ProductMeasure(means=tuple(np.linspace(0.1, 0.9, n)))
        stage_play(env, range(n), (), (), k1, 0, "semi", CHUNK_PLAYS, np.random.default_rng(1))
        held = sum(buf.nbytes for buf in measures._HELD.values())
        padding = DRAW_ELEMENTS // n * (k1 - 1)
        assert held <= 5 * 8 * (DRAW_ELEMENTS + padding), held
        for stage in [
            (range(5), (), (), 2, 0, "semi"),
            (range(3), (3, 4), range(5, 40), 3, 5, "bandit"),
            (range(10), (), (), 4, 0, "marked"),
        ]:
            stage_play(env, *stage, CHUNK_PLAYS, np.random.default_rng(2))
            assert sum(buf.nbytes for buf in measures._HELD.values()) == held

    def test_large_pool_spans_chunks(self):
        # 300 arms: 3495 plays per chunk, so 4096 plays take a full and a partial
        # chunk; every arm reads 1 and semi feedback records it once per play
        n, plays = 300, CHUNK_PLAYS
        assert DRAW_ELEMENTS // n < plays
        y, queries = stage_play(ProductMeasure(means=(1.0,) * n), range(n), (), (), 7, 0,
                                "semi", plays, np.random.default_rng(3))
        assert queries == plays * 43
        assert y.tolist() == [plays] * n

    @staticmethod
    def _peak_rss_mb(stage: str, measure: str = WIDE_PRODUCT, plays: int = 4096) -> float:
        # peak RSS of a fresh interpreter that runs one stage of ``plays`` on
        # ``measure``; ``stage`` holds stage_play's arguments from u_prime to model.
        # It reads VmHWM, the peak of the interpreter's own address space:
        # ru_maxrss keeps the peak of the address space exec replaced, which
        # after a vfork is that of this test process
        script = (
            "import numpy as np\n"
            "from bestofk.elimination import stage_play\n"
            "from bestofk.measures import PlantedMeasure, ProductMeasure\n"
            f"env = {measure}\n"
            f"stage_play(env, {stage}, {plays}, np.random.default_rng(1))\n"
            "print(*[l for l in open('/proc/self/status') if l.startswith('VmHWM:')])\n"
        )
        src = str(Path(bestofk.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        return int(done.stdout.split()[1]) / 1024  # "VmHWM: <KiB> kB"

    def test_wide_stage_peak_rss_is_bounded(self):
        # one semi stage over all 2048 arms; with 4096-play chunks it peaked at
        # 299 MB; with chunks of 2**20 elements it peaks near 80 MB
        peak_mb = self._peak_rss_mb("range(2048), (), (), 8, 0, 'semi'")
        assert peak_mb < 150, peak_mb

    def test_wide_topoff_stage_peak_rss_is_bounded(self):
        # a late bandit stage: a 4-arm pool whose queries are topped off with 4
        # of 2044 rejects; with chunks sized by the pool alone, its 4096 x 2044
        # top-off keys peaked at 163 MB; sized by the widest key row, near 52 MB
        peak_mb = self._peak_rss_mb("range(4), (), range(4, 2048), 4, 4, 'bandit'")
        assert peak_mb < 100, peak_mb

    def test_wide_planted_stage_peak_rss_is_bounded(self):
        # a 512-play semi stage with k1 = 2 on a planted n = 400, k = 200
        # measure: one draw of 102,400 rows, each with Y, 200 Zs and 2 uniforms.
        # Drawn in one generator block it peaked at 222 MB; in blocks of
        # DRAW_ELEMENTS doubles, near 48 MB
        peak_mb = self._peak_rss_mb("range(400), (), (), 2, 0, 'semi'",
                                    "PlantedMeasure(400, 200, 0.3, 0.9)", 512)
        assert peak_mb < 100, peak_mb

    @pytest.mark.parametrize("model,bound_mb", [("semi", 11), ("bandit", 4), ("marked", 9)])
    def test_warm_stage_allocations_are_bounded(self, model, bound_mb, allocation_peak):
        # the peak of fresh numpy allocations in a warm 4096-play stage over 256
        # arms: the reward bits (1 MB) and the recorder's temporaries (10 MB with
        # semi's index list); one more chunk-sized int64 array is 8 MB, and the
        # bandit recorder's slot index list took the bandit stage to 17.1 MB.  The
        # bandit recorder gathers its float64 weights into a held buffer (2.1 MB
        # peak); bincount's own float64 copy of uint8 weights took it to 10 MB
        env = ProductMeasure(means=tuple(np.linspace(0.05, 0.95, 256)))
        stage = (env, range(256), (), (), 8, 0, model, CHUNK_PLAYS)
        stage_play(*stage, np.random.default_rng(1))
        peak_mb = allocation_peak(lambda: stage_play(*stage, np.random.default_rng(2))) / 2**20
        assert peak_mb < bound_mb, peak_mb
