"""Intervals, stage play, balancing, the elimination loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestofk.elimination import (
    ElimState,
    balance,
    balance_set_size,
    confidence_radius,
    elimination_step,
    run_identification,
    stage_play,
)
from bestofk.errors import DomainError, IdentifiabilityError, InfeasibleError
from bestofk.measures import CoverageMeasure, PlantedMeasure, ProductMeasure
from bestofk.oracle import exact_query_stats
from bestofk.theory import inversion_sample_size, kappa_constants, true_variance_radius


def _state(n, k, undecided, accepted, rejected, t=1, exact_k=False):
    return ElimState(
        n=n,
        k=k,
        undecided=tuple(undecided),
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        t=t,
        exact_k_mode=exact_k,
    )


class TestConfidenceRadius:
    def test_reference_value(self):
        # mu = 1/2 at T = 8: v_hat = 8 * 1/4 / 7 = 2/7
        c = confidence_radius(0.5, T=8, n=10, t=3, delta=0.1)
        log_term = math.log(8 * 10 * 9 / 0.1)
        assert c == pytest.approx(
            math.sqrt(2 * (2 / 7) * log_term / 8) + 8 * log_term / (3 * 7)
        )
        assert c == pytest.approx(4.18, abs=0.01)

    def test_zero_variance_symmetry(self):
        lo = confidence_radius(0.0, T=16, n=5, t=4, delta=0.1)
        hi = confidence_radius(1.0, T=16, n=5, t=4, delta=0.1)
        assert lo == hi
        log_term = math.log(8 * 5 * 16 / 0.1)
        assert lo == pytest.approx(8 * log_term / (3 * 15))

    def test_small_T_rejected(self):
        with pytest.raises(DomainError):
            confidence_radius(0.5, T=1, n=5, t=1, delta=0.1)

    @pytest.mark.parametrize("t", [1, 2, 5, 12, 30])
    def test_array_equals_scalar_bit_for_bit(self, t):
        big_t, n, delta = 2**t, 37, 0.05
        rng = np.random.default_rng(t)
        mu = np.concatenate([rng.integers(0, big_t + 1, 300) / big_t, [0.0, 0.5, 1.0]])
        radii = confidence_radius(mu, big_t, n, t, delta)
        assert radii.shape == mu.shape
        log_term = math.log(8.0 * n * t * t / delta)
        for i, m in enumerate(mu.tolist()):
            one = confidence_radius(m, big_t, n, t, delta)
            assert type(one) is float
            assert radii[i] == one
            # the formula as written with math.sqrt gives the same float
            v = big_t * m * (1.0 - m) / (big_t - 1)
            c = math.sqrt(2.0 * v * log_term / big_t) + 8.0 * log_term / (3.0 * (big_t - 1))
            assert one == c

    @pytest.mark.parametrize("bad", [[0.2, 1.5], [-0.1, 0.5], [0.5, float("nan")]])
    def test_array_with_a_mean_outside_unit_interval_rejected(self, bad):
        with pytest.raises(DomainError):
            confidence_radius(np.array(bad), T=8, n=5, t=3, delta=0.1)


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
        sets = balance(range(10), range(10, 20), 4, np.random.default_rng(0))
        assert sets.balancing == ()
        assert sets.u_prime == tuple(range(10))

    def test_small_u_example(self):
        assert balance_set_size(3, 3) == 4
        sets = balance((0, 1, 2), range(3, 11), 3, np.random.default_rng(1))
        assert len(sets.balancing) == 4
        u_size = len(sets.u_prime)
        assert u_size == 7
        kappa1, kappa2 = kappa_constants(u_size, 3)
        assert kappa1 == pytest.approx(2 / 3) and kappa1 >= 0.5
        assert kappa2 == pytest.approx(2.0) and kappa2 <= 2.0

    def test_balanced_pools_keep_kappas_in_range(self):
        rng = np.random.default_rng(10)
        for u_size in range(2, 12):
            for k1 in range(1, min(u_size, 6) + 1):
                sets = balance(range(u_size), range(u_size, u_size + 40), k1, rng)
                kappa1, kappa2 = kappa_constants(len(sets.u_prime), k1)
                assert kappa1 >= 0.5
                assert kappa2 <= 2.0
                assert len(sets.u_prime) <= 2.5 * u_size

    def test_u_equals_k_example(self):
        assert balance_set_size(4, 4) == 6
        sets = balance(range(4), range(4, 14), 4, np.random.default_rng(2))
        assert len(sets.u_prime) == 10
        assert len(sets.u_prime) <= 2.5 * 4

    def test_infeasible_when_rejects_short(self):
        with pytest.raises(InfeasibleError):
            balance((0, 1, 2), (3,), 3, np.random.default_rng(3))

    def test_transfer_is_consistent(self):
        sets = balance((0, 1, 2), range(3, 11), 3, np.random.default_rng(4))
        assert set(sets.u_prime) == set((0, 1, 2)) | set(sets.balancing)
        assert set(sets.r_prime) == set(range(3, 11)) - set(sets.balancing)


class TestEliminationStep:
    def test_accept_rule(self):
        st = _state(3, 1, (0, 1, 2), (), ())
        mu = np.array([0.9, 0.5, 0.4])
        c = np.array([0.05, 0.1, 0.1])
        # lower(0)=0.85 > 2nd largest upper = max(0.6, 0.5) = 0.6
        new, accepted, rejected = elimination_step(st, mu, c)
        assert accepted == (0,)
        assert new.accepted == (0,)
        assert new.t == 2 and new.sample_size == 4

    def test_overlapping_intervals_keep_everything(self):
        st = _state(3, 1, (0, 1, 2), (), ())
        mu = np.array([0.6, 0.5, 0.4])
        c = np.full(3, 0.3)
        new, accepted, rejected = elimination_step(st, mu, c)
        assert accepted == () and rejected == ()
        assert new.undecided == (0, 1, 2)

    def test_reject_completion_ends_the_game(self):
        # n=5, k=2: once the reject count hits n-k the undecided rest is accepted
        st = _state(5, 2, (0, 1, 4), (), (2, 3), t=3)
        mu = np.array([0.8, 0.7, 0.1])  # arms 0, 1, 4
        c = np.full(3, 0.05)
        new, accepted, rejected = elimination_step(st, mu, c)
        assert rejected == (4,)
        assert set(accepted) == {0, 1}
        assert new.undecided == ()
        assert new.rejected == (2, 3, 4)
        assert new.accepted == (0, 1)

    def test_stage_values_follow_t_and_undecided(self):
        st = _state(6, 3, (0, 1), (2,), (3, 4, 5), t=4, exact_k=True)
        assert (st.sample_size, st.k1, st.k2) == (16, 2, 1)
        assert _state(6, 3, (0, 1), (2,), (3, 4, 5), t=4).k2 == 0
        assert _state(6, 3, range(6), (), ()).k1 == 3

    def test_interval_count_mismatch(self):
        st = _state(3, 1, (0, 1, 2), (), ())
        with pytest.raises(DomainError):
            elimination_step(st, np.array([0.5, 0.5]), np.array([0.1, 0.1]))
        with pytest.raises(DomainError):
            elimination_step(st, np.array([0.5, 0.5, 0.5]), np.array([0.1, -0.1, 0.1]))


@st.composite
def _stage_snapshots(draw):
    """A state the stage loop can reach (|A| < k, |R| < n - k) plus intervals.

    Means and radii sit on a 1/16 grid so ties between bounds are common;
    the largest radius varies so that some stages decide every arm.
    """
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    arms = draw(st.permutations(range(n)))
    a = draw(st.integers(0, k - 1))
    r = draw(st.integers(0, n - k - 1))
    state = _state(n, k, sorted(arms[a + r:]), sorted(arms[:a]), sorted(arms[a:a + r]),
                   t=draw(st.integers(1, 20)), exact_k=draw(st.booleans()))
    size = len(state.undecided)
    mu = draw(st.lists(st.integers(0, 16).map(lambda j: j / 16), min_size=size, max_size=size))
    widest = draw(st.sampled_from([0, 1, 4, 16]))
    c = draw(st.lists(st.integers(0, widest).map(lambda j: j / 16), min_size=size, max_size=size))
    return state, mu, c


class TestEliminationStepProperties:
    @settings(max_examples=300, deadline=None)
    @given(_stage_snapshots())
    def test_invariants(self, snapshot):
        state, mu, c = snapshot
        U = state.undecided
        new, accepted_now, rejected_now = elimination_step(state, np.array(mu), np.array(c))
        n, k = state.n, state.k
        parts = new.undecided + new.accepted + new.rejected
        assert sorted(parts) == list(range(n))
        assert len(new.accepted) <= k and len(new.rejected) <= n - k
        assert new.t == state.t + 1

        k_t = k - len(state.accepted)
        upper = {i: m + r for i, m, r in zip(U, mu, c)}
        lower = {i: m - r for i, m, r in zip(U, mu, c)}
        accept_bar = sorted(upper.values(), reverse=True)[k_t]
        reject_bar = sorted(lower.values(), reverse=True)[k_t - 1]
        assert {i for i in U if lower[i] > accept_bar} == set(accepted_now)
        assert {i for i in U if upper[i] < reject_bar} == set(rejected_now)
        assert set(new.accepted) == set(state.accepted) | set(accepted_now)
        assert set(new.rejected) == set(state.rejected) | set(rejected_now)
        if len(new.rejected) == n - k:
            # completion: the accept rule has taken every arm left
            assert new.undecided == () and len(new.accepted) == k


class TestRunIdentification:
    def test_one_state_per_stage(self, monkeypatch):
        # the initial state plus the one elimination_step advances to, per stage
        built = []
        checks = ElimState.__post_init__

        def counted(state):
            built.append(state.t)
            checks(state)

        monkeypatch.setattr(ElimState, "__post_init__", counted)
        env = ProductMeasure(means=(0.9, 0.6, 0.2, 0.1))
        rec = run_identification(env, "semi", 2, 0.1, np.random.default_rng(1))
        assert rec.stages >= 2
        assert built == list(range(1, rec.stages + 2))

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
        assert sizes[0] == 2
        assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
        for s in rec.stage_log:
            # stage queries = ceil(|U'|/k1) * T with U' = U here (semi)
            k1 = min(s.undecided, 2)
            assert s.queries == -(-s.undecided // k1) * s.sample_size
        assert rec.total_queries == sum(s.queries for s in rec.stage_log)

    def test_semi_efficiency_bound(self):
        env = ProductMeasure(means=(0.9, 0.6, 0.2, 0.1, 0.05))
        rec = run_identification(env, "semi", 2, 0.1, np.random.default_rng(2))
        for s in rec.stage_log:
            per_play = s.queries / s.sample_size
            assert per_play <= 2 * max(1, s.undecided / 2)

    def test_bandit_identifiability_guard(self):
        env = ProductMeasure(means=(1.0, 0.5, 0.2, 0.2, 0.2, 0.2, 0.2))
        with pytest.raises(IdentifiabilityError):
            run_identification(env, "bandit", 2, 0.1, np.random.default_rng(3))

    def test_bandit_small_n_warns_and_runs(self):
        env = ProductMeasure(means=(0.9, 0.05, 0.05))
        rec = run_identification(env, "bandit", 1, 0.1, np.random.default_rng(4))
        assert rec.returned == (0,)
        assert any("balancing disabled" in w for w in rec.warnings)

    def test_bandit_balancing_kicks_in(self):
        # once the undecided pool shrinks below 5k/2 the balancing set fills it
        env = ProductMeasure(means=(0.9, 0.6, 0.3, 0.05, 0.05, 0.05, 0.05))
        rec = run_identification(env, "bandit", 2, 0.1, np.random.default_rng(0))
        assert rec.returned == (0, 1)
        balanced = [s for s in rec.stage_log if s.balancing > 0]
        assert balanced
        for s in balanced:
            k1 = min(s.undecided, 2)
            assert s.balancing == balance_set_size(s.undecided, k1)

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
            k1 = min(s.undecided, 2)
            per_play = s.queries / s.sample_size
            assert per_play <= math.ceil(2.5 * max(s.undecided, k1) / k1)

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
            mu_bar = stats.mu_bar[i]
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
            mu_bar = stats.mu_bar[i]
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
            mu_bar = stats.mu_bar[i]
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
