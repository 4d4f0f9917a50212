"""Exact-enumeration oracle: tables, independence, query statistics."""

import math
from itertools import combinations, permutations

import numpy as np
import pytest

from bestofk import theory
from bestofk.errors import DomainError
from bestofk.game import MODELS
from bestofk.measures import CoverageMeasure, PlantedMeasure, ProductMeasure, _marginalize
from bestofk.oracle import (
    CHECKS,
    check_occlusion,
    check_planted,
    exact_query_stats,
    exact_table,
    independence_check,
    mu_bar_order_violations,
    planted_violations,
)
from bestofk.theory import poisson_binomial_pmf


class TestExactPlantedTable:
    def test_mu_half_p_one_k_two(self):
        m = PlantedMeasure(4, 2, 0.5, 1.0)
        t = exact_table(m, m.planted_set)
        assert np.allclose(t, [0.0, 0.5, 0.5, 0.0], atol=1e-15)

    def test_p_zero_reduces_to_product(self):
        m = PlantedMeasure(n=5, k=3, mu=0.35, p=0.0, planted_set=(0, 1, 2))
        t = exact_table(m, m.planted_set)
        prod = exact_table(ProductMeasure(means=(0.35,) * 3), (0, 1, 2))
        assert np.allclose(t, prod, atol=1e-15)

    def test_all_zero_mass_example(self):
        m = PlantedMeasure(5, 3, 0.4, 0.7)
        t = exact_table(m, m.planted_set)
        assert float(t[0]) == pytest.approx(0.1712, abs=1e-12)

    def test_size_cap(self):
        m = PlantedMeasure(20, 6, 0.3, 0.5)
        with pytest.raises(DomainError, match="capped at 14"):
            exact_table(m, range(15))

    @pytest.mark.parametrize("mu", [0.1, 0.25, 0.4, 0.5])
    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
    def test_marginals_and_gap_grid(self, mu, p):
        # one (p, mu) cell of oracle.check_planted, so a failure names its cell
        assert [v for k in range(2, 7) for v in planted_violations(k, mu, p)] == []

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_permutation_invariance_inside_planted_set(self, k):
        m = PlantedMeasure(k + 2, k, 0.35, 0.6)
        base = exact_table(m, m.planted_set)
        for perm in permutations(range(k)):
            relabeled = np.empty_like(base)
            for atom in range(2**k):
                moved = 0
                for bit in range(k):
                    if (atom >> bit) & 1:
                        moved |= 1 << perm[bit]
                relabeled[moved] = base[atom]
            assert np.allclose(relabeled, base, atol=1e-12)


PLANTED_COMPONENTS = PlantedMeasure.components


class TestBrokenPlantedComponents:
    """``check_planted`` catches each broken copy of ``PlantedMeasure.components``."""

    def test_correction_added_breaks_every_gap(self, monkeypatch):
        def plus_p(measure):
            _, a, b = PLANTED_COMPONENTS(measure)
            return np.array([1.0, measure.p]), a, b

        monkeypatch.setattr(PlantedMeasure, "components", plus_p)
        violations = check_planted()
        assert [v["check"] for v in violations] == ["planted_gap"] * 60

    def test_unsigned_planted_factor_breaks_the_mass(self, monkeypatch):
        def plus_mu(measure):
            w, a, b = PLANTED_COMPONENTS(measure)
            b[1, list(measure.planted_set)] = measure.mu
            return w, a, b

        monkeypatch.setattr(PlantedMeasure, "components", plus_mu)
        with pytest.raises(DomainError, match="table mass must be 1 within 1e-12"):
            check_planted()


class TestExactTableChecks:
    """``exact_table`` rejects a family's law of the wrong size or mass."""

    @pytest.mark.parametrize("probs, message", [
        ([1 / 3] * 3, r"table size must be 2\*\*len\(arms\)"),
        ([0.2] * 4, "table mass must be 1 within 1e-12"),
    ], ids=["3-atoms", "mass-0.8"])
    def test_bad_law_rejected(self, monkeypatch, probs, message):
        monkeypatch.setattr(ProductMeasure, "exact_probs", lambda self, arms: np.array(probs))
        with pytest.raises(DomainError, match=message):
            exact_table(ProductMeasure(means=(0.2, 0.5)), (0, 1))


class TestIndependenceCheck:
    def test_product_table_factorizes(self):
        t = exact_table(ProductMeasure(means=(0.2, 0.7, 0.5)), (0, 1, 2))
        for order in (1, 2, 3):
            ok, dev = independence_check(t, order)
            assert ok and dev <= 1e-12

    def test_planted_k3_orders(self):
        m = PlantedMeasure(4, 3, 0.4, 0.8)
        t = exact_table(m, m.planted_set)
        ok2, _ = independence_check(t, 2)
        assert ok2
        ok3, dev3 = independence_check(t, 3)
        assert not ok3
        assert dev3 > 0.0

    def test_other_size_k_sets_fully_factorize(self):
        # dropping any single hidden arm restores full independence
        m = PlantedMeasure(5, 3, 0.35, 0.9)
        for s in ((0, 1, 3), (0, 2, 4), (1, 2, 3), (0, 3, 4)):
            t = exact_table(m, s)
            ok, dev = independence_check(t, 3)
            assert ok, (s, dev)

    def test_coverage_table(self):
        m = CoverageMeasure(4, [{0, 1}, {0, 1, 2}])
        t = exact_table(m, (0, 1))
        # Pr(both fire) = 1/2 but the product of marginals is 3/8
        ok, dev = independence_check(t, 2)
        assert not ok and dev == pytest.approx(0.125, abs=1e-15)


class TestExactQueryStats:
    def test_semi_recovers_means(self):
        m = ProductMeasure(means=(0.9, 0.6, 0.3, 0.1))
        stats = exact_query_stats(m, range(4), k1=2, model="semi")
        for i in range(4):
            assert stats[i] == pytest.approx(m.means[i], abs=1e-15)

    @pytest.mark.parametrize("model", MODELS)
    def test_order_preserving(self, model):
        # one model of oracle.check_mu_bar_order
        assert mu_bar_order_violations(model) == []

    def test_topoff_changes_bandit_rate(self):
        m = ProductMeasure(means=(0.5, 0.4, 0.3, 0.9, 0.1))
        base = exact_query_stats(m, (0, 1, 2), k1=2, model="bandit")
        padded = exact_query_stats(
            m, (0, 1, 2), k1=2, model="bandit",
            reject_pool=(3,), accept_pool=(4,), k=3,
        )
        # the high-mean top-off arm occludes more
        assert padded[0] > base[0]
        agreement = exact_query_stats(
            m, (0, 1, 2), k1=2, model="semi",
            reject_pool=(3,), accept_pool=(4,), k=3,
        )
        assert agreement[1] == pytest.approx(0.4, abs=1e-15)

    def test_size_cap(self):
        m = ProductMeasure(means=(0.5,) * 16)
        with pytest.raises(DomainError):
            exact_query_stats(m, range(16), k1=3, model="semi")

    def test_non_bernoulli_fixture_reverses_order(self):
        # deterministic 2/3-valued arms are outside the supported families:
        # with X1 = X2 = 2/3 a.s. and X3 ~ Bernoulli(1/2),
        # E[max(X1, X2)] = 2/3 while E[max(X1, X3)] = 1/2 + (1/2)(2/3) = 5/6,
        # so the lower-mean arm 3 wins pairings despite mu_3 = 1/2 < 2/3.
        pair_12 = 2.0 / 3.0
        pair_13 = 0.5 * 1.0 + 0.5 * (2.0 / 3.0)
        assert pair_13 == pytest.approx(5.0 / 6.0)
        assert pair_13 > pair_12


def closed_form_record_prob(means, i, others, model):
    """Pr(arm i recorded with value 1) in the query {i} + others of a product instance."""
    mu_i = means[i]
    if model == "semi":
        return mu_i
    if model == "bandit":
        return 1.0 - (1.0 - mu_i) * math.prod(1.0 - means[a] for a in others)
    # marked: arm i is named with chance 1/(1+s) when s other arms read 1
    pmf = poisson_binomial_pmf([means[a] for a in others])
    return mu_i * float(sum(pmf[s] / (1 + s) for s in range(len(pmf))))


class TestProductClosedForms:
    """The product recording laws in closed form agree with the enumerated tables."""

    @pytest.mark.parametrize("model", ["bandit", "marked", "semi"])
    @pytest.mark.parametrize("pool", [3, 4, 5, 6])
    def test_mu_bar_matches_exact_query_stats(self, pool, model):
        means = tuple(np.random.default_rng(pool).uniform(0.0, 1.0, size=pool))
        for k1 in range(1, pool + 1):
            stats = exact_query_stats(ProductMeasure(means=means), range(pool), k1, model)
            for i in range(pool):
                rests = list(combinations([a for a in range(pool) if a != i], k1 - 1))
                closed = sum(closed_form_record_prob(means, i, r, model) for r in rests)
                assert abs(stats[i] - closed / len(rests)) <= 1e-12, (k1, i)


class TestAllZeroProb:
    def test_product(self):
        m = ProductMeasure(means=(0.2, 0.5))
        assert exact_table(m, (0, 1))[0] == pytest.approx(0.4, abs=1e-15)

    def test_planted_matches_closed_form(self):
        m = PlantedMeasure(6, 3, 0.3, 0.5)
        assert exact_table(m, m.planted_set)[0] == pytest.approx(
            0.7**3 - 0.5 * 0.3**3, abs=1e-14
        )


class TestParityConditionalFixtures:
    """Conditional laws of the coupled arm given the others' parity.

    At mu = 1/2 the latent Zs equal the observed bits, so conditioning the
    exact table on the parity of the non-leading planted arms must give
    mu(1-p) (even parity) and mu(1+p) (odd parity); the quadratic KL bounds
    then cap the divergences these laws induce.
    """

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_conditional_means(self, p):
        mu = 0.5
        m = PlantedMeasure(n=4, k=3, mu=mu, p=p, planted_set=(0, 1, 2))
        probs = exact_table(m, m.planted_set)
        idx = np.arange(len(probs))
        lead = (idx >> 0) & 1
        parity_rest = (((idx >> 1) & 1) + ((idx >> 2) & 1)) % 2
        # the coupling flag is the complement of the rest-parity: even parity
        # of the others is exactly the boosted branch
        for parity, expect in ((0, mu * (1 + p)), (1, mu * (1 - p))):
            mask = parity_rest == parity
            cond = probs[mask & (lead == 1)].sum() / probs[mask].sum()
            assert cond == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.2, 0.35, 0.5])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_kl_bound_claims(self, mu, p):
        from bestofk.theory import bernoulli_kl

        if mu * (1 + p) >= 1:
            pytest.skip("degenerate shifted mean")
        kl0 = bernoulli_kl(mu, mu * (1 - p))
        kl1 = bernoulli_kl(mu, mu * (1 + p))
        assert kl0 <= p**2 * mu / 2 / ((1 - p) * (1 - mu * (1 - p))) + 1e-12
        assert kl1 <= p**2 * mu / 2 / (1 - mu * (1 + p)) + 1e-12


class TestMarginalHelper:
    def test_marginal_consistency(self):
        m = PlantedMeasure(5, 3, 0.25, 1.0)
        sub = _marginalize(exact_table(m, m.planted_set + (3,)), (0, 3))
        assert float(_marginalize(sub, (0,))[1]) == pytest.approx(0.25, abs=1e-14)
        assert float(np.sum(sub)) == pytest.approx(1.0, abs=1e-14)


INFO_SHARING, KAPPA_CONSTANTS = theory.info_sharing, theory.kappa_constants


@pytest.mark.parametrize("name,broken", [
    # H over the k1 - 2 largest means instead of k1 - 1
    ("info_sharing", lambda means, k, model: INFO_SHARING(means, max(1, k - 1), model)),
    # kappa1 as if a query held one arm fewer
    ("kappa_constants", lambda m, k1: (1.0 - (k1 - 2) / (m - 1), KAPPA_CONSTANTS(m, k1)[1])),
])
def test_occlusion_check_catches_a_broken_constant(monkeypatch, name, broken):
    monkeypatch.setattr(theory, name, broken)
    assert check_occlusion() != []


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_check_clean(check):
    assert check() == []
