"""Closed-form calculators: KL, transform, sharing terms, bounds, feasibility."""

import math
from itertools import combinations

import numpy as np
import pytest

from bestofk.errors import DomainError, IdentifiabilityError, InfeasibleError
from bestofk.oracle import (
    calT_violations,
    kl_sandwich_violations,
    w0_endpoint_violations,
    w0_table_violations,
)
from bestofk.theory import (
    GapProfile,
    bernoulli_kl,
    calT,
    dependent_lower_bound,
    feasible_range,
    h_sharing,
    independent_lower_bound,
    info_sharing,
    joint_from_w0,
    phi,
    poisson_binomial_pmf,
    psi,
    simplified_dependent_lower_bound,
    tau_terms,
    upper_bound_total,
    w0_atoms,
)


class TestBernoulliKL:
    def test_identity_zero(self):
        for x in (0.0, 0.3, 1.0):
            assert bernoulli_kl(x, x) == 0.0

    def test_reference_value(self):
        assert bernoulli_kl(0.5, 0.25) == pytest.approx(0.143841, abs=1e-6)

    def test_boundary_divergence(self):
        assert bernoulli_kl(0.5, 0.0) == math.inf
        assert bernoulli_kl(0.5, 1.0) == math.inf
        assert bernoulli_kl(0.0, 0.3) == pytest.approx(-math.log(0.7))
        assert bernoulli_kl(1.0, 0.3) == pytest.approx(-math.log(0.3))

    def test_sandwich_random_pairs(self):
        # the seed-11 cell of oracle.check_kl_sandwich
        assert kl_sandwich_violations(11, 1e-4, 1000) == []


class TestCalT:
    def test_reference_value(self):
        assert calT(100, 10, 0.1) == pytest.approx(1.02e3, rel=0.01)

    def test_monotone(self):
        assert calT(101, 10, 0.1) > calT(100, 10, 0.1)
        taus = np.linspace(0.5, 500, 50)
        vals = [calT(float(t), 7, 0.05) for t in taus]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_doubling_identity_grid(self):
        # one of oracle.check_calT's three grids
        assert [v for tau in (0.5, 2.0, 17.0, 300.0, 1e4) for n in (2, 8, 64)
                for kp in range(1, n + 1, max(1, n // 4))
                for v in calT_violations(tau, n, kp, 0.1)] == []

    def test_domain_rejection(self):
        with pytest.raises(DomainError):
            calT(1e-9, 1, 1e-6)
        with pytest.raises(DomainError):
            calT(0.0, 10, 0.1)
        with pytest.raises(DomainError):
            calT(1.0, 10, 1.5)


class TestInfoSharing:
    def test_all_zero_means(self):
        assert info_sharing([0.0, 0.0], 3, "marked") == 1.0
        assert info_sharing([0.0, 0.0], 3, "bandit") == 1.0

    def test_marked_single_arm(self):
        assert info_sharing([0.5], 2, "marked") == pytest.approx(0.75, abs=1e-15)

    def test_bandit_product(self):
        assert info_sharing([0.5, 0.5], 3, "bandit") == pytest.approx(0.25, abs=1e-15)

    def test_k_one_trivial(self):
        assert info_sharing([], 1, "marked") == 1.0
        assert info_sharing([0.9], 1, "bandit") == 1.0

    def test_marked_floor(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(1, 12))
            means = rng.uniform(0, 1, size=max(k - 1, 1))
            assert info_sharing(list(means), k, "marked") >= 1.0 / k - 1e-12

    def test_uses_largest_means(self):
        # worst case takes the k-1 largest of a longer list
        assert info_sharing([0.1, 0.9], 2, "bandit") == pytest.approx(0.1)

    def test_unit_mean_zeroes_bandit_term(self):
        assert info_sharing([1.0, 0.2], 2, "bandit") == 0.0

    def test_poisson_binomial_pmf(self):
        pmf = poisson_binomial_pmf([0.5, 0.5])
        assert np.allclose(pmf, [0.25, 0.5, 0.25])
        assert poisson_binomial_pmf([]).tolist() == [1.0]


class TestGapProfile:
    def test_gaps_and_variances(self):
        p = GapProfile(means=(0.3, 0.8, 0.5), k=1)
        assert p.means == (0.8, 0.5, 0.3)
        assert p.gaps == pytest.approx((0.3, 0.3, 0.5))
        assert p.variances[0] == pytest.approx(0.16)

    def test_nonunique_topk_rejected(self):
        with pytest.raises(DomainError):
            GapProfile(means=(0.5, 0.5, 0.1), k=1)

    @pytest.mark.parametrize("gap, unique", [(1e-13, False), (1e-11, True)])
    def test_topk_is_unique_by_the_one_tie_rule(self, gap, unique):
        # measures._unique_best ties values within 1e-12, as the optimum and
        # the run's tie warning do
        means = (0.6, 0.5 + gap, 0.5, 0.2, 0.1)
        if unique:
            assert GapProfile(means=means, k=2).gaps[1] == pytest.approx(gap, rel=1e-3)
        else:
            with pytest.raises(DomainError, match="not unique"):
                GapProfile(means=means, k=2)


class TestTauTerms:
    def test_semi_equal_variances_collapse(self):
        # mirrored means share one variance V, so the max collapses
        p = GapProfile(means=(0.7, 0.3), k=1)
        v = 0.7 * 0.3
        taus = tau_terms(p, "semi")
        for i, gap in enumerate(p.gaps):
            assert taus[i] == pytest.approx(56 / gap + 256 * v / gap**2)

    def test_semi_other_side_variance(self):
        p = GapProfile(means=(0.7, 0.6, 0.3), k=1)
        taus = tau_terms(p, "semi")
        # arm 0: max{V_0, max lower-side V} = max(0.21, 0.24) = 0.24, gap 0.1
        assert taus[0] == pytest.approx(56 / 0.1 + 256 * 0.24 / 0.01)
        assert taus[2] == pytest.approx(56 / 0.4 + 256 * 0.21 / 0.16)

    def test_marked_coefficients(self):
        p = GapProfile(means=(0.9, 0.8, 0.4, 0.2), k=2)
        taus = tau_terms(p, "marked")
        assert taus[0] == pytest.approx(56 / 0.5 + 256 * 0.9 / 0.25)
        assert taus[2] == pytest.approx(56 / 0.4 + 256 * 0.8 / 0.16)

    def test_bandit_reference_values(self):
        # independent recomputation of the bracketed expression at k=1
        p = GapProfile(means=(0.5, 0.3, 0.1), k=1)
        taus = tau_terms(p, "bandit")
        assert taus[0] == pytest.approx(66 / 0.2 + 2560 / 0.04 * (2 * 0.7 * 0.5))
        assert taus[1] == pytest.approx(66 / 0.2 + 2560 / 0.04 * (2 * 0.7 * 0.3))
        assert taus[2] == pytest.approx(66 / 0.4 + 2560 / 0.16 * (2 * 0.9 * 0.3))

    @pytest.mark.parametrize("model", ["semi", "marked", "bandit"])
    def test_positive_and_gap_monotone(self, model):
        # shrinking the boundary gap can only raise every complexity term
        wide = GapProfile(means=(0.8, 0.7, 0.6, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3), k=3)
        narrow = GapProfile(means=(0.8, 0.7, 0.45, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3), k=3)
        t_wide = tau_terms(wide, model)
        t_narrow = tau_terms(narrow, model)
        assert all(t > 0 for t in t_wide)
        assert t_narrow[2] > t_wide[2]
        assert all(b >= a for a, b in zip(t_wide[3:], t_narrow[3:]))

    def test_marked_semi_constant_factor_relation(self):
        # with every mean <= 1-c the variance keeps a factor c of the mean,
        # so the marked terms exceed the semi terms by at most 1/c
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(60):
            c = float(rng.uniform(0.05, 0.5))
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, n))
            means = np.sort(rng.uniform(0.01, 1 - c, n))[::-1]
            if means[k - 1] <= means[k]:
                continue
            prof = GapProfile(means=tuple(means), k=k)
            semi = tau_terms(prof, "semi")
            marked = tau_terms(prof, "marked")
            for i, (s, m) in enumerate(zip(semi, marked)):
                assert m <= s / c + 1e-9
                if i < k:
                    # top side: the semi variance max is capped by the mean
                    assert s <= m + 1e-9
            checked += 1
        assert checked >= 40


class TestUpperBoundTotal:
    def test_semi_single_tail(self):
        p = GapProfile(means=(0.8, 0.6, 0.4), k=2)  # n = k+1
        taus = sorted(tau_terms(p, "semi"), reverse=True)
        expect = 8 * calT(taus[0], 3, 0.1) + (4 / 2) * calT(taus[2], 3, 0.1)
        assert upper_bound_total(p, "semi", 0.1).value == pytest.approx(expect)

    def test_bandit_identifiability_error(self):
        p = GapProfile(means=(1.0, 0.5, 0.3, 0.2, 0.1, 0.1, 0.1), k=2)
        with pytest.raises(IdentifiabilityError):
            upper_bound_total(p, "bandit", 0.1)

    def test_bandit_needs_wide_n(self):
        p = GapProfile(means=(0.8, 0.5, 0.3), k=2)
        with pytest.raises(DomainError):
            upper_bound_total(p, "bandit", 0.1)

    def test_marked_fewer_than_k_form(self):
        p = GapProfile(means=(0.9, 0.7, 0.5, 0.3, 0.2), k=2)
        full = upper_bound_total(p, "marked", 0.1)
        fewer = upper_bound_total(p, "marked", 0.1, fewer_than_k_allowed=True)
        assert "fewer-than-k form" in fewer.notes
        assert fewer.value != full.value
        taus = sorted(tau_terms(p, "marked"), reverse=True)
        hm = info_sharing(p.means, 2, "marked")
        expect = 8 * max((i + 1) * calT(taus[i], 5, 0.1) for i in range(1))
        expect += (8 / (2 * hm)) * sum(calT(t, 5, 0.1) for t in taus[1:])
        assert fewer.value == pytest.approx(expect)

    def test_bandit_value_structure(self):
        p = GapProfile(means=(0.8, 0.7, 0.6) + (0.3,) * 8, k=3)
        rep = upper_bound_total(p, "bandit", 0.1)
        hb = info_sharing(p.means, 3, "bandit")
        taus = sorted(rep.terms["tau"], reverse=True)
        expect = 20 * calT(taus[0] / hb, 11, 0.1)
        expect += (5 / 3) * sum(calT(t / hb, 11, 0.1) for t in taus[3:])
        assert rep.value == pytest.approx(expect)


class TestDependentLowerBound:
    def test_marked_equals_bandit(self):
        a = dependent_lower_bound(6, 3, 0.4, 0.5, 0.05, "bandit")
        b = dependent_lower_bound(6, 3, 0.4, 0.5, 0.05, "marked")
        assert a.value == b.value

    def test_simplified_regime_convergence(self):
        for k in (2, 3, 4):
            mu = 1 - 2 ** (-1 / k)
            p = 1e-12
            full = dependent_lower_bound(8, k, mu, p, 0.05, "bandit")
            simp = simplified_dependent_lower_bound(8, k, p * mu**k, 0.05)
            assert full.value == pytest.approx(simp, rel=1e-9)

    def test_simplified_golden(self):
        assert simplified_dependent_lower_bound(5, 2, 1 / 16, 0.05) == pytest.approx(
            1.96e3, rel=0.01
        )

    def test_semi_degenerate_at_p_one(self):
        rep = dependent_lower_bound(6, 2, 0.5, 1.0, 0.05, "semi")
        assert rep.value == 0.0
        assert any("degenerate" in note for note in rep.notes)

    def test_semi_formula(self):
        rep = dependent_lower_bound(6, 2, 0.4, 0.5, 0.05, "semi")
        gap = 0.5 * 0.4**2
        expect = (2 / 3) * 0.4**4 * 0.5 * 15 * gap**-2 * math.log(10)
        assert rep.value == pytest.approx(expect)

    def test_domain(self):
        with pytest.raises(DomainError):
            dependent_lower_bound(4, 4, 0.3, 0.5, 0.05, "bandit")
        with pytest.raises(DomainError):
            dependent_lower_bound(6, 2, 0.7, 0.5, 0.05, "bandit")

    def test_wide_n_uses_log_space_binomials(self):
        import math as _math

        from bestofk.theory import _binom

        assert _binom(40, 7) == float(_math.comb(40, 7))
        assert _binom(120, 11) == pytest.approx(float(_math.comb(120, 11)), rel=1e-10)
        wide = dependent_lower_bound(120, 11, 0.4, 0.5, 0.05, "bandit")
        assert _math.isfinite(wide.value) and wide.value > 0


class TestIndependentLowerBound:
    def test_p_pull_one_reduces_to_semi(self):
        means = (0.8, 0.5, 0.3, 0.2)
        for k in (1, 2):
            a = independent_lower_bound(means, k, 1, 0.05, "bandit")
            b = independent_lower_bound(means, k, 1, 0.05, "semi")
            assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_semi_bottom_arm_formula(self):
        means = (0.8, 0.5, 0.3)
        rep = independent_lower_bound(means, 1, 1, 0.05, "semi")
        # arm 2 (0-based): (1 - mu - gap) * mu / gap^2
        assert rep.terms["tau"][2] == pytest.approx((1 - 0.3 - 0.5) * 0.3 / 0.25)

    def test_reference_value(self):
        rep = independent_lower_bound((0.9, 0.5, 0.4), 1, 1, 0.05, "bandit")
        taus = [0.1 * 0.5 / 0.16, 0.1 * 0.5 / 0.16, 0.1 * 0.4 / 0.25]
        expect = (max(taus) + sum(taus)) * math.log(10)
        assert rep.value == pytest.approx(expect)

    def test_statement_equals_proof_variant(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mu = float(rng.uniform(0.05, 0.95))
            d = float(rng.uniform(0.01, min(mu, 1 - mu) / 2))
            h = float(rng.uniform(0.05, 1.0))
            assert (1 - h + mu * h) == pytest.approx(1 - (1 - mu) * h, abs=1e-12)
            assert (1 - h + (mu - d) * h) == pytest.approx(1 - (1 - mu + d) * h, abs=1e-12)

    def test_h_sharing_shortcut_equals_bruteforce(self):
        rng = np.random.default_rng(8)
        for n in range(2, 13):
            means = tuple(float(m) for m in rng.uniform(0, 1, n))
            for p_pull in range(1, n + 1):
                for j in range(n):
                    brute = max(
                        (math.prod(1 - means[i] for i in s) for s in
                         combinations([i for i in range(n) if i != j], p_pull - 1)),
                        default=1.0,
                    )
                    assert h_sharing(means, j, p_pull) == pytest.approx(brute, rel=1e-12)

    def test_nonunique_rejected(self):
        with pytest.raises(DomainError):
            independent_lower_bound((0.5, 0.5, 0.2), 1, 1, 0.05, "semi")

    def test_marked_unsupported(self):
        with pytest.raises(DomainError):
            independent_lower_bound((0.8, 0.4), 1, 1, 0.05, "marked")


class TestFeasibility:
    def test_high_mu_range(self):
        fr = feasible_range(0.7, 4)
        assert fr.lo == 0.0
        assert fr.hi == pytest.approx(0.3**3)

    def test_low_mu_reference(self):
        fr = feasible_range(0.25, 3)
        assert fr.lo == pytest.approx(0.375, abs=1e-12)
        assert fr.hi == pytest.approx(0.4375, abs=1e-12)
        assert fr.lo <= 0.75**3 <= fr.hi

    def test_endpoints_match_phi(self):
        # the endpoint part of oracle.check_w0
        assert [v for mu in (0.1, 0.25, 0.4) for k in range(2, 7)
                for v in w0_endpoint_violations(k, mu)] == []

    def test_phi_closed_form(self):
        for mu in (0.05, 0.2, 0.45):
            rho = mu / (1 - mu)
            for k in range(2, 8):
                for p in range(k + 1):
                    closed = (1 - mu) ** k * (1 - (-rho) ** p)
                    assert phi(p, mu, k) == pytest.approx(closed, abs=1e-12)

    def test_width_identity_and_scaling(self):
        # exact width mu^(k-1); exponentially small in k since mu < 1/2
        for mu in (0.1, 0.25, 0.4, 0.49):
            for k in range(2, 9):
                fr = feasible_range(mu, k)
                assert fr.hi - fr.lo == pytest.approx(mu ** (k - 1), abs=1e-12)
                assert fr.hi - fr.lo <= 2.0 ** -(k - 1) + 1e-12

    def test_planted_point_always_feasible(self):
        for mu in (0.1, 0.25, 0.4, 0.5):
            for k in range(2, 7):
                for p in (0.25, 0.5, 1.0):
                    fr = feasible_range(mu, k)
                    w0 = (1 - mu) ** k - p * mu**k
                    assert fr.lo - 1e-12 <= w0 <= fr.hi + 1e-12

    def test_frechet_case_k2(self):
        # k=2: only the marginals constrain, so the envelope is Frechet's
        fr = feasible_range(0.4, 2)
        assert fr.lo == pytest.approx(max(0.0, 1 - 0.4 - 0.4), abs=1e-12)
        assert fr.hi == pytest.approx(min(0.6, 0.6), abs=1e-12)


class TestJointFromW0:
    def test_product_point(self):
        for mu in (0.1, 0.3, 0.45):
            for k in (2, 3, 5):
                jt = joint_from_w0(mu, k, (1 - mu) ** k)
                atoms = np.asarray(jt.probs)
                idx = np.arange(2**k)
                for atom in range(2**k):
                    weight = bin(atom).count("1")
                    expect = mu**weight * (1 - mu) ** (k - weight)
                    assert atoms[atom] == pytest.approx(expect, abs=1e-12)

    def test_round_trip_w0(self):
        jt = joint_from_w0(0.3, 4, 0.25)
        assert jt.probs[0] == pytest.approx(0.25, abs=1e-12)

    def test_marginals_and_independence_on_grid(self):
        # the 7-point part of oracle.check_w0's grid
        for mu in (0.1, 0.25, 0.4):
            for k in (2, 3, 4, 5):
                fr = feasible_range(mu, k)
                for w0 in np.linspace(fr.lo, fr.hi, 7).tolist():
                    assert w0_table_violations(k, mu, w0) == []

    def test_outside_raises_with_negative_atom(self):
        fr = feasible_range(0.25, 3)
        with pytest.raises(InfeasibleError):
            joint_from_w0(0.25, 3, fr.lo - 1e-6)
        with pytest.raises(InfeasibleError):
            joint_from_w0(0.25, 3, fr.hi + 1e-6)
        raw = w0_atoms(0.25, 3, fr.hi + 1e-6)
        assert raw.min() < -1e-7

    def test_psi_mass(self):
        assert psi(0, 0.25, 3) == pytest.approx(0.75**2)
        assert psi(2, 0.25, 3) == pytest.approx(0.25**2)
