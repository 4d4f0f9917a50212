"""Subset-as-arm eliminator, the parity detector, and the calling convention
all three identifiers share."""

import inspect
import math

import numpy as np
import pytest

from bestofk import baselines
from bestofk.baselines import SUBSET_CAP, parity_identify, subset_arm_identify
from bestofk.elimination import STAGE_CAP, run_identification
from bestofk.errors import DomainError, SubsetCapError
from bestofk.harness import ExperimentConfig
from bestofk.measures import PlantedMeasure, ProductMeasure, sample_matrix


class TestSubsetArm:
    def test_single_subset_trivial(self):
        env = ProductMeasure(means=(0.4, 0.6))
        rec = subset_arm_identify(env, 2, 0.1, np.random.default_rng(0))
        assert rec.returned == (0, 1)
        assert rec.total_queries == 0

    def test_cap(self):
        env = ProductMeasure(means=(0.5,) * 30)
        assert math.comb(30, 15) > SUBSET_CAP
        with pytest.raises(SubsetCapError):
            subset_arm_identify(env, 15, 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("identify", [subset_arm_identify, parity_identify])
    def test_stage_cap_below_one_rejected(self, identify):
        env = PlantedMeasure(4, 2, 0.5, 1.0)
        with pytest.raises(DomainError):
            identify(env, 2, 0.1, np.random.default_rng(0), stage_cap=0)

    def test_every_draw_is_bounded(self, monkeypatch):
        # the top three arms tie, so all 8 stages run; past the row bound a
        # survivor's rows split over several draws, and a product measure
        # draws its rows in order, so the record cannot change
        env = ProductMeasure(means=(0.5, 0.5, 0.5, 0.3))
        whole = subset_arm_identify(env, 2, 0.1, np.random.default_rng(7), stage_cap=8)
        rows = []

        def counted(measure, rng, size, arms=None):
            rows.append(len(arms))
            return sample_matrix(measure, rng, size, arms=arms)

        monkeypatch.setattr(baselines, "DRAW_ROWS", 16)
        monkeypatch.setattr(baselines, "sample_matrix", counted)
        split = subset_arm_identify(env, 2, 0.1, np.random.default_rng(7), stage_cap=8)
        assert whole.inconclusive and whole.stages == 8
        assert max(rows) == 16 and sum(rows) == whole.total_queries
        assert split == whole

    def test_planted_recovery_rate(self):
        env = PlantedMeasure(4, 2, 0.5, 1.0)
        wins = 0
        for seed in range(100):
            rec = subset_arm_identify(env, 2, 0.1, np.random.default_rng(seed))
            wins += rec.returned == (0, 1)
        assert wins >= 90

    def test_query_scaling_with_subset_count(self):
        medians = {}
        for n in (4, 6):
            totals = []
            for seed in range(25):
                env = PlantedMeasure(n, 2, 0.5, 1.0)
                rec = subset_arm_identify(env, 2, 0.1, np.random.default_rng(1000 + seed))
                totals.append(rec.total_queries)
            medians[n] = float(np.median(totals))
        ratio = medians[6] / medians[4]
        expected = math.comb(6, 2) / math.comb(4, 2)  # 2.5
        assert 0.5 * expected <= ratio <= 1.5 * expected

    def test_agreement_with_elimination_on_wide_gaps(self):
        env = ProductMeasure(means=(0.85, 0.75, 0.25, 0.15))
        agree = 0
        runs = 100
        for seed in range(runs):
            a = subset_arm_identify(env, 2, 0.1, np.random.default_rng(seed))
            b = run_identification(env, "semi", 2, 0.1, np.random.default_rng(seed))
            agree += tuple(sorted(a.returned)) == tuple(sorted(b.returned))
        assert agree >= 95


class TestParity:
    def test_planted_parity_means(self):
        rng = np.random.default_rng(3)
        for p in (0.25, 0.5, 1.0):
            env = PlantedMeasure(5, 2, 0.5, p)
            draws = sample_matrix(env, rng, 100_000)
            star = (draws[:, 0] ^ draws[:, 1]).mean()
            se = math.sqrt(0.25 / 100_000)
            assert abs(star - (0.5 + p / 2)) < 4 * se
            other = (draws[:, 0] ^ draws[:, 2]).mean()
            assert abs(other - 0.5) < 4 * se

    def test_recovers_planted_set(self):
        env = PlantedMeasure(5, 2, 0.5, 1.0)
        wins = 0
        for seed in range(50):
            rec = parity_identify(env, 2, 0.1, np.random.default_rng(seed))
            wins += rec.returned == (0, 1)
        assert wins >= 45

    def test_sample_need_scales_inverse_square_in_bias(self):
        # halving p should roughly quadruple the per-run query count
        medians = {}
        for p in (1.0, 0.5):
            totals = []
            for seed in range(50):
                env = PlantedMeasure(4, 2, 0.5, p)
                rec = parity_identify(env, 2, 0.1, np.random.default_rng(300 + seed))
                totals.append(rec.total_queries)
            medians[p] = float(np.median(totals))
        ratio = medians[0.5] / medians[1.0]
        assert 2.0 <= ratio <= 8.0  # 4x within a factor of 2

    def test_single_subset_trivial(self):
        env = PlantedMeasure(2, 2, 0.5, 1.0)
        rec = parity_identify(env, 2, 0.1, np.random.default_rng(0))
        assert rec.returned == (0, 1) and rec.total_queries == 0


class TestCallingConvention:
    @pytest.mark.parametrize("identify", [run_identification, subset_arm_identify, parity_identify])
    def test_rng_then_stage_cap(self, identify):
        params = inspect.signature(identify).parameters
        names = list(params)
        after_delta = names[names.index("delta") + 1 : names.index("delta") + 3]
        assert after_delta == ["rng", "stage_cap"]
        assert params["rng"].default is inspect.Parameter.empty
        assert params["stage_cap"].default == STAGE_CAP

    def test_experiment_config_default_stage_cap(self):
        cfg = ExperimentConfig(measure=ProductMeasure(means=(0.9, 0.1)).to_dict(),
                               model="semi", k=1, delta=0.1)
        assert cfg.stage_cap == STAGE_CAP
