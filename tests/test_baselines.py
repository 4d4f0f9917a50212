"""Subset-as-arm eliminator, the parity detector, and the calling convention
all three identifiers share."""

import hashlib
import inspect
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestofk import baselines, measures
from bestofk.baselines import parity_identify, subset_arm_identify
from bestofk.elimination import STAGE_CAP, run_identification
from bestofk.errors import DomainError, SubsetCapError
from bestofk.harness import ExperimentConfig
from bestofk.measures import (
    SUBSET_CAP,
    CoverageMeasure,
    JointTableMeasure,
    PlantedMeasure,
    ProductMeasure,
    sample_matrix,
)
from bestofk.trial import TrialRecord
from test_elimination import GENERATORS, generator_state, make_generator


class TestSubsetArm:
    def test_single_subset_trivial(self):
        env = ProductMeasure(means=(0.4, 0.6))
        rec = subset_arm_identify(env, 2, 0.1, np.random.default_rng(0))
        assert rec.returned == (0, 1)
        assert rec.total_queries == 0

    def test_cap(self):
        env = ProductMeasure(means=(0.5,) * 30)
        assert math.comb(30, 15) > SUBSET_CAP
        for _ in range(2):  # a raised enumeration is not cached, so a repeat raises again
            with pytest.raises(SubsetCapError):
                subset_arm_identify(env, 15, 0.1, np.random.default_rng(0))

    def test_enumeration_is_built_once_and_read_only(self):
        first = measures._enumerate_subsets(7, 3)
        assert measures._enumerate_subsets(7, 3) is first
        assert not first.flags.writeable and first.dtype == np.int64
        assert first.tolist() == [list(s) for s in combinations(range(7), 3)]

    @pytest.mark.parametrize("identify", [subset_arm_identify, parity_identify])
    def test_stage_cap_below_one_rejected(self, identify):
        env = PlantedMeasure(4, 2, 0.5, 1.0)
        with pytest.raises(DomainError):
            identify(env, 2, 0.1, np.random.default_rng(0), stage_cap=0)

    @pytest.mark.parametrize(
        "env,k,replays,skipped",
        [
            (ProductMeasure(means=(0.5, 0.5, 0.5, 0.3)), 2, True, 5),
            (ProductMeasure(means=(0.5, 0.5, 0.5, 0.5, 0.3)), 3, True, 5),
            (JointTableMeasure(k=3, probs=(0.125,) * 8), 2, True, 0),
            (PlantedMeasure(4, 2, 0.5, 0.0), 2, False, 5),
            (CoverageMeasure(4, [{0}, {1}, {2}, {3}]), 2, False, 0),
        ],
        ids=["product", "product-k3", "joint_table", "planted", "coverage"],
    )
    def test_every_draw_is_bounded(self, env, k, replays, skipped, monkeypatch):
        # every k-subset ties, so all 8 stages run; a draw holds at most the
        # largest power of two rows with rows * k <= DRAW_ELEMENTS (16 here),
        # so past 16 rows a survivor's rows split over several draws.  Product
        # and joint-table draws read the stream row by row, so their records
        # cannot change; a planted draw reads Y, Z and the uniforms of all its
        # rows in turn, and a coverage draw buffers its integers per call.
        # Product and planted stages 1-5 cannot drop a subset (their radius
        # floor is above 1/2), so they count their queries without a draw
        whole = subset_arm_identify(env, k, 0.1, np.random.default_rng(7), stage_cap=8)
        rows = []

        def counted(measure, rng, size, arms=None):
            rows.append(len(arms))
            return sample_matrix(measure, rng, size, arms=arms)

        monkeypatch.setattr(baselines, "DRAW_ELEMENTS", 20 * k)  # 20 rows, down to 16
        monkeypatch.setattr(baselines, "sample_matrix", counted)
        split = subset_arm_identify(env, k, 0.1, np.random.default_rng(7), stage_cap=8)
        assert split.stages == 8
        skipped_queries = (2 ** (skipped + 1) - 2) * math.comb(env.n, k)
        assert max(rows) == 16 and sum(rows) + skipped_queries == split.total_queries
        if replays:
            assert whole.inconclusive and split == whole

    @pytest.mark.parametrize(
        "identify,env,k,all_drawn,returned,total_queries,stages,inconclusive,state",
        [
            (subset_arm_identify, PlantedMeasure(4, 2, 0.5, 1.0), 2, False,
             (0, 1), 6132, 9, False, "b6c583bc17ea6062"),
            (subset_arm_identify, PlantedMeasure(4, 2, 0.5, 1.0), 2, True,
             (0, 1), 6132, 9, False, "a3671866207a5fb1"),
            (subset_arm_identify, PlantedMeasure(5, 3, 0.5, 1.0), 3, True,
             (0, 1, 2), 20460, 10, False, "663c4c5fe880fd95"),
            (parity_identify, PlantedMeasure(5, 2, 0.5, 1.0), 2, True,
             (0, 1), 5100, 8, False, "4b08e209566e3b90"),
            (parity_identify, PlantedMeasure(4, 3, 0.5, 1.0), 3, False,
             (0, 1, 2), 2040, 8, False, "54d674de8bf8f824"),
            (subset_arm_identify, CoverageMeasure(6, [{0, 1}, {2}, {3, 4}, {4}, {1, 5}]), 2,
             False, (0, 2), 35820, 11, True, "9582c1ba976fd6ae"),
            (parity_identify, CoverageMeasure(6, [{0, 1}, {2}, {3, 4}, {4}, {1, 5}]), 3,
             False, (0, 1, 2), 20972, 11, True, "a431aceef3d97c76"),
        ],
        ids=["arm-planted", "arm-planted-drawn", "arm-planted-k3-drawn", "parity-planted-drawn",
             "parity-planted-k3", "arm-coverage", "parity-coverage-k3"],
    )
    def test_split_draws_are_pinned(self, identify, env, k, all_drawn, returned, total_queries,
                                    stages, inconclusive, state, monkeypatch):
        # a planted or coverage draw reads the stream per call, so the record,
        # the draws and the generator's end state pin where each stage is cut
        # into draws.  A draw holds 16 rows here: stages 1-4 put whole
        # survivors in a draw, later stages split one survivor over several.
        # Planted stages 1-5 run undrawn unless every stage is drawn (all_drawn)
        digest = hashlib.sha256()

        def hashed(measure, rng, size, arms=None):
            draws = sample_matrix(measure, rng, size, arms=arms)
            digest.update(np.ascontiguousarray(arms).tobytes() + draws.tobytes())
            return draws

        monkeypatch.setattr(baselines, "DRAW_ELEMENTS", 20 * k)
        monkeypatch.setattr(baselines, "sample_matrix", hashed)
        if all_drawn:
            monkeypatch.setattr(type(env), "draw_doubles", lambda self, size, w: None)
        rng = np.random.default_rng(1)
        rec = identify(env, k, 0.1, rng, stage_cap=11)
        digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
        assert rec == TrialRecord(returned=returned, total_queries=total_queries, stages=stages,
                                  inconclusive=inconclusive)
        assert digest.hexdigest()[:16] == state

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), identify=st.sampled_from([subset_arm_identify, parity_identify]),
           stage_cap=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           generator=st.sampled_from(GENERATORS))
    def test_skipped_stages_replay_the_simulated_run(self, data, identify, stage_cap, seed,
                                                     generator):
        # the first 5 or 6 stages of these configs cannot drop a subset, so
        # caps of 1-9 end inside the skipped prefix and past it
        n = data.draw(st.integers(3, 6))
        k = data.draw(st.integers(1 if identify is subset_arm_identify else 2, n - 1))
        if data.draw(st.booleans()):
            env = ProductMeasure(means=data.draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9]),
                                                          min_size=n, max_size=n)))
        else:
            planted = data.draw(st.integers(2, n))
            mu = 0.5 if identify is parity_identify else data.draw(st.sampled_from([0.25, 0.5]))
            env = PlantedMeasure(n, planted, mu, data.draw(st.sampled_from([0.5, 1.0])))
        delta = data.draw(st.sampled_from([0.01, 0.1, 0.5]))
        skipping_rng, simulated_rng = (make_generator(generator, seed) for _ in range(2))
        skipping = identify(env, k, delta, skipping_rng, stage_cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(env), "draw_doubles", lambda self, size, w: None)
            simulated = identify(env, k, delta, simulated_rng, stage_cap)
        assert skipping == simulated
        assert generator_state(skipping_rng) == generator_state(simulated_rng)

    def test_workload_draws_from_stage_6(self, monkeypatch):
        # the subset-planted-n8 config: the radius floor over its 28 subset
        # arms is 20.6, 8.1, 3.8, 1.9 and 0.94 at stages 1-5 and 0.48 at stage 6
        env = PlantedMeasure(8, 2, 0.5, 1.0)
        rows = []

        def counted(measure, rng, size, arms=None):
            rows.append(size)
            return sample_matrix(measure, rng, size, arms=arms)

        monkeypatch.setattr(baselines, "sample_matrix", counted)
        rec = subset_arm_identify(env, 2, 0.1, np.random.default_rng(1))
        assert rec.stages >= 6
        assert rows[0] == 2**6 * 28  # stage 6 draws every subset; stages 1-5 drew nothing
        assert sum(rows) + (2**6 - 2) * 28 == rec.total_queries

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
