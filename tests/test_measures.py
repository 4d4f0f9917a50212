"""Measure construction, sampling, exact rewards, and serialization."""

import importlib.util
import json
import math
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestofk import measures
from bestofk.errors import DomainError
from bestofk.measures import (
    CoverageMeasure,
    JointTableMeasure,
    PlantedMeasure,
    ProductMeasure,
    expected_max,
    fold_columns,
    measure_from_dict,
    optimal_subset,
    sample_matrix,
)
from bestofk.oracle import exact_table

PERFBENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


class TestConstruction:
    def test_planted_rejects_mu_above_half(self):
        with pytest.raises(DomainError):
            PlantedMeasure(5, 2, 0.6, 1.0)

    def test_planted_rejects_bad_k(self):
        with pytest.raises(DomainError):
            PlantedMeasure(5, 1, 0.3, 1.0)
        with pytest.raises(DomainError):
            PlantedMeasure(5, 6, 0.3, 1.0)

    def test_planted_accepts_k_equals_n(self):
        m = PlantedMeasure(2, 2, 0.5, 1.0)
        assert m.planted_set == (0, 1)

    def test_planted_p_domain(self):
        # p = 0 is the fully independent degenerate case: no subset stands out
        m = PlantedMeasure(5, 2, 0.3, 0.0)
        assert m.p == 0.0 and optimal_subset(m, 2) is None
        for p in (-0.1, 1.1, float("nan")):
            with pytest.raises(DomainError):
                PlantedMeasure(5, 2, 0.3, p)

    def test_planted_relabeling(self):
        m = PlantedMeasure(6, 3, 0.25, 0.5, planted_set=(1, 3, 5))
        assert m.planted_set == (1, 3, 5)
        with pytest.raises(DomainError):
            PlantedMeasure(6, 3, 0.25, 0.5, planted_set=(1, 3, 6))

    def test_coverage_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            CoverageMeasure(4, [{0, 4}])

    def test_joint_table_normalization(self):
        probs = [0.25, 0.25, 0.25, 0.25 + 5e-10]
        m = JointTableMeasure(k=2, probs=tuple(probs))
        assert abs(sum(m.probs) - 1.0) < 1e-15
        assert m.probs == pytest.approx([x / (1.0 + 5e-10) for x in probs], rel=1e-15)
        with pytest.raises(DomainError):
            JointTableMeasure(k=2, probs=(0.25, 0.25, 0.25, 0.26))
        with pytest.raises(DomainError):
            JointTableMeasure(k=2, probs=(0.5, 0.5, 0.1, -0.1))


class TestPlantedGap:
    """The planted set 0..k-1 beats the k-subset 1..k by exactly p * mu**k."""

    @staticmethod
    def gap(m):
        return expected_max(m, m.planted_set) - expected_max(m, range(1, m.k + 1))

    def test_half_mu_unit_p(self):
        assert self.gap(PlantedMeasure(3, 2, 0.5, 1.0)) == 0.25

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_mu_half_closed_form(self, p, k):
        assert self.gap(PlantedMeasure(k + 1, k, 0.5, p)) == p * 2.0**-k

    def test_degenerate_inputs(self):
        assert self.gap(PlantedMeasure(3, 2, 0.5, 0.0)) == 0.0
        with pytest.raises(DomainError):
            PlantedMeasure(3, 2, 0.0, 1.0)


class TestExpectedMax:
    def test_product_example(self):
        m = ProductMeasure(means=(0.75, 0.75, 0.75))
        assert expected_max(m, (0, 1)) == pytest.approx(15.0 / 16.0, abs=1e-15)

    def test_planted_best_subset_is_one(self):
        m = PlantedMeasure(2, 2, 0.5, 1.0)
        assert expected_max(m, (0, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_unit_mean_dominates(self):
        m = ProductMeasure(means=(1.0, 0.2, 0.3))
        assert expected_max(m, (0, 2)) == 1.0
        cov = CoverageMeasure(4, [set(range(4)), {0}])
        assert expected_max(cov, (0, 1)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            expected_max(ProductMeasure(means=(0.5,)), ())

    def test_planted_gap_between_subsets(self):
        m = PlantedMeasure(6, 3, 0.3, 0.5)
        best = expected_max(m, m.planted_set)
        other = expected_max(m, (0, 1, 3))
        assert best - other == pytest.approx(0.5 * 0.3**3, abs=1e-15)

    def test_planted_superset_closed_form_matches_oracle(self):
        m = PlantedMeasure(6, 3, 0.25, 0.75)
        table = exact_table(m, m.planted_set + (3,))
        assert expected_max(m, (0, 1, 2, 3)) == pytest.approx(
            1.0 - float(table[0]), abs=1e-12
        )

    @pytest.mark.parametrize("measure", [
        PlantedMeasure(20, 3, 0.3, 0.8),
        CoverageMeasure(8, [{i % 8, (3 * i + 1) % 8} for i in range(20)]),
    ], ids=["planted", "coverage"])
    def test_twenty_arm_closed_forms_allocate_under_a_mebibyte(self, measure, allocation_peak):
        # the family forms stay: the generic 1 - exact_probs(s)[0] builds a
        # (components, 2**20) float table, and peaks at 40 MiB on this planted
        # measure and 160 MiB on this union of 8 distinct membership rows
        peak = allocation_peak(lambda: expected_max(measure, range(20)))
        assert peak < 2**20, peak


class TestCoverage:
    def test_full_set_mean_one(self):
        m = CoverageMeasure(3, [set(range(3))])
        assert m.marginals() == (1.0,)

    def test_union_reward(self):
        m = CoverageMeasure(4, [{0, 1}, {2}])
        assert expected_max(m, (0, 1)) == pytest.approx(0.75)

    def test_disjoint_pairs_exhaustive(self):
        # three pairwise-disjoint 2-element sets over a 6-element universe
        m = CoverageMeasure(6, [{0, 1}, {2, 3}, {4, 5}])
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert expected_max(m, pair) == pytest.approx(2.0 / 3.0, abs=1e-15)


class TestSampling:
    def test_all_zero_product(self, all_arms):
        m = ProductMeasure(means=(0.0, 0.0, 0.0))
        rng = np.random.default_rng(0)
        assert not sample_matrix(m, rng, all_arms(m, 100)).any()

    def test_planted_parity_deterministic_at_p_one(self, all_arms):
        m = PlantedMeasure(5, 3, 0.5, 1.0)
        rng = np.random.default_rng(1)
        draws = sample_matrix(m, rng, all_arms(m, 20_000))
        parity = draws[:, list(m.planted_set)].sum(axis=1) % 2
        assert (parity == 1).all()

    def test_planted_best_always_wins(self):
        # p = 1 and mu = 1/2: the planted pair's parity is 1, so one of them reads 1
        m = PlantedMeasure(4, 2, 0.5, 1.0)
        arms = np.broadcast_to(np.asarray(m.planted_set), (10_000, 2))
        draws = sample_matrix(m, np.random.default_rng(6), arms)
        assert fold_columns(draws, np.bitwise_or).all()

    def test_coverage_frequency(self, all_arms):
        m = CoverageMeasure(4, [{0, 1}, {2}])
        rng = np.random.default_rng(2)
        draws = sample_matrix(m, rng, all_arms(m, 100_000))
        freq = draws[:, 0].mean()
        assert abs(freq - 0.5) < 0.01

    def test_product_max_monte_carlo(self, all_arms):
        rng = np.random.default_rng(3)
        m = ProductMeasure(means=(0.7, 0.4, 0.2, 0.1))
        s = (0, 1, 3)
        draws = sample_matrix(m, rng, all_arms(m, 100_000))[:, list(s)].max(axis=1)
        exact = expected_max(m, s)
        se = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(draws.mean() - exact) < 4 * se

    def test_product_draws_are_independent_arrays(self, all_arms):
        # the draw writes its uniforms and means into held buffers; the bits
        # it returns are its own, so a second draw leaves the first unchanged
        m = ProductMeasure(means=(0.5,) * 6)
        rng = np.random.default_rng(7)
        first = sample_matrix(m, rng, all_arms(m, 1000))
        kept = first.copy()
        second = sample_matrix(m, rng, all_arms(m, 1000))
        assert (first == kept).all()
        assert not np.shares_memory(first, second)

    def test_planted_draws_are_independent_arrays(self):
        # the draw builds a threshold and a cell table per call; the bits it
        # returns are its own, so a second draw leaves the first unchanged
        m = PlantedMeasure(8, 2, 0.45, 0.8, planted_set=(1, 4))
        rng = np.random.default_rng(7)
        arms = np.repeat(np.asarray([[0, 1], [1, 4], [2, 5]]), 400, axis=0)
        first = m.draw(rng, arms)
        kept = first.copy()
        second = m.draw(rng, arms)
        assert (first == kept).all()
        assert not np.shares_memory(first, second)

    def test_sample_reproducible_per_seed(self, all_arms):
        m = PlantedMeasure(7, 3, 0.4, 0.5)
        a = sample_matrix(m, np.random.default_rng(123), all_arms(m, 50))
        b = sample_matrix(m, np.random.default_rng(123), all_arms(m, 50))
        assert (a == b).all()

    def test_joint_table_sampler_frequencies(self, all_arms):
        m = JointTableMeasure(k=2, probs=(0.1, 0.2, 0.3, 0.4))
        rng = np.random.default_rng(4)
        draws = sample_matrix(m, rng, all_arms(m, 200_000))
        atom = draws[:, 0] + 2 * draws[:, 1]
        for a, p in enumerate(m.probs):
            assert abs((atom == a).mean() - p) < 4 * math.sqrt(p * (1 - p) / 200_000)


def planted_reference(measure, rng, arms):
    """The planted draw in three generator calls: Y, the Zs, then the uniforms.

    Every arm's threshold is gathered per row from its slot: 2*mu*Z for the
    planted arm at position j, mu for any other arm.
    """
    size, k, mu = len(arms), measure.k, measure.mu
    y = rng.random(size) < measure.p
    z = rng.random((size, k)) < 0.5
    odd_rest = z[:, 1:].sum(axis=1) % 2 == 1
    z[:, 0] = np.where(y, ~odd_rest, z[:, 0])  # Y=1 forces odd parity over the planted set
    rate = np.concatenate([2.0 * mu * z, np.full((size, 1), mu)], axis=1)
    position = {a: j for j, a in enumerate(measure.planted_set)}
    slots = np.asarray([[position.get(a, k) for a in row] for row in arms.tolist()],
                       dtype=np.int64).reshape(arms.shape)
    threshold = np.take_along_axis(rate, slots, axis=1)
    return (rng.random(arms.shape) < threshold).astype(np.uint8)


class TestPlantedDraw:
    """PlantedMeasure.draw reads the reference's doubles in its order, bit for bit."""

    @staticmethod
    def assert_same_draw(measure, arms, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        bits = measure.draw(rng, arms)
        assert bits.dtype == np.uint8 and bits.shape == arms.shape
        assert bits.tolist() == planted_reference(measure, ref_rng, arms).tolist()
        assert rng.random() == ref_rng.random()

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        p=st.sampled_from([0.0, 0.3, 1.0]),
        mu=st.sampled_from([0.2, 0.5]),
        size=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_three_call_reference(self, data, p, mu, size, seed):
        n = data.draw(st.integers(2, 12))
        k = data.draw(st.integers(2, n))
        planted = data.draw(st.permutations(range(n)))[:k]
        w = data.draw(st.integers(1, n))
        # each row observes w distinct arms in a random order
        arms = np.argsort(np.random.default_rng(seed).random((size, n)), axis=1)[:, :w]
        self.assert_same_draw(PlantedMeasure(n, k, mu, p, planted_set=planted), arms, seed)

    def test_matches_reference_at_k_65(self):
        measure = PlantedMeasure(80, 65, 0.5, 0.3, planted_set=range(10, 75))
        arms = np.argsort(np.random.default_rng(5).random((300, 80)), axis=1)[:, :70]
        self.assert_same_draw(measure, arms, 6)

    def test_zero_rows_draw_nothing(self):
        rng = np.random.default_rng(0)
        bits = PLANTED.draw(rng, np.empty((0, 3), dtype=np.int64))
        assert bits.dtype == np.uint8 and bits.shape == (0, 3)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("rows", [14_336, measures.DRAW_ELEMENTS // 5])
    def test_warm_draw_allocates_less_than_its_cells(self, rows, allocation_peak):
        # the subset-planted-n8 workload's largest draw, and one full block of
        # two arms with k = 2: with the cell table and the threshold gather
        # held and the threshold table in the spent Y and Z doubles, only the
        # row offsets, Y, the Z tables, the parity flip and the returned bits
        # are fresh (115 and 1,641 KiB peaks, the row offsets first)
        measure = PlantedMeasure(8, 2, 0.5, 1.0)
        arms = np.tile(np.asarray([[0, 5]]), (rows, 1))
        measure.draw(np.random.default_rng(1), arms)
        peak = allocation_peak(lambda: measure.draw(np.random.default_rng(2), arms))
        assert peak < arms.size * np.dtype(np.int64).itemsize, peak

    def test_draws_hold_uniforms_thresholds_and_cells(self, monkeypatch):
        # the planted threshold table lives in the spent Y and Z doubles, and a
        # product draw gathers its means under the planted gather's name
        monkeypatch.setattr(measures, "_HELD", {})
        arms = np.asarray([[0, 1], [3, 5], [6, 2]])
        PLANTED.draw(np.random.default_rng(0), arms)
        ProductMeasure(means=(0.3,) * PLANTED.n).draw(np.random.default_rng(0), arms)
        assert sorted(measures._HELD) == ["draw.cells", "draw.thresholds", "draw.uniforms"]

    @pytest.mark.parametrize("elements, rows", [(61, 7), (5, 1)])
    def test_blocks_of_rows_match_the_reference_block_by_block(self, monkeypatch, elements,
                                                               rows):
        # a row of 4 arms takes 1 + 3 + 4 doubles: 61 elements hold 7 rows, and
        # fewer than one row's elements still draw one row per block
        monkeypatch.setattr(measures, "DRAW_ELEMENTS", elements)
        arms = np.argsort(np.random.default_rng(7).random((50, PLANTED.n)), axis=1)[:, :4]
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        bits = PLANTED.draw(rng, arms)
        blocks = [planted_reference(PLANTED, ref_rng, arms[i : i + rows])
                  for i in range(0, len(arms), rows)]
        assert bits.dtype == np.uint8 and bits.tolist() == np.concatenate(blocks).tolist()
        assert rng.random() == ref_rng.random()


class TestDrawDoubles:
    """``draw_doubles`` counts the doubles ``draw`` takes, so taking that many
    doubles leaves the generator where the draw leaves it."""

    @staticmethod
    def assert_same_state(measure, arms, seed):
        rng, skip_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in (rng, skip_rng):  # a buffered 32-bit half must survive both
            g.integers(0, 2**32, dtype=np.uint32)
        measure.draw(rng, arms)
        skip_rng.random(measure.draw_doubles(*arms.shape))
        assert rng.bit_generator.state == skip_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), size=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    def test_product_and_planted_counts_are_exact(self, data, size, seed):
        n = data.draw(st.integers(2, 9))
        w = data.draw(st.integers(1, n))
        if data.draw(st.booleans()):
            measure = ProductMeasure(means=data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]),
                                                              min_size=n, max_size=n)))
        else:
            k = data.draw(st.integers(2, n))
            measure = PlantedMeasure(n, k, data.draw(st.sampled_from([0.2, 0.5])),
                                     data.draw(st.sampled_from([0.0, 0.6, 1.0])),
                                     planted_set=data.draw(st.permutations(range(n)))[:k])
        arms = np.argsort(np.random.default_rng(seed).random((size, n)), axis=1)[:, :w]
        self.assert_same_state(measure, arms, seed)

    @pytest.mark.parametrize("elements", [61, 5])
    def test_planted_draw_in_blocks(self, monkeypatch, elements):
        # PLANTED has k = 3: 1 + 3 + 4 doubles a row, 7 rows a block at 61
        # elements and one row a block at 5
        monkeypatch.setattr(measures, "DRAW_ELEMENTS", elements)
        arms = np.argsort(np.random.default_rng(7).random((50, PLANTED.n)), axis=1)[:, :4]
        assert PLANTED.draw_doubles(50, 4) == 50 * (1 + 3 + 4)
        self.assert_same_state(PLANTED, arms, 8)

    @settings(max_examples=100, deadline=None)
    @given(planted=st.booleans(), w=st.integers(1, 7), a=st.integers(0, 2**50),
           b=st.integers(0, 2**50))
    def test_counts_are_linear_in_rows(self, planted, w, a, b):
        # the identifiers count a run of same-width stages in one call
        count = (PLANTED if planted else ProductMeasure(means=(0.1,) * 7)).draw_doubles
        assert count(a + b, w) == count(a, w) + count(b, w)

    def test_other_families_count_nothing(self):
        # coverage draws bounded integers and joint tables draw atoms by choice
        assert COVERAGE.draw_doubles(50, 2) is None
        assert JOINT.draw_doubles(50, 2) is None


PLANTED =PlantedMeasure(7, 3, 0.4, 0.8, planted_set=(1, 3, 5))
COVERAGE = CoverageMeasure(8, [{0, 1, 2}, {2, 3}, {3, 4, 5}, {5, 6}, {6, 7, 0}, {1, 4}])
JOINT = JointTableMeasure(k=3, probs=(0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1))
PRODUCT = ProductMeasure(means=(0.7, 0.4, 0.2, 0.1, 0.55))
LAW_ROWS = 200_000


def assert_law(measure, arms, draws):
    """Each atom's frequency lies within 4 s.e. of exact_table(measure, arms)."""
    probs = exact_table(measure, arms)
    atoms = draws.astype(np.int64) @ (1 << np.arange(len(arms)))
    freq = np.bincount(atoms, minlength=len(probs)) / len(draws)
    se = np.sqrt(probs * (1.0 - probs) / len(draws))
    assert (np.abs(freq - probs) <= 4 * se + 1e-12).all(), (arms, freq, probs)


class TestObservedArms:
    """sample_matrix(measure, rng, A): row i has the exact joint law on A[i]."""

    @pytest.mark.parametrize(
        "measure,arms",
        [
            (PRODUCT, (3, 0, 4)),
            (COVERAGE, (1, 2, 5, 0)),
            (JOINT, (2, 0)),
            (PLANTED, (1, 3, 5)),  # the planted set
            (PLANTED, (1, 3, 5, 0)),  # the planted set plus an outside arm
            (PLANTED, (3, 5, 6)),  # part of it
            (PLANTED, (5, 0, 3, 1)),  # all of it, shuffled
            (PLANTED, (0, 2, 4, 6)),  # disjoint from it
        ],
        ids=["product", "coverage", "joint", "planted-set", "planted-superset",
             "planted-part", "planted-shuffled", "planted-disjoint"],
    )
    def test_rows_follow_exact_table(self, measure, arms):
        rows = np.tile(np.asarray(arms), (LAW_ROWS, 1))
        draws = sample_matrix(measure, np.random.default_rng(31), rows)
        assert draws.shape == (LAW_ROWS, len(arms))
        assert draws.dtype == np.uint8
        assert_law(measure, arms, draws)

    @pytest.mark.parametrize(
        "measure,first,second",
        [
            (PRODUCT, (0, 1), (4, 3)),
            (COVERAGE, (0, 2, 4), (3, 1, 5)),
            (JOINT, (0, 1), (2, 1)),
            (PLANTED, (1, 3, 5), (0, 3, 6)),
        ],
        ids=["product", "coverage", "joint", "planted"],
    )
    def test_each_row_reads_its_own_arms(self, measure, first, second):
        rows = np.empty((LAW_ROWS, len(first)), dtype=np.int64)
        rows[0::2], rows[1::2] = first, second
        draws = sample_matrix(measure, np.random.default_rng(32), rows)
        assert_law(measure, first, draws[0::2])
        assert_law(measure, second, draws[1::2])

    @pytest.mark.parametrize(
        "measure",
        [PRODUCT, COVERAGE, JOINT, PlantedMeasure(5, 3, 0.4, 0.8, planted_set=(0, 2, 4))],
        ids=["product", "coverage", "joint", "planted"],
    )
    def test_default_arms_are_all_arms(self, measure):
        # rows that each observe every arm, in order, have the measure's full law
        rows = np.tile(np.arange(measure.n), (LAW_ROWS, 1))
        full = sample_matrix(measure, np.random.default_rng(34), rows)
        assert full.shape == (LAW_ROWS, measure.n) and full.dtype == np.uint8
        assert_law(measure, tuple(range(measure.n)), full)

    def test_arms_shape_checked(self):
        with pytest.raises(DomainError):
            sample_matrix(PRODUCT, np.random.default_rng(0), np.zeros(3, int))

    @pytest.mark.parametrize("measure", [PRODUCT, COVERAGE, JOINT, PLANTED],
                             ids=["product", "coverage", "joint", "planted"])
    @pytest.mark.parametrize("arm", ["n", -1])
    def test_arm_out_of_range_raises(self, measure, arm):
        # sample_matrix checks every family's arms before it draws
        rng = np.random.default_rng(0)
        arms = np.asarray([[0, measure.n if arm == "n" else arm]] * 3)
        with pytest.raises(IndexError):
            sample_matrix(measure, rng, arms)
        assert rng.random() == np.random.default_rng(0).random()  # nothing drawn

    @pytest.mark.parametrize("measure", [PRODUCT, COVERAGE, JOINT, PLANTED],
                             ids=["product", "coverage", "joint", "planted"])
    def test_broadcast_arms_draw_as_their_copy(self, measure, all_arms):
        # zero-stride arms (broadcast views) give the bits of their contiguous copy
        for arms in (all_arms(measure, 300), np.broadcast_to([[2, 0]], (300, 2))):
            bits = sample_matrix(measure, np.random.default_rng(5), arms)
            copied = sample_matrix(measure, np.random.default_rng(5), arms.copy())
            assert bits.tolist() == copied.tolist()

    @pytest.mark.parametrize("measure", [COVERAGE, JOINT], ids=["coverage", "joint"])
    def test_gathering_draws_return_slot_major_bits(self, measure):
        # each slot's column is contiguous; the values are the row-by-row gather's
        arms = np.random.default_rng(3).integers(0, measure.n, (50, 3))
        bits = measure.draw(np.random.default_rng(4), arms)
        assert bits.shape == (50, 3) and bits.dtype == np.uint8
        assert bits.T.flags.c_contiguous
        rng = np.random.default_rng(4)
        if measure is COVERAGE:
            expected = measure.members[rng.integers(0, measure.m, 50)[:, None], arms]
        else:
            atoms = rng.choice(8, size=50, p=np.asarray(measure.probs))
            expected = (atoms[:, None] >> arms) & 1
        assert bits.tolist() == expected.tolist()

    def test_coverage_membership_table_built_once(self):
        assert COVERAGE.members is COVERAGE.members
        assert COVERAGE.members.tolist() == [
            [int(e in s) for s in COVERAGE.sets] for e in range(COVERAGE.m)
        ]


class TestSerialization:
    @pytest.mark.parametrize(
        "measure",
        [
            ProductMeasure(means=(0.1, 0.625, 1.0)),
            PlantedMeasure(6, 3, 0.3, 0.7, planted_set=(0, 2, 4)),
            CoverageMeasure(5, [{0, 1}, {2, 4}]),
            JointTableMeasure(k=2, probs=(0.1, 0.2, 0.3, 0.4)),
        ],
    )
    def test_round_trip_exact(self, measure):
        again = measure_from_dict(json.loads(json.dumps(measure.to_dict())))
        assert type(again) is type(measure)
        assert again.marginals() == measure.marginals()
        if not isinstance(measure, JointTableMeasure):
            assert again == measure
        else:
            assert again.probs == measure.probs

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_any_measure(self, data):
        unit = st.floats(0.0, 1.0)
        family = data.draw(st.sampled_from(["product", "planted", "coverage", "joint_table"]))
        if family == "product":
            measure = ProductMeasure(means=tuple(data.draw(st.lists(unit, min_size=1, max_size=8))))
        elif family == "planted":
            n = data.draw(st.integers(2, 8))
            k = data.draw(st.integers(2, n))
            measure = PlantedMeasure(
                n, k, data.draw(st.floats(0.0, 0.5, exclude_min=True)),
                data.draw(st.floats(0.0, 1.0, exclude_min=True)),
                planted_set=data.draw(st.permutations(range(n)))[:k],
            )
        elif family == "coverage":
            m = data.draw(st.integers(1, 12))
            sets = data.draw(st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=6))
            measure = CoverageMeasure(m, sets)
        else:
            k = data.draw(st.integers(1, 4))
            weights = data.draw(st.lists(unit, min_size=2**k, max_size=2**k).filter(any))
            measure = JointTableMeasure(k=k, probs=tuple(w / math.fsum(weights) for w in weights))
        again = measure_from_dict(json.loads(json.dumps(measure.to_dict())))
        assert type(again) is type(measure)
        assert again == measure

    def test_unknown_type_rejected(self):
        with pytest.raises(DomainError):
            measure_from_dict(json.loads('{"type": "mystery"}'))

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ({"type": "product", "n": 4}, "'means'"),
            ({"type": "product", "means": [0.5, "x"]}, "'means'"),
            ({"type": "product", "means": 0.5}, "'means'"),
            ({"type": "planted", "n": 6, "k": 2, "mu": 0.4}, "'p'"),
            ({"type": "planted", "n": "6", "k": 2, "mu": 0.4, "p": 1.0}, "'n'"),
            ({"type": "planted", "n": 6, "k": True, "mu": 0.4, "p": 1.0}, "'k'"),
            ({"type": "planted", "n": 6, "k": 2, "mu": 0.4, "p": 1.0,
              "planted_set": [0, 1.5]}, "'planted_set'"),
            ({"type": "coverage", "sets": [[0]]}, "'m'"),
            ({"type": "coverage", "m": 4, "sets": [0, 1]}, "'sets'"),
            ({"type": "joint_table", "k": 1}, "'probs'"),
            ({"type": "joint_table", "k": 1.0, "probs": [0.5, 0.5]}, "'k'"),
            (["product"], "object"),
            ({"type": ["product"], "means": [0.5]}, "unknown measure type"),
            ({"type": "planted", "n": 6, "k": 2, "mu": 0.4, "p": 0.9, "planted": [3, 4]},
             "['planted']"),
            ({"type": "product", "n": 5, "means": [0.9, 0.6, 0.2]}, "'n' must be its arm count 3"),
            ({"type": "coverage", "n": 2.0, "m": 4, "sets": [[0], [1]]}, "got 2.0"),
            # a short document naming a huge instance is rejected before anything is built
            ({"type": "joint_table", "k": 20000, "probs": [0.5, 0.5]}, "got 2"),
            ({"type": "planted", "n": 10**12, "k": 10**12, "mu": 0.4, "p": 0.9}, "k <= 1074"),
            ({"type": "joint_table", "k": 1, "probs": [float("nan"), 0.5]}, "atom mass nan"),
        ],
    )
    def test_malformed_document_is_a_one_line_domain_error(self, doc, fragment):
        with pytest.raises(DomainError) as info:
            measure_from_dict(doc)
        message = str(info.value)
        assert fragment in message
        assert "\n" not in message


class TestOptimalSubset:
    def test_product_top_k(self):
        m = ProductMeasure(means=(0.2, 0.9, 0.5, 0.7))
        assert optimal_subset(m, 2) == (1, 3)

    def test_tie_returns_none(self):
        m = ProductMeasure(means=(0.5, 0.5, 0.2))
        assert optimal_subset(m, 1) is None

    def test_planted(self):
        m = PlantedMeasure(6, 3, 0.4, 0.5, planted_set=(1, 2, 5))
        assert optimal_subset(m, 3) == (1, 2, 5)

    def test_coverage_enumeration(self):
        m = CoverageMeasure(6, [{0, 1}, {2, 3}, {3, 4, 5}])
        assert optimal_subset(m, 2) == (0, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 140),
        sets=st.lists(st.frozensets(st.integers(0, 139), max_size=40), min_size=1, max_size=7),
        k=st.integers(1, 7),
    )
    def test_coverage_bitmasks_match_expected_max_enumeration(self, m, sets, k):
        # up to 140 elements, so a packed row spans up to three 64-bit words
        sets = [frozenset(e for e in s if e < m) for s in sets]
        k = min(k, len(sets))
        measure = CoverageMeasure(m, sets)
        values = {
            s: len(frozenset().union(*(sets[i] for i in s))) / m
            for s in combinations(range(len(sets)), k)
        }
        for s, v in values.items():
            assert expected_max(measure, s) == v
        best = max(values, key=values.get)  # the first maximum in scan order
        rest = [v for s, v in values.items() if s != best]
        unique = not rest or values[best] - max(rest) > 1e-12
        assert optimal_subset(measure, k) == (best if unique else None)
        assert measures.Measure.optimum(measure, k) == (best if unique else None)

    @pytest.mark.parametrize("means, k", [
        ((0.5, 0.5 + 1e-13, 0.2), 1),
        ((0.999999999999999, 0.5, 0.4), 2),  # E[max] of (0, 1) and (0, 2) differ by about 1e-16
    ])
    def test_product_optimum_none_on_near_ties(self, means, k):
        measure = ProductMeasure(means)
        assert optimal_subset(measure, k) is None
        assert measures.Measure.optimum(measure, k) is None

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_generic_optimum_matches_expected_max_enumeration(self, data):
        # the families that reach Measure.optimum: joint tables, whose atoms
        # take few values so that repeated atoms tie, and planted measures with
        # k other than the planted k or p = 0, where every subset that holds
        # the planted set (or every subset, below the planted k) ties; and
        # product measures on a grid of means, where equal means and a unit
        # mean (every k-subset holding that arm has E[max] 1) tie, and means
        # within 1e-12 of each other, or of 1, come within 1e-12 in E[max]
        family = data.draw(st.sampled_from(["joint_table", "planted", "product"]))
        if family == "product":
            grid = [0.0, 0.25, 0.5, 0.75, 1.0, 0.5 + 1e-13, 1 - 1e-15, 0.25 + 3e-13, 1e-13, 0.999]
            means = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=7))
            measure = ProductMeasure(tuple(means))
            k = data.draw(st.integers(1, measure.n))
        elif family == "joint_table":
            dim = data.draw(st.integers(1, 5))
            weights = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=2**dim,
                                         max_size=2**dim).filter(any))
            measure = JointTableMeasure(dim, tuple(w / sum(weights) for w in weights))
            k = data.draw(st.integers(1, dim))
        else:
            n = data.draw(st.integers(2, 7))
            planted = data.draw(st.integers(2, n))
            p = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
            measure = PlantedMeasure(n, planted, data.draw(st.sampled_from([0.25, 0.5])), p,
                                     planted_set=data.draw(st.permutations(range(n)))[:planted])
            k = data.draw(st.integers(1, n).filter(lambda k: k != planted or p == 0))
        values = {s: expected_max(measure, s) for s in combinations(range(measure.n), k)}
        best = max(values, key=values.get)  # the first maximum in scan order
        ordered = sorted(values.values())
        unique = len(ordered) == 1 or ordered[-1] - ordered[-2] > 1e-12
        assert optimal_subset(measure, k) == (best if unique else None)
        if k == measure.n:  # one subset, so a unique answer
            assert optimal_subset(measure, k) == tuple(range(k))

    @pytest.mark.parametrize("sets, best", [
        # arms 6-8 cover disjoint ranges: the best subset is the last one scored
        ([{0, 1}, {52}, {2, 120}, {3}, {100, 101}, {159}, set(range(48)), set(range(48, 96)),
          set(range(96, 144))], (6, 7, 8)),
        # pairs {6, 7} and {6, 8} tie, each covering elements in two or three words
        ([{0}, {1}, {2}, {3}, {4}, {5}, set(range(80)), set(range(80, 120)),
          set(range(120, 160))], None),
    ])
    def test_coverage_optimum_in_several_blocks(self, monkeypatch, sets, best):
        measure = CoverageMeasure(160, sets)
        k = 3 if best else 2
        assert measures.Measure.optimum(measure, k) == best
        monkeypatch.setattr(measures, "DRAW_ELEMENTS", 10)  # 160 elements: 3 blocks of 1 word
        assert measure.optimum(k) == best

    def test_coverage_workload_optimum(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH_WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
        spec.loader.exec_module(workloads)
        doc = workloads.WORKLOADS["marked-coverage-n64"].config(1)
        assert optimal_subset(measure_from_dict(doc["measure"]), doc["k"]) == (0, 1, 2)

    def test_coverage_tie_returns_none(self):
        # arm 0 with arm 1 or with arm 2 covers 3 of 4 elements
        m = CoverageMeasure(4, [{0, 1}, {2}, {3}, {0}])
        assert optimal_subset(m, 2) is None
        assert optimal_subset(CoverageMeasure(4, [{0, 1}, {2}, {3}, {2, 3}]), 2) == (0, 3)

    @pytest.mark.parametrize("measure", [
        # disjoint sets of 1..40 elements: arms 35-39 would be the one best 5-subset
        CoverageMeasure(820, [set(range(i * (i + 1) // 2, (i + 1) * (i + 2) // 2))
                              for i in range(40)]),
        PlantedMeasure(40, 3, 0.3, 0.5),  # queried at a k other than its own
    ], ids=["coverage", "planted"])
    def test_optimum_past_the_cap_is_none(self, measure):
        # C(40, 5) = 658,008 subsets: the optimum is not looked for at all
        assert math.comb(measure.n, 5) > measures.SUBSET_CAP
        started = time.perf_counter()
        assert optimal_subset(measure, 5) is None
        assert time.perf_counter() - started < 1.0


class TestFoldColumns:
    def test_folds_match_reductions(self):
        rng = np.random.default_rng(5)
        bits = (rng.random((40, 6, 5)) < 0.4).astype(np.uint8)
        assert np.array_equal(fold_columns(bits, np.bitwise_or), bits.max(axis=2))
        assert np.array_equal(fold_columns(bits, np.bitwise_xor), bits.sum(axis=2) % 2)
        total = fold_columns(bits, np.add, dtype=np.int64)
        assert total.dtype == np.int64
        assert np.array_equal(total, bits.sum(axis=2))
        assert np.array_equal(fold_columns(bits[:, :, :1], np.bitwise_or), bits[:, :, 0])

    def test_does_not_alias_its_input(self):
        bits = np.ones((3, 2), dtype=np.uint8)
        fold_columns(bits, np.bitwise_xor)[:] = 7
        assert (bits == 1).all()

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_planted_parity_fold_matches_sum_mod_two(self, k):
        # the planted sampler reads the parity of the other planted Zs this way
        z = np.random.default_rng(k).random((2000, k)) < 0.5
        odd_rest = fold_columns(z[:, 1:], np.bitwise_xor)
        assert odd_rest.dtype == bool
        assert np.array_equal(odd_rest, z[:, 1:].sum(axis=1) % 2 == 1)
