"""Measure construction, sampling, exact rewards, and serialization."""

import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            1.0 - float(table.probs[0]), abs=1e-12
        )


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
    def test_all_zero_product(self):
        m = ProductMeasure(means=(0.0, 0.0, 0.0))
        rng = np.random.default_rng(0)
        assert not sample_matrix(m, rng, 100).any()

    def test_planted_parity_deterministic_at_p_one(self):
        m = PlantedMeasure(5, 3, 0.5, 1.0)
        rng = np.random.default_rng(1)
        draws = sample_matrix(m, rng, 20_000)
        parity = draws[:, list(m.planted_set)].sum(axis=1) % 2
        assert (parity == 1).all()

    def test_planted_best_always_wins(self):
        # p = 1 and mu = 1/2: the planted pair's parity is 1, so one of them reads 1
        m = PlantedMeasure(4, 2, 0.5, 1.0)
        arms = np.broadcast_to(np.asarray(m.planted_set), (10_000, 2))
        draws = sample_matrix(m, np.random.default_rng(6), 10_000, arms=arms)
        assert fold_columns(draws, np.bitwise_or).all()

    def test_coverage_frequency(self):
        m = CoverageMeasure(4, [{0, 1}, {2}])
        rng = np.random.default_rng(2)
        draws = sample_matrix(m, rng, 100_000)
        freq = draws[:, 0].mean()
        assert abs(freq - 0.5) < 0.01

    def test_product_max_monte_carlo(self):
        rng = np.random.default_rng(3)
        m = ProductMeasure(means=(0.7, 0.4, 0.2, 0.1))
        s = (0, 1, 3)
        draws = sample_matrix(m, rng, 100_000)[:, list(s)].max(axis=1)
        exact = expected_max(m, s)
        se = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(draws.mean() - exact) < 4 * se

    def test_sample_reproducible_per_seed(self):
        m = PlantedMeasure(7, 3, 0.4, 0.5)
        a = sample_matrix(m, np.random.default_rng(123), 50)
        b = sample_matrix(m, np.random.default_rng(123), 50)
        assert (a == b).all()

    def test_joint_table_sampler_frequencies(self):
        m = JointTableMeasure(k=2, probs=(0.1, 0.2, 0.3, 0.4))
        rng = np.random.default_rng(4)
        draws = sample_matrix(m, rng, 200_000)
        atom = draws[:, 0] + 2 * draws[:, 1]
        for a, p in enumerate(m.probs):
            assert abs((atom == a).mean() - p) < 4 * math.sqrt(p * (1 - p) / 200_000)


PLANTED = PlantedMeasure(7, 3, 0.4, 0.8, planted_set=(1, 3, 5))
COVERAGE = CoverageMeasure(8, [{0, 1, 2}, {2, 3}, {3, 4, 5}, {5, 6}, {6, 7, 0}, {1, 4}])
JOINT = JointTableMeasure(k=3, probs=(0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1))
PRODUCT = ProductMeasure(means=(0.7, 0.4, 0.2, 0.1, 0.55))
LAW_ROWS = 200_000


def assert_law(measure, arms, draws):
    """Each atom's frequency lies within 4 s.e. of exact_table(measure, arms)."""
    probs = exact_table(measure, arms).probs
    atoms = draws.astype(np.int64) @ (1 << np.arange(len(arms)))
    freq = np.bincount(atoms, minlength=len(probs)) / len(draws)
    se = np.sqrt(probs * (1.0 - probs) / len(draws))
    assert (np.abs(freq - probs) <= 4 * se + 1e-12).all(), (arms, freq, probs)


class TestObservedArms:
    """sample_matrix(..., arms=A): row i has the exact joint law on A[i]."""

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
        draws = sample_matrix(measure, np.random.default_rng(31), LAW_ROWS, arms=rows)
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
        draws = sample_matrix(measure, np.random.default_rng(32), LAW_ROWS, arms=rows)
        assert_law(measure, first, draws[0::2])
        assert_law(measure, second, draws[1::2])

    @pytest.mark.parametrize(
        "measure",
        [PRODUCT, COVERAGE, JOINT, PlantedMeasure(5, 3, 0.4, 0.8, planted_set=(0, 2, 4))],
        ids=["product", "coverage", "joint", "planted"],
    )
    def test_default_arms_are_all_arms(self, measure):
        everything = tuple(range(measure.n))
        full = sample_matrix(measure, np.random.default_rng(33), LAW_ROWS)
        assert full.shape == (LAW_ROWS, measure.n) and full.dtype == np.uint8
        assert_law(measure, everything, full)
        rows = np.tile(np.arange(measure.n), (LAW_ROWS, 1))
        assert_law(measure, everything,
                   sample_matrix(measure, np.random.default_rng(34), LAW_ROWS, arms=rows))

    def test_arms_shape_checked(self):
        with pytest.raises(DomainError):
            sample_matrix(PRODUCT, np.random.default_rng(0), 3, arms=np.zeros((2, 2), int))
        with pytest.raises(DomainError):
            sample_matrix(PRODUCT, np.random.default_rng(0), 3, arms=np.zeros(3, int))

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
        m=st.integers(1, 7),
        sets=st.lists(st.frozensets(st.integers(0, 6), max_size=5), min_size=1, max_size=6),
        k=st.integers(1, 3),
    )
    def test_coverage_bitmasks_match_expected_max_enumeration(self, m, sets, k):
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

    def test_coverage_tie_returns_none(self):
        # arm 0 with arm 1 or with arm 2 covers 3 of 4 elements
        m = CoverageMeasure(4, [{0, 1}, {2}, {3}, {0}])
        assert optimal_subset(m, 2) is None
        assert optimal_subset(CoverageMeasure(4, [{0, 1}, {2}, {3}, {2, 3}]), 2) == (0, 3)


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
