"""The contract every measure family keeps with the exact oracle and the document format.

Each family has one entry in ``FAMILIES``: a small fixed instance, its pinned
JSON document, a hypothesis strategy (and one for up to 8 arms) and a
reference that computes its exact law another way.  For every
instance the exact marginals and E[max] must agree with the oracle's joint
law, the law must agree with the reference, and the fixed instance must
serialize to the pinned string.  A family defined in
``bestofk.measures`` without an entry here fails ``test_table_names_every_family``.
"""

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestofk import measures
from bestofk.measures import (
    CoverageMeasure,
    JointTableMeasure,
    PlantedMeasure,
    ProductMeasure,
    expected_max,
    measure_from_dict,
)
from bestofk.oracle import exact_table

TOL = 1e-12
unit = st.floats(0.0, 1.0)


@st.composite
def products(draw, n_max=6):
    return ProductMeasure(means=tuple(draw(st.lists(unit, min_size=1, max_size=n_max))))


@st.composite
def planted(draw, n_max=6):
    n = draw(st.integers(2, n_max))
    k = draw(st.integers(2, n))
    return PlantedMeasure(
        n=n, k=k, mu=draw(st.floats(0.0, 0.5, exclude_min=True)), p=draw(unit),
        planted_set=tuple(draw(st.permutations(range(n)))[:k]),
    )


@st.composite
def coverages(draw, n_max=6):
    m = draw(st.integers(1, 10))
    return CoverageMeasure(m, draw(st.lists(st.frozensets(st.integers(0, m - 1)),
                                          min_size=1, max_size=n_max)))


@st.composite
def joint_tables(draw, n_max=4):
    k = draw(st.integers(1, n_max))
    weights = draw(st.lists(unit, min_size=2**k, max_size=2**k).filter(any))
    return JointTableMeasure(k=k, probs=tuple(w / math.fsum(weights) for w in weights))


def product_table(means) -> np.ndarray:
    """Dense product law; concat order makes atom bit b track variable b."""
    probs = np.ones(1)
    for m in means:
        probs = np.concatenate([probs * (1.0 - m), probs * m])
    return probs


def planted_latent_law(measure, arms) -> np.ndarray:
    """Enumerate the planted latents.

    The effective Z vector over the planted set is uniform on {0,1}^k when
    Y=0 and uniform on the odd-parity strings when Y=1; given Z, the
    requested arms are independent with means Z_i * 2*mu (planted) or mu
    (outside), so each latent configuration contributes one product table.
    """
    mu, p, k = measure.mu, measure.p, measure.k
    planted_pos = {a: j for j, a in enumerate(measure.planted_set)}
    probs = np.zeros(2 ** len(arms))
    for z_code in range(2**k):
        odd = bin(z_code).count("1") % 2 == 1
        # Y=0 weight is uniform over all strings; Y=1 only over odd parity
        w = (1.0 - p) * 2.0**-k + (p * 2.0 ** -(k - 1) if odd else 0.0)
        probs += w * product_table([
            (2.0 * mu if (z_code >> planted_pos[a]) & 1 else 0.0) if a in planted_pos else mu
            for a in arms
        ])
    return probs


def coverage_counted_law(measure, arms) -> np.ndarray:
    """Count the universe elements at each atom."""
    counts = np.zeros(2 ** len(arms))
    for omega in range(measure.m):
        counts[sum(1 << b for b, a in enumerate(arms) if omega in measure.sets[a])] += 1
    return counts / measure.m


@dataclass(frozen=True)
class Family:
    cls: type
    instance: object
    document: str
    strategy: st.SearchStrategy
    wide_strategy: st.SearchStrategy  # instances of up to 8 arms
    reference: Callable  # (measure, arms) -> the law of arms, by another route


FAMILIES = {
    "product": Family(
        ProductMeasure, ProductMeasure(means=(0.1, 0.625, 1.0, 0.0)),
        '{"means": [0.1, 0.625, 1.0, 0.0], "n": 4, "type": "product"}', products(),
        products(n_max=8), lambda m, arms: product_table([m.means[a] for a in arms]),
    ),
    "planted": Family(
        PlantedMeasure, PlantedMeasure(6, 3, 0.3, 0.7, planted_set=(4, 0, 2)),
        '{"k": 3, "mu": 0.3, "n": 6, "p": 0.7, "planted_set": [0, 2, 4], "type": "planted"}',
        planted(), planted(n_max=8), planted_latent_law,
    ),
    "coverage": Family(
        CoverageMeasure, CoverageMeasure(6, [{0, 1}, {4, 2}, set(), {5, 1, 3}, {0, 2, 4}]),
        '{"m": 6, "n": 5, "sets": [[0, 1], [2, 4], [], [1, 3, 5], [0, 2, 4]],'
        ' "type": "coverage"}',
        coverages(), coverages(n_max=8), coverage_counted_law,
    ),
    "joint_table": Family(
        JointTableMeasure,
        JointTableMeasure(k=3, probs=(0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1)),
        '{"k": 3, "n": 3, "probs": [0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1],'
        ' "type": "joint_table"}',
        joint_tables(), joint_tables(n_max=8),
        # the family marginalizes its table; the reference expands its point masses
        measures.Measure.exact_probs,
    ),
}


def assert_exact_values_match_oracle(measure):
    means = measure.marginals()
    assert len(means) == measure.n
    for i in range(measure.n):
        assert abs(means[i] - exact_table(measure, (i,))[1]) <= TOL, i
    for size in range(1, measure.n + 1):
        for s in combinations(range(measure.n), size):
            oracle = 1.0 - float(exact_table(measure, s)[0])
            assert abs(expected_max(measure, s) - oracle) <= TOL, s


def test_table_names_every_family():
    defined = {
        obj for name, obj in vars(measures).items()
        if isinstance(obj, type) and obj.__module__ == measures.__name__
        and name.endswith("Measure") and name != "Measure"
    }
    assert defined == {family.cls for family in FAMILIES.values()}


@pytest.mark.parametrize("name", FAMILIES)
class TestFamilyContract:
    def test_instance_is_of_its_family(self, name):
        assert type(FAMILIES[name].instance) is FAMILIES[name].cls

    def test_exact_values_match_oracle(self, name):
        assert_exact_values_match_oracle(FAMILIES[name].instance)

    def test_document_is_pinned(self, name):
        family = FAMILIES[name]
        assert json.dumps(family.instance.to_dict(), sort_keys=True) == family.document
        assert measure_from_dict(json.loads(family.document)) == family.instance

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exact_law_matches_reference(self, name, data):
        measure = data.draw(FAMILIES[name].wide_strategy)
        arms = tuple(data.draw(st.permutations(range(measure.n)))[:data.draw(
            st.integers(0, measure.n))])
        law = measure.exact_probs(arms)
        reference = FAMILIES[name].reference(measure, arms)
        if name == "product":
            assert np.array_equal(law, reference)
        else:
            assert np.max(np.abs(law - reference)) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_drawn_instances_match_oracle(self, name, data):
        measure = data.draw(FAMILIES[name].strategy)
        assert_exact_values_match_oracle(measure)
        assert measure_from_dict(json.loads(json.dumps(measure.to_dict()))) == measure
