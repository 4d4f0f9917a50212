"""The contract every measure family keeps with the exact oracle and the document format.

Each family has one entry in ``FAMILIES``: a small fixed instance, its pinned
JSON document and a hypothesis strategy.  For every instance the exact
marginals and E[max] must agree with the oracle's enumerated joint law, and
the fixed instance must serialize to the pinned string.  A family defined in
``bestofk.measures`` without an entry here fails ``test_table_names_every_family``.
"""

import json
import math
from dataclasses import dataclass
from itertools import combinations

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
def products(draw):
    return ProductMeasure(means=tuple(draw(st.lists(unit, min_size=1, max_size=6))))


@st.composite
def planted(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, n))
    return PlantedMeasure(
        n=n, k=k, mu=draw(st.floats(0.0, 0.5, exclude_min=True)), p=draw(unit),
        planted_set=tuple(draw(st.permutations(range(n)))[:k]),
    )


@st.composite
def coverages(draw):
    m = draw(st.integers(1, 10))
    return CoverageMeasure(m, draw(st.lists(st.frozensets(st.integers(0, m - 1)),
                                          min_size=1, max_size=6)))


@st.composite
def joint_tables(draw):
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(unit, min_size=2**k, max_size=2**k).filter(any))
    return JointTableMeasure(k=k, probs=tuple(w / math.fsum(weights) for w in weights))


@dataclass(frozen=True)
class Family:
    cls: type
    instance: object
    document: str
    strategy: st.SearchStrategy


FAMILIES = {
    "product": Family(
        ProductMeasure, ProductMeasure(means=(0.1, 0.625, 1.0, 0.0)),
        '{"means": [0.1, 0.625, 1.0, 0.0], "n": 4, "type": "product"}', products(),
    ),
    "planted": Family(
        PlantedMeasure, PlantedMeasure(6, 3, 0.3, 0.7, planted_set=(4, 0, 2)),
        '{"k": 3, "mu": 0.3, "n": 6, "p": 0.7, "planted_set": [0, 2, 4], "type": "planted"}',
        planted(),
    ),
    "coverage": Family(
        CoverageMeasure, CoverageMeasure(6, [{0, 1}, {4, 2}, set(), {5, 1, 3}, {0, 2, 4}]),
        '{"m": 6, "n": 5, "sets": [[0, 1], [2, 4], [], [1, 3, 5], [0, 2, 4]],'
        ' "type": "coverage"}',
        coverages(),
    ),
    "joint_table": Family(
        JointTableMeasure,
        JointTableMeasure(k=3, probs=(0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1)),
        '{"k": 3, "n": 3, "probs": [0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1],'
        ' "type": "joint_table"}',
        joint_tables(),
    ),
}


def assert_exact_values_match_oracle(measure):
    means = measure.marginals()
    assert len(means) == measure.n
    for i in range(measure.n):
        assert abs(means[i] - exact_table(measure, (i,)).mean(0)) <= TOL, i
    for size in range(1, measure.n + 1):
        for s in combinations(range(measure.n), size):
            oracle = 1.0 - float(exact_table(measure, s).probs[0])
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

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_drawn_instances_match_oracle(self, name, data):
        measure = data.draw(FAMILIES[name].strategy)
        assert_exact_values_match_oracle(measure)
        assert measure_from_dict(json.loads(json.dumps(measure.to_dict()))) == measure
