"""Experiment orchestration: determinism, summaries, bound comparison."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestofk.errors import DomainError, MismatchError
from bestofk.harness import (
    ExperimentConfig,
    compare_to_bounds,
    derived_seed,
    replicate_rng,
    run_experiment,
    summarize,
)
from bestofk.measures import FIELDS, measure_from_dict, PlantedMeasure, ProductMeasure
from bestofk.theory import BoundReport, GapProfile, upper_bound_total


def _product_config(**overrides):
    base = dict(
        measure=ProductMeasure(means=(0.9, 0.6, 0.2, 0.1)).to_dict(),
        model="semi",
        k=2,
        delta=0.1,
        algorithm="elimination",
        replicates=4,
        base_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=12,
)
MEASURE_DOCS = [
    {"type": "product", "n": 3, "means": [0.9, 0.5, 0.2]},
    {"type": "planted", "n": 5, "k": 2, "mu": 0.4, "p": 0.5, "planted_set": [1, 3]},
    {"type": "coverage", "m": 4, "sets": [[0, 1], [2], [1, 3]]},
    {"type": "joint_table", "k": 2, "probs": [0.1, 0.2, 0.3, 0.4]},
]
CONFIG_DOC = {"model": "semi", "k": 2, "delta": 0.1, "algorithm": "elimination",
              "replicates": 2, "base_seed": 0, "exact_k_mode": None, "stage_cap": 5, "out": None,
              "trace": False}


def _near(docs, **values):
    """One of ``docs`` (its keys also drawn from ``values``) with some keys dropped, some
    holding any JSON value, and maybe one more key, known elsewhere or unknown."""
    def mutate(doc, drop, new, extra):
        return {**{k: v for k, v in doc.items() if k not in drop}, **new, **extra}

    def variants(doc):
        own = st.sampled_from(sorted(doc) + sorted(values))
        other = st.sampled_from(sorted({*FIELDS, "type"})) | st.text(max_size=4)
        doc = st.fixed_dictionaries({**{k: st.just(v) for k, v in doc.items()}, **values})
        return st.builds(mutate, doc, st.sets(own, max_size=2),
                         st.dictionaries(own, JSON, max_size=2),
                         st.dictionaries(other, JSON, max_size=1))

    return st.sampled_from(docs).flatmap(variants)


class TestConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(DomainError):
            _product_config(algorithm="oracle")

    def test_parity_requires_semi(self):
        with pytest.raises(DomainError):
            _product_config(algorithm="parity", model="bandit")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("k", "2"),
            ("k", 2.0),
            ("k", True),
            ("replicates", "4"),
            ("base_seed", 1.5),
            ("stage_cap", None),
            ("delta", "0.1"),
            ("delta", False),
            ("model", 3),
            ("algorithm", None),
            ("exact_k_mode", 1),
            ("exact_k_mode", "true"),
            ("out", 5),
            ("trace", "no"),
        ],
    )
    def test_field_types_checked(self, key, value):
        with pytest.raises(DomainError, match=repr(key)):
            _product_config(**{key: value})

    def test_well_typed_fields_accepted(self, tmp_path):
        out = tmp_path / "run.jsonl"
        cfg = _product_config(k=np.int64(2), replicates=np.int64(2), base_seed=np.uint8(7),
                              stage_cap=np.int32(40), delta=1 / 8, exact_k_mode=True,
                              out=str(out))
        assert cfg.k == 2 and type(cfg.k) is int
        records, summary = run_experiment(cfg)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == len(records) + 1 == 3
        assert lines[-1] == summary.to_dict()
        assert lines[-1]["config"]["k"] == 2

    @pytest.mark.parametrize("key, value", [("stage_cap", 0), ("base_seed", -1)])
    def test_out_of_range_rejected(self, key, value):
        with pytest.raises(DomainError, match=key):
            _product_config(**{key: value})

    @pytest.mark.parametrize("algorithm", ["subset_arm", "parity"])
    def test_trace_needs_elimination(self, algorithm):
        with pytest.raises(DomainError, match="trace needs algorithm 'elimination'"):
            _product_config(algorithm=algorithm, trace=True)
        assert not _product_config(algorithm=algorithm).trace

    @pytest.mark.parametrize("algorithm", ["subset_arm", "parity"])
    @pytest.mark.parametrize("exact_k_mode", [False, True])
    def test_exact_k_mode_needs_elimination(self, algorithm, exact_k_mode):
        with pytest.raises(DomainError, match="exact_k_mode needs algorithm 'elimination'"):
            _product_config(algorithm=algorithm, exact_k_mode=exact_k_mode)
        assert _product_config(algorithm=algorithm).exact_k_mode is None

    def test_json_round_trip(self):
        cfg = _product_config()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    @settings(max_examples=100, deadline=None)
    @given(
        means=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
        data=st.data(),
        delta=st.floats(1e-6, 0.999),
        algorithm=st.sampled_from(["elimination", "subset_arm"]),
        model=st.sampled_from(["semi", "marked", "bandit"]),
        replicates=st.integers(1, 1000),
        base_seed=st.integers(0, 2**63),
        exact_k_mode=st.sampled_from([None, False, True]),
        stage_cap=st.integers(1, 60),
        out=st.one_of(st.none(), st.text(max_size=12)),
    )
    def test_json_round_trip_any_config(self, means, data, delta, algorithm, model,
                                        replicates, base_seed, exact_k_mode, stage_cap, out):
        cfg = ExperimentConfig(
            measure=ProductMeasure(means=tuple(means)).to_dict(),
            model=model,
            k=data.draw(st.integers(1, len(means))),
            delta=delta,
            algorithm=algorithm,
            replicates=replicates,
            base_seed=base_seed,
            exact_k_mode=exact_k_mode if algorithm == "elimination" else None,
            stage_cap=stage_cap,
            out=out,
            trace=algorithm == "elimination" and data.draw(st.booleans()),
        )
        text = cfg.to_json()
        again = ExperimentConfig.from_json(text)
        assert again == cfg
        assert again.to_json() == text
        assert list(json.loads(text)) == sorted(ExperimentConfig.__dataclass_fields__)

    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_json('{"measure": {}, "model": "semi", "k": 1, "delta": 0.1, "zzz": 1}')

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_json_loads_or_is_a_domain_error(self, data):
        # any root; or a well-formed config or measure document with keys dropped, keys
        # holding any JSON value and unknown keys added
        doc = data.draw(JSON | _near(MEASURE_DOCS) | _near([CONFIG_DOC], measure=_near(MEASURE_DOCS)))
        for load in (lambda: ExperimentConfig.from_json(json.dumps(doc)),
                     lambda: measure_from_dict(doc)):
            try:
                load()
            except DomainError as exc:
                assert "\n" not in str(exc)


class TestSeeding:
    def test_replicates_are_distinct_streams(self):
        a = replicate_rng(3, 0).random(4)
        b = replicate_rng(3, 1).random(4)
        assert not np.allclose(a, b)

    def test_deterministic(self):
        assert derived_seed(3, 5) == derived_seed(3, 5)
        assert (replicate_rng(3, 5).random(4) == replicate_rng(3, 5).random(4)).all()


class TestRunExperiment:
    def test_trivial_forced_answer(self):
        cfg = _product_config(
            measure=ProductMeasure(means=(0.9, 0.6)).to_dict(),
            k=2,
            replicates=1,
        )
        records, summary = run_experiment(cfg)
        assert records[0].success is True
        assert records[0].total_queries == 0
        assert summary.query_quantiles["median"] == 0.0

    def test_success_rate_summary(self):
        records, summary = run_experiment(_product_config(replicates=20))
        assert summary.replicates == 20
        assert summary.successes >= 18
        lo, hi = summary.success_ci
        assert 0.0 <= lo <= summary.success_rate <= hi <= 1.0

    def test_byte_identical_rerun(self, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        run_experiment(_product_config(out=str(out1)))
        run_experiment(_product_config(out=str(out2)))
        h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_results_file_shape(self, tmp_path):
        out = tmp_path / "r.jsonl"
        cfg = _product_config(out=str(out), replicates=3)
        run_experiment(cfg)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["trial"] * 3 + ["summary"]
        assert [l["replicate"] for l in lines[:3]] == [0, 1, 2]
        assert all("wall_time" not in l for l in lines)

    def test_trace_file(self, tmp_path):
        out = tmp_path / "r.jsonl"
        cfg = _product_config(out=str(out), trace=True, replicates=2)
        run_experiment(cfg)
        trace_lines = [json.loads(l) for l in (tmp_path / "r.jsonl.trace").read_text().splitlines()]
        assert trace_lines
        assert all(l["kind"] == "stage" for l in trace_lines)
        assert {"t", "sample_size", "queries", "mu_hat", "c_hat"} <= set(trace_lines[0])

    def test_subset_arm_and_parity_paths(self):
        planted = PlantedMeasure(4, 2, 0.5, 1.0).to_dict()
        for algorithm, model in (("subset_arm", "bandit"), ("parity", "semi")):
            cfg = ExperimentConfig(
                measure=planted, model=model, k=2, delta=0.1,
                algorithm=algorithm, replicates=3, base_seed=1,
            )
            records, summary = run_experiment(cfg)
            assert summary.replicates == 3
            assert all(r.success is not None for r in records)


# (config document, sha256 of its results file, of its .trace file or None): between
# them the three feedback models, the four measure families and the three algorithms
GOLDEN = {
    "product-semi-elimination-traced": (
        {"measure": {"type": "product", "n": 5, "means": [0.9, 0.7, 0.4, 0.2, 0.1]},
         "model": "semi", "k": 2, "delta": 0.1, "replicates": 3, "base_seed": 11, "trace": True},
        "6a07fc9a740509ee9a93c0b84a83bb38f491e461624e70b2e1b1819df83a3d63",
        "6c8242aa9e529201d86b11fd134fb1ea063db4c2eee438ce0304e88f5bd61981"),
    "planted-bandit-subset_arm": (
        {"measure": {"type": "planted", "n": 4, "k": 2, "mu": 0.5, "p": 1.0},
         "model": "bandit", "k": 2, "delta": 0.1, "algorithm": "subset_arm", "replicates": 3,
         "base_seed": 12},
        "cbd2e3e4b5172853ff7b0dc132ae6b9213110e38f5232ea42abfd2e2573c27a5", None),
    "coverage-marked-elimination": (
        {"measure": {"type": "coverage", "m": 10, "sets": [[0, 1, 2, 3], [4, 5, 6], [7], [8]]},
         "model": "marked", "k": 2, "delta": 0.1, "replicates": 3, "base_seed": 13},
        "6eaafb4d84cdf6d4aa2497b44c7d8393f5efbc619fc6ace25b7121855f95982b", None),
    "joint_table-bandit-elimination": (
        {"measure": {"type": "joint_table", "k": 3,
                     "probs": [0.2, 0.3, 0.1, 0.1, 0.05, 0.1, 0.05, 0.1]},
         "model": "bandit", "k": 1, "delta": 0.1, "replicates": 3, "base_seed": 14},
        "a17b429be410153a7b1da421e00dedd326bba1455af2abeefc129ba568cef839", None),
    "planted-semi-parity": (
        {"measure": {"type": "planted", "n": 4, "k": 2, "mu": 0.5, "p": 1.0},
         "model": "semi", "k": 2, "delta": 0.1, "algorithm": "parity", "replicates": 3,
         "base_seed": 15},
        "92670a1cb9036827a68e13d00fac36fe62f7fbfc7fe5ddde99fad4f60d609b15", None),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_bytes_are_pinned(tmp_path, name):
    # a change to what a run draws, decides or writes shows here as a new hash
    doc, results_sha, trace_sha = GOLDEN[name]
    out = tmp_path / "r.jsonl"
    run_experiment(ExperimentConfig.from_json(json.dumps({**doc, "out": str(out)})))
    written = [hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
               for path in (out, tmp_path / "r.jsonl.trace")]
    assert written == [results_sha, trace_sha]


class TestSummaries:
    def test_order_independent(self):
        cfg = _product_config(replicates=12)
        records, summary = run_experiment(cfg)
        rng = np.random.default_rng(0)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert summarize(shuffled, cfg).to_dict() == summary.to_dict()

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            summarize([], _product_config())


class TestCompareToBounds:
    def test_ratio_report(self):
        cfg = _product_config(replicates=10)
        _, summary = run_experiment(cfg)
        profile = GapProfile(means=(0.9, 0.6, 0.2, 0.1), k=2)
        bound = upper_bound_total(profile, "semi", 0.1)
        report = compare_to_bounds(summary, [bound])
        entry = report["bounds"][bound.name]
        assert entry["median_ratio"] == summary.query_quantiles["median"] / bound.value
        # observed stays below the worst-case guarantee on this easy instance
        assert entry["median_ratio"] <= 1.0

    def test_mismatched_instance(self):
        _, summary = run_experiment(_product_config(replicates=2))
        wrong = BoundReport(name="upper", inputs={"n": 9, "k": 2}, value=10.0)
        with pytest.raises(MismatchError):
            compare_to_bounds(summary, [wrong])

