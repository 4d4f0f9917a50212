"""Experiment orchestration: determinism, summaries, bound comparison."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bestofk
from bestofk import harness, measures
from bestofk.baselines import parity_identify, subset_arm_identify
from bestofk.cli import EXIT_OK, EXIT_USAGE, main
from bestofk.elimination import _undecidable_stages, run_identification
from bestofk.errors import DomainError, MismatchError
from bestofk.harness import (
    ExperimentConfig,
    _quantile,
    _write_stage_trace,
    compare_to_bounds,
    replicate_rng,
    run_experiment,
    summarize,
)
from bestofk.measures import FIELDS, document, measure_from_dict, PlantedMeasure, ProductMeasure
from bestofk.theory import BoundReport, GapProfile, upper_bound_total
from bestofk.trial import StageRecord, TrialRecord

PERFBENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's named workloads, from ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module.WORKLOADS


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
        again = ExperimentConfig.from_json(json.dumps(document(cfg), sort_keys=True))
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
        text = json.dumps(document(cfg), sort_keys=True)
        again = ExperimentConfig.from_json(text)
        assert again == cfg
        assert json.dumps(document(again), sort_keys=True) == text
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
        assert (replicate_rng(3, 5).random(4) == replicate_rng(3, 5).random(4)).all()

    def test_record_seed_is_the_first_word_of_the_replicate_seed_sequence(self):
        cfg = _product_config(replicates=3, base_seed=4)
        records, _ = run_experiment(cfg)
        for r, rec in enumerate(records):
            words = np.random.SeedSequence([4, r]).generate_state(1, np.uint64)
            assert rec.seed == int(words[0])


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
        records, _ = run_experiment(cfg)
        trace_lines = [json.loads(l) for l in (tmp_path / "r.jsonl.trace").read_text().splitlines()]
        assert trace_lines
        assert all(l["kind"] == "stage" for l in trace_lines)
        assert {"t", "sample_size", "queries", "mu_hat", "c_hat"} <= set(trace_lines[0])
        assert len(trace_lines) == sum(len(r.stage_log) for r in records)
        # untraced, the records keep no stage log
        untraced, _ = run_experiment(_product_config(replicates=2))
        assert [r.stage_log for r in untraced] == [(), ()]
        assert [r.stages for r in untraced] == [r.stages for r in records]

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

    @pytest.mark.parametrize("measure, lines", [
        # the best pairs tie, and so do the three largest marginals
        ({"type": "coverage", "m": 8,
          "sets": [[0, 1, 2], [2, 3], [3, 4, 5], [5, 6], [6, 7, 0], [1]]},
         ["warning: no unique best 2-subset is known, so no replicate is scored",
          "warning: the arm marginals ranked 2 and 3 tie at 0.375, so elimination may return "
          "another subset than the optimum or stop only at its stage cap"]),
        # every planted marginal is mu: only co-queried pairs separate the arms
        ({"type": "planted", "n": 6, "k": 2, "mu": 0.4, "p": 0.9},
         ["warning: the arm marginals ranked 2 and 3 tie at 0.4, so elimination may return "
          "another subset than the optimum or stop only at its stage cap"]),
    ], ids=["coverage-tied-optimum", "planted"])
    def test_doubtful_runs_warn_before_the_first_replicate(self, capsys, monkeypatch, measure,
                                                           lines):
        stderr_at_replicate = []

        def identify(*args):
            stderr_at_replicate.append(capsys.readouterr().err)
            return run_identification(*args)

        monkeypatch.setattr(harness, "run_identification", identify)
        run_experiment(ExperimentConfig(measure=measure, model="marked", k=2, delta=0.1,
                                        replicates=2, stage_cap=4))
        assert [err.splitlines() for err in stderr_at_replicate] == [lines, []]
        assert capsys.readouterr().err == ""

    def test_workload_configs_do_not_warn(self, capsys, workloads):
        for workload in workloads.values():
            run_experiment(ExperimentConfig(**workload.config_doc(1, replicates=1)))
            assert capsys.readouterr().err == "", workload.name

    @pytest.mark.parametrize("where, trace, message", [
        ("missing/r.jsonl", False, "{tmp}/missing/r.jsonl: {tmp}/missing is not a directory"),
        ("file/r.jsonl", False, "{tmp}/file/r.jsonl: {tmp}/file is not a directory"),
        ("dir", False, "{tmp}/dir: it is a directory"),
        ("dir", True, "{tmp}/dir: it is a directory"),
        ("r.jsonl", True, "{tmp}/r.jsonl.trace: it is a directory"),
    ])
    def test_unusable_output_path_fails_before_any_replicate(self, tmp_path, monkeypatch,
                                                               where, trace, message):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        (tmp_path / "r.jsonl.trace").mkdir()  # in the way of a traced run's stage trace
        monkeypatch.setattr(harness, "run_identification", None)  # a replicate would fail
        with pytest.raises(DomainError) as caught:
            run_experiment(_product_config(out=str(tmp_path / where), trace=trace))
        assert str(caught.value) == "cannot write results to " + message.format(tmp=tmp_path)
        assert not (tmp_path / "r.jsonl").exists()


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
    # its stages 1-5 cannot drop a subset, so they take their doubles undrawn
    "product-bandit-subset_arm": (
        {"measure": {"type": "product", "n": 5, "means": [0.9, 0.7, 0.4, 0.2, 0.1]},
         "model": "bandit", "k": 2, "delta": 0.1, "algorithm": "subset_arm", "replicates": 3,
         "base_seed": 16},
        "4fb8659258768973de748fbe1b31d620c8146589b480efbd78c6e1c1eea229c9", None),
    "planted-semi-parity": (
        {"measure": {"type": "planted", "n": 4, "k": 2, "mu": 0.5, "p": 1.0},
         "model": "semi", "k": 2, "delta": 0.1, "algorithm": "parity", "replicates": 3,
         "base_seed": 15},
        "92670a1cb9036827a68e13d00fac36fe62f7fbfc7fe5ddde99fad4f60d609b15", None),
    # stages 13-14 run 8192 and 16384 plays, so each spans several stage chunks,
    # on pools whose last block is padded
    "product-semi-chunks": (
        {"measure": {"type": "product", "n": 5, "means": [0.6, 0.5, 0.5, 0.5, 0.2]},
         "model": "semi", "k": 2, "delta": 0.1, "replicates": 2, "base_seed": 21,
         "stage_cap": 14, "trace": True},
        "ff361ea4d91669751d934f3f965e618ad21f4c51c5959df91f7cd88ae3b7da88",
        "c9063b88117b7e476f5d39109aa9568a2220904c989973fe378fa298e39bf1c1"),
    "coverage-marked-chunks": (
        {"measure": {"type": "coverage", "m": 100,
                     "sets": [list(range(40)), list(range(40, 70)), list(range(70, 99)),
                              list(range(20)) + list(range(70, 80)), [99]]},
         "model": "marked", "k": 2, "delta": 0.1, "replicates": 2, "base_seed": 22,
         "stage_cap": 14},
        "d769a0f138067044b55aef58b4f0961c11ba206ff09403a98a8068729cc1a21e", None),
    # the last two stages balance 3 rejected arms into a 5-arm pool and top
    # every 2-arm block off with one more arm
    "product-bandit-chunks": (
        {"measure": {"type": "product", "n": 11, "means": [0.6, 0.6, 0.3, 0.3] + [0.05] * 7},
         "model": "bandit", "k": 3, "delta": 0.1, "replicates": 1, "base_seed": 23,
         "stage_cap": 14, "trace": True},
        "3d1e57f9fef2f0417f8fbf4d8be3011fb35c48eb9a94e121c660aa9c4f423151",
        "20f52403ad09aa2270a2278b0c492169aab5edc4a8ad96c138462d751d2cd68c"),
    # the subset-planted-n8 benchmark config: 28 subset arms, planted draws of
    # up to 14,336 rows
    "planted-bandit-subset_arm-n8": (
        {"measure": {"type": "planted", "n": 8, "k": 2, "mu": 0.5, "p": 1.0},
         "model": "bandit", "k": 2, "delta": 0.1, "algorithm": "subset_arm", "replicates": 2,
         "base_seed": 24},
        "e7fb4985ca9bece6b2b44a28b224ff903b8ec552a1ceadb82dfef5b45c0695e7", None),
    # p < 1 and mu < 1/2: Y = 0 rows and the planted threshold 2*mu < 1 both
    # reach the results, on a planted set that is not arms 0..k-1
    "planted-bandit-subset_arm-threshold": (
        {"measure": {"type": "planted", "n": 6, "k": 2, "mu": 0.45, "p": 0.8,
                     "planted_set": [1, 4]},
         "model": "bandit", "k": 2, "delta": 0.1, "algorithm": "subset_arm", "replicates": 2,
         "base_seed": 31, "stage_cap": 12},
        "81830c738e25a07e9993903415e9e80195359feb931c439e61d610c12574a811", None),
    # planted draws of up to 8192 rows inside stage chunks; planted runs can
    # stall, and this one decides no arm before the cap ends it
    "planted-marked-elimination": (
        {"measure": {"type": "planted", "n": 6, "k": 3, "mu": 0.3, "p": 1.0,
                     "planted_set": [1, 3, 4]},
         "model": "marked", "k": 3, "delta": 0.1, "replicates": 2, "base_seed": 25,
         "stage_cap": 12, "trace": True},
        "bbeab980f82d4f168668bdfa4f657d4e8c030f69d04f6b6bef16f63d3155e95d",
        "45c91fd5f32bbce212e5689d78f855eb875bbec0979df5d35be89e0766799760"),
    # the traced benchmark workload's family and model on 12 arms, so trace
    # objects hold keys "10" and "11"; replicate 0's last stage tops off a
    # 2-arm pool with one accepted arm
    "coverage-marked-elimination-traced": (
        {"measure": {"type": "coverage", "m": 40,
                     "sets": [list(range(10)), list(range(10, 20)), list(range(20, 30)),
                              [30, 31, 32, 33, 34], [33, 34, 35, 36], [35, 36, 37, 38, 39],
                              [30, 32, 34, 36], [31, 33, 35], [37, 38, 39], [30, 39],
                              [31, 32, 33], [38]]},
         "model": "marked", "k": 3, "delta": 0.1, "replicates": 3, "base_seed": 26,
         "stage_cap": 12, "trace": True},
        "90e6a1516c8e06aa8de8c8cb99a92bc9a2a0d2a56a404fcce50172416d121418",
        "e836940dfcd78de2f6d62a1b5e9b26d4f893017024c51ab3420d6fff92c72f3d"),
    # untraced elimination on product and planted measures takes its leading
    # undecidable stages undrawn; these pin that path to the drawn run's bytes.
    # The bandit-product-n12 benchmark config: stages 1-5 undrawn, then
    # balancing and exact-k top-off
    "product-bandit-elimination-n12": (
        {"measure": {"type": "product", "n": 12, "means": [0.8, 0.7, 0.6] + [0.3] * 9},
         "model": "bandit", "k": 3, "delta": 0.1, "replicates": 3, "base_seed": 27},
        "7ebcc6f5ca4502781b10402ddb661eb6c7d42cd265ae6495c1f2a354c6a7e37c", None),
    # planted-marked-elimination untraced: the results file is the traced run's
    "planted-marked-elimination-untraced": (
        {"measure": {"type": "planted", "n": 6, "k": 3, "mu": 0.3, "p": 1.0,
                     "planted_set": [1, 3, 4]},
         "model": "marked", "k": 3, "delta": 0.1, "replicates": 2, "base_seed": 25,
         "stage_cap": 12},
        "bbeab980f82d4f168668bdfa4f657d4e8c030f69d04f6b6bef16f63d3155e95d", None),
    # semi with exact-k queries: replicate 0's last stage tops off a 2-arm pool
    "product-semi-elimination-exact_k": (
        {"measure": {"type": "product", "n": 7, "means": [0.9, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1]},
         "model": "semi", "k": 3, "delta": 0.1, "replicates": 3, "base_seed": 28,
         "exact_k_mode": True},
        "7f05fc0112ae64ebbbdf7cccbf5291f28837d88fa7e8be011965e4ba2938e339", None),
    # coverage draws under the semi and bandit recorders: stages 1-9 pad a
    # 5-arm pool's last block, the stages after the first accept top it off
    "coverage-semi-elimination-exact_k": (
        {"measure": {"type": "coverage", "m": 10,
                     "sets": [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9], [0, 1, 2], [9], [4, 5]]},
         "model": "semi", "k": 2, "delta": 0.1, "replicates": 3, "base_seed": 17,
         "stage_cap": 12, "exact_k_mode": True, "trace": True},
        "62e86edbcbdf54d21ab5d91a7e2096597c7b26bcb838446c270ee0d7f4e6a8c4",
        "20f971d8c98f88808cb962de2dd6d681223572282cc3856d29538da923107e52"),
    # 8 arms with k = 2: balancing and exact-k top-off
    "coverage-bandit-elimination": (
        {"measure": {"type": "coverage", "m": 20,
                     "sets": [list(range(8)), list(range(8, 14)), [14, 15], [16], [17], [18],
                              [19], [0]]},
         "model": "bandit", "k": 2, "delta": 0.1, "replicates": 3, "base_seed": 18,
         "stage_cap": 12},
        "94b337361ca456d79a1f6ab034ed423305dd48f3cd63845d5e5cb7c41fc12187", None),
}


def _written_hashes(doc, where):
    """Run config document ``doc`` with its results in directory ``where``; return
    the sha256 of the results file and of the .trace file, or None for no file."""
    out = where / "r.jsonl"
    run_experiment(ExperimentConfig.from_json(json.dumps({**doc, "out": str(out)})))
    return [hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
            for path in (out, where / "r.jsonl.trace")]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_bytes_are_pinned(tmp_path, name):
    # a change to what a run draws, decides or writes shows here as a new hash
    doc, results_sha, trace_sha = GOLDEN[name]
    assert _written_hashes(doc, tmp_path) == [results_sha, trace_sha]


# the benchmark workloads at seed 1: sha256 of the results file and of the .trace
# file or None, then `bestofk bounds` on the config: its exit code and the sha256
# of its stdout (coverage has no closed-form bounds, so one error line and none)
WORKLOAD_PINS = {
    "semi-product-n256": (
        "d96d7efb486da920eeee1bd7e488586374ae0d6c6ed50bca870a24b504e4fe38", None,
        EXIT_OK, "b1d5606a0a23335862396a7db84c71e6af87a6450098403df3f0594b49d2bbf4"),
    "bandit-product-n12": (
        "4d2a9908313654b063a2fa8ed494cb309f281615b403e1a460b7e8f9a8b361af", None,
        EXIT_OK, "5dbd390c55932526ff3613d3440ecadf745fa8b684746150f2d71c8b6494039d"),
    "marked-coverage-n64": (
        "924f338db8e1926f5916ffd7cf5eae82b69eff76e32d5aed54183d701ff1c34c",
        "2a0d9d4f4eab0abc33c3152dfb564cbb98345cc21b58a5b93c4a5f4cd9470410",
        EXIT_USAGE, hashlib.sha256(b"").hexdigest()),
    "subset-planted-n8": (
        "dbb6aa63d45b6de3ec40ecd208a234abc9de8205cbb0e4a8c9dafee0ec898f53", None,
        EXIT_OK, "4db40e9bb21a9a518c88b477a46f18945a5e483b767e1353bc7f3611bf08da18"),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_PINS))
def test_workload_outputs_are_pinned(tmp_path, capsys, workloads, name):
    results_sha, trace_sha, bounds_exit, bounds_sha = WORKLOAD_PINS[name]
    doc = workloads[name].config_doc(1)
    assert _written_hashes(doc, tmp_path) == [results_sha, trace_sha]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["bounds", "--config", str(config)]) == bounds_exit
    printed = capsys.readouterr()
    assert hashlib.sha256(printed.out.encode()).hexdigest() == bounds_sha
    errors = printed.err.splitlines()
    assert len(errors) == (bounds_exit != EXIT_OK), printed.err
    assert all(line.startswith("error: ") for line in errors), printed.err


@pytest.fixture
def workload_hashes_tool(monkeypatch):
    tool = Path(__file__).resolve().parents[1] / "tools" / "workload_hashes.py"
    spec = importlib.util.spec_from_file_location("workload_hashes", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "path", sys.path[:])
    # the tool registers the workloads module it loads; the patch removes it afterwards
    monkeypatch.setitem(sys.modules, "perfbench_workloads", None)
    return module


def test_workload_hashes_tool_prints_the_seed_one_pins(workload_hashes_tool, capsys):
    capsys.readouterr()
    workload_hashes_tool.main(["1"])
    assert json.loads(capsys.readouterr().out) == {
        name: {"1": [results_sha, trace_sha]}
        for name, (results_sha, trace_sha, _, _) in WORKLOAD_PINS.items()}


def test_workload_hashes_tool_runs_elimination_workloads_under_every_model(
        workload_hashes_tool):
    configs = list(workload_hashes_tool._configs(all_models=True))
    assert [key for key, _, _ in configs] == list(WORKLOAD_PINS) + [
        "semi-product-n256/bandit", "semi-product-n256/marked",
        "bandit-product-n12/marked", "bandit-product-n12/semi",
        "marked-coverage-n64/bandit", "marked-coverage-n64/semi"]
    assert [key for key, _, _ in workload_hashes_tool._configs(all_models=False)] == list(
        WORKLOAD_PINS)


def _reference_trace_line(stage, replicate):
    """A stage's trace line as the dict-shaped record wrote it: ``undecided`` a
    count and ``mu_hat``/``c_hat`` ``{arm: value}`` dicts, dumped with sorted keys."""
    doc = {"kind": "stage", "replicate": replicate}
    for f in dataclasses.fields(stage):
        if not f.compare:
            continue
        value = getattr(stage, f.name)
        if f.name in ("mu_hat", "c_hat"):
            value = {str(arm): v for arm, v in zip(stage.undecided, value.tolist())}
        elif f.name == "undecided":
            value = len(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value
    return json.dumps(doc, sort_keys=True)


@st.composite
def _traced_configs(draw):
    """Small traced elimination configs over every family and feedback model."""
    family = draw(st.sampled_from(["product", "planted", "coverage", "joint_table"]))
    if family == "product":
        n = draw(st.integers(2, 14))
        means = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.8, 0.95]),
                              min_size=n, max_size=n))
        measure = {"type": "product", "means": means}
    elif family == "planted":
        n = draw(st.integers(2, 14))
        measure = {"type": "planted", "n": n, "k": draw(st.integers(2, min(n, 4))),
                   "mu": draw(st.sampled_from([0.2, 0.5])), "p": draw(st.sampled_from([0.5, 1.0]))}
    elif family == "coverage":
        n, m = draw(st.integers(2, 14)), draw(st.integers(2, 12))
        sets = draw(st.lists(st.lists(st.integers(0, m - 1), max_size=m, unique=True).map(sorted),
                             min_size=n, max_size=n))
        measure = {"type": "coverage", "m": m, "sets": sets}
    else:
        n = draw(st.integers(1, 4))
        weights = draw(st.lists(st.integers(0, 3), min_size=2**n, max_size=2**n).filter(any))
        measure = {"type": "joint_table", "k": n, "probs": [w / sum(weights) for w in weights]}
    return {"measure": measure, "model": draw(st.sampled_from(["semi", "bandit", "marked"])),
            "k": draw(st.integers(1, n)), "delta": 0.1,
            "exact_k_mode": draw(st.sampled_from([None, True, False])),
            "stage_cap": draw(st.integers(1, 12)), "replicates": draw(st.integers(1, 2)),
            "base_seed": draw(st.integers(0, 1000)), "trace": True}


# traced configs whose stages hold pools of 11 or more arms, balancing stages
# and top-off stages (checked by test_examples_reach_wide_balancing_and_topoff_stages)
TRACE_EXAMPLES = [
    {"measure": {"type": "product", "means": [0.7, 0.5, 0.35, 0.3] + [0.05] * 8},
     "model": "bandit", "k": 3, "delta": 0.1, "exact_k_mode": None, "stage_cap": 13,
     "replicates": 2, "base_seed": 3, "trace": True},
    {"measure": {"type": "coverage", "m": 12,
                 "sets": [[0, 1, 2, 3], [4, 5, 6, 7], [8], [9], [10], [11], [8, 9], [10, 11],
                          [], [9, 10], [8, 11], [0]]},
     "model": "marked", "k": 2, "delta": 0.1, "exact_k_mode": None, "stage_cap": 12,
     "replicates": 2, "base_seed": 4, "trace": True},
]


def _traced_run(doc):
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "r.jsonl"
        records, _ = run_experiment(ExperimentConfig.from_json(json.dumps({**doc, "out": str(out)})))
        return records, Path(f"{out}.trace").read_text().splitlines()


class TestStageTrace:
    @settings(max_examples=60, deadline=None)
    @given(_traced_configs())
    @example(TRACE_EXAMPLES[0])
    @example(TRACE_EXAMPLES[1])
    def test_lines_equal_the_dict_shaped_dump(self, doc):
        env = measure_from_dict(doc["measure"])
        assume(not (doc["model"] == "bandit" and max(env.marginals()) >= 1.0))
        records, lines = _traced_run(doc)
        assert lines == [_reference_trace_line(stage, rec.replicate)
                         for rec in records for stage in rec.stage_log]
        for stage in (stage for rec in records for stage in rec.stage_log):
            for values in (stage.mu_hat, stage.c_hat):
                assert values.dtype == np.float64 and values.shape == (len(stage.undecided),)
                with pytest.raises(ValueError):
                    values[0] = 0.5
        # each stage partitions the arms, and the stages chain into the answer
        for rec in records:
            accepted = []
            for stage, after in zip(rec.stage_log, rec.stage_log[1:] + (None,)):
                assert len(stage.undecided) + stage.accepted + stage.rejected == env.n
                now_a, now_r = set(stage.accepted_now), set(stage.rejected_now)
                assert now_a | now_r <= set(stage.undecided) and not now_a & now_r
                if after is not None:
                    assert after.undecided == tuple(
                        a for a in stage.undecided if a not in now_a | now_r)
                    assert after.accepted == stage.accepted + len(now_a)
                accepted += stage.accepted_now
            forced = doc["k"] == env.n  # the answer needs no stage
            assert rec.returned == (tuple(range(env.n)) if forced else tuple(sorted(accepted)))

    def test_examples_reach_wide_balancing_and_topoff_stages(self):
        stages = [(doc["k"], stage) for doc in TRACE_EXAMPLES
                  for rec in _traced_run(doc)[0] for stage in rec.stage_log]
        assert any(len(stage.undecided) >= 11 for _, stage in stages)
        assert any(stage.balancing > 0 for _, stage in stages)
        # exact-k mode (on by default for both) tops off stages with |U| < k
        assert any(len(stage.undecided) < k for k, stage in stages)

    def test_floats_are_formatted_as_json_writes_them(self, tmp_path):
        # signed zeros, non-finite values and subnormals, on arms that sort
        # differently as strings
        arms = (2, 3, 10, 11, 100)
        mu = np.array([0.0, -0.0, math.nan, math.inf, 5e-324])
        c = np.array([-0.0, 0.0, -math.inf, 0.1, 1 / 3])
        stage = StageRecord(t=1, undecided=arms, accepted=0, rejected=0, balancing=0,
                            sample_size=2, queries=6, mu_hat=mu, c_hat=c, accepted_now=(10, 2),
                            rejected_now=())
        later = dataclasses.replace(stage, t=2, mu_hat=c, c_hat=mu, rejected_now=(3,))
        records = [TrialRecord(returned=(), total_queries=6, stages=2, replicate=1,
                               stage_log=(stage, later)),
                   TrialRecord(returned=(), total_queries=6, stages=1, stage_log=(later,))]
        path = tmp_path / "t.trace"
        _write_stage_trace(path, records)
        # records are written in the order given, a record without a replicate too
        assert path.read_text().splitlines() == [
            _reference_trace_line(stage, 1), _reference_trace_line(later, 1),
            _reference_trace_line(later, None)]


def _replayed(config, replicate):
    """Replicate ``replicate`` of ``config`` run alone, with the arguments and
    generator ``run_experiment`` gives it."""
    env, rng = measure_from_dict(config.measure), replicate_rng(config.base_seed, replicate)
    if config.algorithm == "elimination":
        return run_identification(env, config.model, config.k, config.delta, rng,
                                  config.stage_cap, config.exact_k_mode, keep_log=config.trace)
    identify = subset_arm_identify if config.algorithm == "subset_arm" else parity_identify
    return identify(env, config.k, config.delta, rng, config.stage_cap)


def test_a_replicate_run_alone_equals_the_full_runs(workloads, monkeypatch):
    # the process holds buffers and caches across replicates and runs; a
    # replicate replayed after a full run of another workload, and again
    # with all of them emptied, must give the full run's record and stages
    configs = {name: ExperimentConfig.from_json(json.dumps(w.config_doc(1, replicates=4)))
               for name, w in workloads.items()}
    full = {name: run_experiment(config)[0] for name, config in configs.items()}

    def check(name, replicate):
        expected, replayed = full[name][replicate], _replayed(configs[name], replicate)
        assert replayed == dataclasses.replace(expected, replicate=None, seed=None,
                                               success=None), (name, replicate)
        assert ([_reference_trace_line(s, None) for s in replayed.stage_log]
                == [_reference_trace_line(s, None) for s in expected.stage_log]), (name, replicate)

    assert configs["marked-coverage-n64"].trace and full["marked-coverage-n64"][0].stage_log
    for name in configs:
        for other in (other for other in configs if other != name):
            run_experiment(configs[other])
            for replicate in (0, 1, 3):
                check(name, replicate)
    monkeypatch.setattr(measures, "_HELD", {})
    for name in configs:
        _undecidable_stages.cache_clear()
        measures._enumerate_subsets.cache_clear()
        check(name, 0)


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

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 2**53), min_size=1, max_size=400),
           st.sampled_from([0.25, 0.5, 0.75]))
    # lerps that round differently from the lower and from the upper neighbour
    @example([1148493424279937, 8207510602717851], 0.75)
    @example([2483489042880027, 8886484651386817], 0.25)
    def test_quantile_equals_numpy_bit_for_bit(self, values, q):
        ordered = sorted(values)
        assert _quantile(ordered, q).hex() == float(np.quantile(ordered, q)).hex()

    def test_a_run_does_not_import_numpy_ma(self):
        # np.quantile imports numpy.ma (through np.unique) in a fresh process
        script = (
            "import sys\n"
            "from bestofk.harness import ExperimentConfig, run_experiment\n"
            "run_experiment(ExperimentConfig.from_json(sys.argv[1]))\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        src = str(Path(bestofk.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        config = json.dumps(document(_product_config()), sort_keys=True)
        subprocess.run([sys.executable, "-c", script, config],
                       env=env, timeout=60, check=True)


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

