"""The names the benchmark (``perfbench/``) reads or patches still exist.

``perfbench/tracer.py`` wraps the functions in its ``TARGETS`` and binds the
arguments of a few of them by name; ``perfbench/experiment.py`` patches a few
harness names to mark the replicate loop and reads a few fields.  A rename
here would otherwise only surface when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from bestofk import baselines, elimination, harness, kernels
from bestofk.measures import PlantedMeasure, ProductMeasure
from bestofk.trial import TrialRecord

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# layer -> the arguments the tracer's counters read from its bound call
BOUND_ARGUMENTS = {
    "elimination.stage_play": ("plays", "k1", "k2"),
    "baselines.subset_arm_identify": ("k",),
    "kernels.record_plays": ("bits",),
    "harness.write_results": ("path",),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, func", tracer.TARGETS, ids=lambda v: v)
def test_every_target_is_a_function(module, func):
    assert inspect.isfunction(getattr(importlib.import_module(module), func))


def test_bound_arguments_exist():
    assert set(tracer._BIND_ARGS) == set(BOUND_ARGUMENTS)
    targets = {tracer.layer_name(m, f): (m, f) for m, f in tracer.TARGETS}
    for layer, names in BOUND_ARGUMENTS.items():
        module, func = targets[layer]
        params = inspect.signature(getattr(importlib.import_module(module), func)).parameters
        assert set(names) <= set(params), (layer, names, list(params))


def test_names_the_experiment_script_reads():
    for name in ("replicate_rng", "optimal_subset", "summarize", "run_experiment"):
        assert inspect.isfunction(getattr(harness, name)), name
    assert callable(harness.ExperimentConfig.from_json)
    assert kernels.active_backend() in ("numpy", "numba")
    assert {"wall_time", "total_queries", "stages"} <= set(TrialRecord.__dataclass_fields__)
    # the copies the tracer must find in the modules that call them
    assert elimination.sample_matrix is baselines.sample_matrix
    assert elimination.record_plays is kernels.record_plays
    assert harness.run_identification is elimination.run_identification


@pytest.mark.parametrize("algorithm, measure", [
    ("elimination", ProductMeasure(means=(0.9, 0.6, 0.3, 0.1))),
    ("subset_arm", PlantedMeasure(4, 2, 0.5, 1.0)),
])
def test_loop_marks_and_per_replicate_calls(algorithm, measure):
    # optimal_subset before the loop, replicate_rng once per replicate, summarize after
    calls = []
    patches = []
    for name in ("optimal_subset", "replicate_rng", "summarize"):
        original = getattr(harness, name)

        def marked(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        patches += tracer.patch_everywhere(original, marked)
    try:
        records, _ = harness.run_experiment(harness.ExperimentConfig(
            measure=measure.to_dict(), model="semi", k=2, delta=0.1,
            algorithm=algorithm, replicates=3))
    finally:
        tracer.restore(patches)
    assert calls == ["optimal_subset"] + ["replicate_rng"] * 3 + ["summarize"]
    assert all(r.wall_time > 0 for r in records)


def test_tracer_sees_every_layer_of_a_run(tmp_path):
    elim_config = harness.ExperimentConfig(
        measure=ProductMeasure(means=(0.9, 0.6, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1)).to_dict(),
        model="bandit", k=2, delta=0.1, replicates=2, out=str(tmp_path / "a.jsonl"))
    subset_config = harness.ExperimentConfig(
        measure=PlantedMeasure(4, 2, 0.5, 1.0).to_dict(), model="bandit", k=2,
        delta=0.1, algorithm="subset_arm", replicates=2, out=str(tmp_path / "b.jsonl"))
    with tracer.Tracer() as traced:
        harness.run_experiment(elim_config)
        harness.run_experiment(subset_config)
    assert tracer.patched_names() == []
    layers = traced.layer_metrics()
    for module, func in tracer.TARGETS:
        assert layers[f"{tracer.layer_name(module, func)}.calls"] > 0, (module, func)
    assert layers["baselines.subset_arm_identify.calls"] == 2
    assert layers["elimination.stage_play.plays"] > 0
    assert layers["harness.results_bytes"] == sum(
        (tmp_path / name).stat().st_size for name in ("a.jsonl", "b.jsonl"))
    assert 0 < layers["measures.sample_matrix.useful_ratio"] <= 1
    assert layers["elimination.run_identification.stages"] > 0
