"""Fast self-test of the benchmark, with tiny replicate counts.

    python3 perfbench/selftest.py

Checks that both modes of ``run.py`` print every metric ``BENCHMARK.json``
names, each with its unit; that every workload runs one untraced and one
traced round with no failed replicate, identical results-file hashes and
traced self times within the round's wall time; that a wrong returned subset
is caught even when its record says it failed; and that the tracer wraps a
name where it is looked up and leaves no name patched afterwards.
Exits 1 and lists the failed checks if any.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import tracer
from workloads import WORKLOADS

FAILURES: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        FAILURES.append(message)
        print("FAIL " + message)


def check_cli(spec: dict) -> None:
    """Both modes print every named metric with its unit, and nothing fails."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "bandit-product-n12", "--seed", "1",
                             "--seconds", "0", "--trace", str(trace)])
        lines = stdout.getvalue().splitlines()
        result = json.loads(lines[-1])
        check(code == 0, f"trace {trace}: exit code {code}")
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"trace {trace}: result keys {sorted(result)}")
        check(result["correct"] and result["failed"] == 0, f"trace {trace}: {result}")
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == wanted, f"trace {trace}: metrics {got} != {wanted}")
        for name, unit in wanted.items():
            check(any(line.split()[:1] == [name] and line.split()[-1] == unit
                      for line in lines[:-1]), f"trace {trace}: {name} not printed with {unit}")


def check_workloads(spec: dict) -> None:
    """One untraced and one traced tiny round of every workload."""
    for workload in WORKLOADS.values():
        result, detail = run.run_benchmark(workload, 1, 0, True, spec,
                                           replicates=min(2, workload.replicates))
        name = workload.name
        check(result["correct"], f"{name}: problems {detail['problems']}")
        check(detail["fail_share"] == 0, f"{name}: fail_share {detail['fail_share']}")
        check(detail["rounds"] == 1 and detail["traced_rounds"] == 1,
              f"{name}: rounds {detail['rounds']} + {detail['traced_rounds']}")
        for m in spec["end_to_end"]:
            value = detail["metrics"].get(m["name"])
            check(value is not None and value > 0, f"{name}: end-to-end {m['name']} = {value}")
        layers = detail["metrics"]
        check(layers["harness.run_experiment.self_s"] > 0, f"{name}: run_experiment not traced")
        check(layers["measures.sample_matrix.calls"] > 0, f"{name}: sample_matrix not traced")
        check(0 < layers["measures.sample_matrix.useful_ratio"] <= 1,
              f"{name}: useful_ratio {layers['measures.sample_matrix.useful_ratio']}")


def check_wrong_subset_caught() -> None:
    """A results file whose replicate returned a wrong subset is a problem."""
    workload = WORKLOADS["bandit-product-n12"]
    run.run_benchmark(workload, 1, 0, False, run.load_spec(), replicates=2)
    path = run.OUT_DIR / f"{workload.name}-seed1-trace0.results.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    lines[0].update(returned=[3, 4, 5], success=False, inconclusive=False)
    lines[-1]["successes"] = sum(t["success"] for t in lines[:-1])
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    successes, _, problems = run.check_results(path, workload, 2)
    check(successes == 1 and any("returned [3, 4, 5]" in p for p in problems),
          f"wrong subset not caught: {problems}")


def check_tracer_restores() -> None:
    """Copies of a name in other modules are wrapped, and every one is restored."""
    sys.path.insert(0, str(run.SRC))
    from bestofk import baselines, elimination, harness, measures

    before = {(mod.__name__, attr): value for mod in tracer.bestofk_modules()
              for attr, value in vars(mod).items()}
    config = harness.ExperimentConfig(
        measure={"type": "product", "n": 6, "means": [0.9, 0.6, 0.3, 0.3, 0.2, 0.1]},
        model="semi", k=2, delta=0.1, replicates=2)
    with tracer.Tracer() as t:
        for mod, attr in ((elimination, "sample_matrix"), (baselines, "sample_matrix"),
                          (elimination, "record_plays"), (harness, "run_identification"),
                          (harness, "optimal_subset")):
            check(hasattr(getattr(mod, attr), tracer.ORIGINAL_ATTR),
                  f"{mod.__name__}.{attr} is not wrapped")
        harness.run_experiment(config)
    check(tracer.patched_names() == [], f"left patched: {tracer.patched_names()}")
    after = {(mod.__name__, attr): value for mod in tracer.bestofk_modules()
             for attr, value in vars(mod).items()}
    changed = [key for key, value in before.items() if after.get(key) is not value]
    check(not changed, f"names not restored: {changed}")
    check(measures.sample_matrix is elimination.sample_matrix, "sample_matrix copies diverged")
    check(t.calls["elimination.run_identification"] == 2, f"calls {dict(t.calls)}")
    check(t.self_time_total() > 0, "no self time recorded")


def main() -> int:
    spec = run.load_spec()
    check_tracer_restores()
    check_cli(spec)
    check_wrong_subset_caught()
    check_workloads(spec)
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
