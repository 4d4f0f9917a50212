"""Layered benchmark of ``bestofk run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src``.  The workload seed builds the instance and is its ``base_seed``.

A run repeats rounds until S seconds have passed (at least one round, and
with --trace 1 at least one untraced and one traced round, alternating).  A
round is one ``bestofk run`` in a fresh interpreter (``experiment.py``), run
one at a time with BLAS threading off, pinned with this process to one CPU.
Every round of a run has the same config, so every results file it writes
must hash the same.  A run is not ``correct`` if a replicate returns a subset
other than the optimum that the workload knows by construction, if a record's
``success`` flag disagrees with that, or if the summary record disagrees with
the trial records.  An inconclusive replicate is not wrong, but it counts as
failed.

The host is shared, and its speed for this process swings by half or more
within seconds.  Every time is therefore reported as seconds at a fixed
nominal host speed: it is multiplied by ``PROBE_NOMINAL_S`` over the mean
time of ``experiment.probe_s``, a fixed loop that does not depend on bestofk,
taken before, during and after the round (a replicate's time, by the probes
next to it).  The unscaled medians and the probe times are kept in the
detail.  ``host.probe_s`` is the median probe time, so the host's load shows.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` replicates over all rounds, and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with --trace 0 (medians over
rounds), its per-layer metrics with --trace 1 (from the traced rounds).
The lines before it list every metric with its unit and a ``detail`` object
with the machine facts, sample counts and results-file hashes, which is also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from experiment import PROBES_AROUND, probe_s
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
ROUND_TIMEOUT_S = 120
# experiment.probe_s on an otherwise idle 2.1 GHz Xeon vCPU; timings are scaled to this speed
PROBE_NOMINAL_S = 0.00085
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
NPROC = len(os.sched_getaffinity(0))  # before main pins this process to one CPU


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_round(config_path: Path, traced: bool) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "experiment.py"), str(config_path),
         "1" if traced else "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S,
        check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["traced"] = traced
    return doc


def check_results(path: Path, workload: Workload, replicates: int) -> tuple[int, int, list[str]]:
    """(successes, inconclusive, problems) of one results file."""
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    trials, summary = lines[:-1], lines[-1]
    problems = []
    if len(trials) != replicates or summary.get("kind") != "summary":
        return 0, 0, [f"{path.name}: expected {replicates} trials and a summary"]
    truth = list(workload.truth)
    successes = inconclusive = 0
    for trial in trials:
        if trial["inconclusive"]:
            inconclusive += 1
            continue
        right = sorted(trial["returned"]) == truth
        successes += right
        if not right:
            problems.append(f"replicate {trial['replicate']}: returned {trial['returned']},"
                            f" optimum {truth}")
        if trial["success"] is not right:
            problems.append(f"replicate {trial['replicate']}: success flag {trial['success']}"
                            f" but returned {trial['returned']}")
    if [t["replicate"] for t in trials] != list(range(replicates)):
        problems.append("trial records are not in replicate order")
    if summary["successes"] != successes or summary["inconclusive"] != inconclusive:
        problems.append("summary counts disagree with the trial records")
    mean = sum(t["total_queries"] for t in trials) / replicates
    if summary["query_quantiles"]["mean"] != mean:
        problems.append("summary mean queries disagree with the trial records")
    return successes, inconclusive, problems


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a single sample is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts(seed: int) -> dict:
    spec = importlib.util.find_spec
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numba_importable": spec("numba") is not None,
        "cpu_model": cpu,
        "git_commit": commit,
        "workload_seed": seed,
    }


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  spec: dict, replicates: int | None = None) -> tuple[dict, dict]:
    """Run rounds for ``seconds``; returns (result line, detail)."""
    replicates = replicates or workload.replicates
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    OUT_DIR.mkdir(exist_ok=True)
    results_path = OUT_DIR / f"{tag}.results.jsonl"
    config_doc = workload.config_doc(seed, replicates)
    config_doc["out"] = str(results_path.relative_to(ROOT))
    config_path = OUT_DIR / f"{tag}.config.json"
    config_path.write_text(json.dumps(config_doc, sort_keys=True))

    facts = machine_facts(seed)
    problems: list[str] = []
    rounds: list[dict] = []
    attempted = failed = successes = inconclusive = 0
    deadline = time.perf_counter() + seconds
    kinds = (False, True) if trace else (False,)
    while len(rounds) < len(kinds) or time.perf_counter() < deadline:
        traced = kinds[len(rounds) % len(kinds)]
        attempted += replicates
        try:
            before = [probe_s() for _ in range(PROBES_AROUND)]
            doc = run_round(config_path, traced)
            doc["probe_s"] = statistics.fmean(before + doc["probe_s"])
            doc["speed"] = PROBE_NOMINAL_S / doc["probe_s"]
            ok, unsure, found = check_results(results_path, workload, replicates)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError, IndexError) as exc:
            failed += replicates
            problems.append(f"round {len(rounds)}: {exc!r}")
            break
        rounds.append(doc)
        successes += ok
        inconclusive += unsure
        failed += replicates - ok
        problems += found
        if Path(doc["bestofk_file"]).resolve().parent != SRC / "bestofk":
            problems.append(f"bestofk imported from {doc['bestofk_file']}, not {SRC}")
        if doc["leftover_patches"]:
            problems.append(f"names left patched: {doc['leftover_patches']}")
        if traced and doc["self_s_total"] > doc["wall_s"]:
            problems.append(f"traced self times {doc['self_s_total']} exceed wall {doc['wall_s']}")

    hashes = sorted({json.dumps(r["sha256"], sort_keys=True) for r in rounds})
    if len(hashes) > 1:
        problems.append(f"results differ between rounds of one seed: {hashes}")
    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    if len({json.dumps([r["layers"][k] for k in r["layers"] if not k.endswith("self_s")])
            for r in traced_rounds}) > 1:
        problems.append("layer counts differ between traced rounds")

    # Timings are scaled to seconds at the nominal host speed: a round's by the
    # probes taken during and around it, a replicate's by the probes next to it.
    # Rounds repeat the same work, so each replicate's time is its median over rounds.
    replicate_s = [statistics.median(times) for times in zip(*(
        [t * PROBE_NOMINAL_S / probe for t, probe in zip(r["replicate_s"], r["replicate_probe_s"])]
        for r in untraced))]
    metrics = {}
    raw = {}
    if untraced:
        queries = untraced[0]["total_queries"]
        metrics = {
            "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in untraced),
            "wall_s": statistics.median(r["wall_s"] * r["speed"] for r in untraced),
            "replicates_per_s": statistics.median(replicates / (r["loop_s"] * r["speed"])
                                                  for r in untraced),
            "queries_per_s": statistics.median(sum(queries) / (r["loop_s"] * r["speed"])
                                               for r in untraced),
            "replicate_s.p50": quantile(replicate_s, 50),
            "replicate_s.p90": quantile(replicate_s, 90),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "queries_mean": sum(queries) / len(queries),
            "success_share": 1.0 - failed / attempted,
        }
        raw = {name: statistics.median(r[name] for r in untraced)
               for name in ("setup_s", "wall_s", "loop_s")}
    # rounds alternate untraced, traced: pair each traced round with the one before it
    overheads = [rounds[i]["wall_s"] * rounds[i]["speed"]
                 - rounds[i - 1]["wall_s"] * rounds[i - 1]["speed"]
                 for i in range(1, len(rounds)) if rounds[i]["traced"]]
    if traced_rounds:
        for name in traced_rounds[0]["layers"]:
            scale = name.endswith("self_s")
            metrics[name] = statistics.median(r["layers"][name] * (r["speed"] if scale else 1)
                                              for r in traced_rounds)
        metrics["trace.overhead_s"] = statistics.median(overheads)
    if rounds:
        metrics["host.probe_s"] = statistics.median(r["probe_s"] for r in rounds)
        facts.update(numpy=rounds[0]["numpy"], backend=rounds[0]["backend"])
    missing = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]
               if m["name"] not in metrics]
    if rounds and missing:
        problems.append(f"metrics not measured: {missing}")
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "machine": facts,
        "config_sha256": hashlib.sha256(config_path.read_bytes()).hexdigest(),
        "replicates_per_round": replicates,
        "rounds": len(untraced),
        "traced_rounds": len(traced_rounds),
        "per_round": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "loop_s", "peak_rss_mb",
                                         "probe_s", "speed")}
                      for r in rounds],
        "unscaled_median": raw,
        "replicate_s.samples": len(replicate_s),
        "trace.overhead_s.samples": len(overheads),
        "results_sha256": rounds[0]["sha256"] if rounds else None,
        "successes": successes,
        "inconclusive": inconclusive,
        "fail_share": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    }
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                          for m in wanted}}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bestofk" / "__init__.py").is_file():
        print(f"perfbench: no bestofk package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # one CPU for this process and every round, so the probes run where the rounds run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    trace = bool(args.trace)
    result, detail = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, trace,
                                   load_spec())
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}")
    print("detail " + json.dumps({k: v for k, v in detail.items() if k != "metrics"},
                                 sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
