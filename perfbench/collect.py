"""Run the benchmark over several seeds and record the spread of every metric.

    python3 perfbench/collect.py --tag baseline --seeds 1-10

Each (seed, workload) pair, for every workload of ``BENCHMARK.json``, is one
``run.py`` run of its ``run_seconds``; seeds form the outer loop, so
workloads interleave.  For every end-to-end metric the file gets the values,
their median and quartiles (``statistics.quantiles(values, n=4)``), the
spread (quartile distance over the median), the metric's bound and whether
the spread stays within it (``resolved``).  A metric that is not resolved
cannot tell a change from run-to-run noise on that workload.  The same
statistics of ``host.probe_s``, the time of a fixed loop that only the host's
speed moves, show how loaded the host was; the timings are already scaled by
it (see ``run.py``).  One traced run
per workload, at the first seed, adds the per-layer metrics.  The
results-file hashes of every run are kept, so a later commit can see which
workload's outputs moved.  Writes ``perfbench/BENCH_<tag>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result line, detail record) of one run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{int(trace)}.json")
                        .read_text())
    return result, detail


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    runs: dict[str, list] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result, detail = bench(name, seed, spec["run_seconds"], False)
            runs[name].append({"seed": seed, "correct": result["correct"],
                               "attempted": result["attempted"], "failed": result["failed"],
                               "results_sha256": detail["results_sha256"],
                               "successes": detail["successes"],
                               "inconclusive": detail["inconclusive"],
                               "rounds": detail["rounds"],
                               "replicate_s.samples": detail["replicate_s.samples"],
                               "host.probe_s": detail["metrics"]["host.probe_s"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)

    doc = {"tag": args.tag, "seeds": seeds, "run_seconds": spec["run_seconds"],
           "machine": detail["machine"], "workloads": {}}
    for name in names:
        entry = {"runs": runs[name], "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs[name]]
            stats = spread(values) if len(values) > 1 else {"median": values[0]}
            stats.update(unit=metric["unit"], bound=metric["bound"], values=values,
                         resolved=stats.get("spread", 0.0) <= metric["bound"])
            entry["end_to_end"][metric["name"]] = stats
            print(f"{name:22s} {metric['name']:18s} median {stats['median']:12.6g} "
                  f"spread {stats.get('spread', 0):.4f} (bound {metric['bound']})")
        values = [r["host.probe_s"] for r in runs[name]]
        entry["host.probe_s"] = dict(spread(values) if len(values) > 1
                                              else {"median": values[0]}, values=values)
        print(f"{name:22s} {'host.probe_s':18s} median "
              f"{entry['host.probe_s']['median']:12.6g} "
              f"spread {entry['host.probe_s'].get('spread', 0):.4f}")
        result, detail = bench(name, seeds[0], spec["run_seconds"], True)
        entry["per_layer"] = {"seed": seeds[0], "correct": result["correct"],
                              "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        doc["workloads"][name] = entry
    doc["machine"].pop("workload_seed", None)
    out = BENCH_DIR / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
