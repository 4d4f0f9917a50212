"""One benchmark round: a single ``bestofk run``, measured from inside.

    python3 perfbench/experiment.py CONFIG_JSON TRACE(0|1)

``run.py`` starts this script once per round with ``PYTHONPATH`` set to the
checkout's ``src``.  It does what ``bestofk run --config`` does:
``ExperimentConfig.from_json`` then ``harness.run_experiment``, which writes
the results file named by the config's ``out``.  It prints one JSON object
with the round's timings, the sha256 of every file the run wrote and, with
TRACE=1, the per-layer numbers of ``tracer.Tracer``.

The clock starts before ``import bestofk``, so set-up covers the package
import, the config parse, the measure build and ``optimal_subset``.  Two
one-shot marks bound the replicate loop: the return of the harness's
``optimal_subset`` call and the start of its ``summarize`` call.

The host this runs on is shared, and other load on it can slow a round by
half or more for seconds at a time.  So the round also times a short fixed
probe (``probe_s``: interpreted and numpy work that does not depend on
bestofk) about every ``PROBE_EVERY_S`` of the replicate loop, between
replicates and outside their timed spans (untraced rounds only), and
``PROBES_AROUND`` times after the run; ``run.py`` takes as many before it.
The probe's time moves only with the host's speed, and ``run.py`` scales the
round's timings by it.  Time spent in probes is taken out of ``loop_s`` and
``wall_s``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing

PROBE_EVERY_S = 0.02
PROBES_AROUND = 10


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def probe_s() -> float:
    """Time of a fixed mix of interpreted and numpy work of about 1 ms."""
    import numpy as np  # here, not at the top: set-up must pay the numpy import

    started = time.perf_counter()
    rng = np.random.default_rng(0)
    total = 0
    for i in range(12_000):
        total += i * i % 7
    bits = rng.random((64, 256)) < 0.5
    total += int(bits.sum(axis=0).argmax())
    return time.perf_counter() - started


class Probes:
    """Probe samples taken between replicates, and the time they took."""

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0
        self.last = time.perf_counter()
        self.before_replicate: list[int] = []  # probes taken before each replicate started

    def take(self) -> None:
        started = time.perf_counter()
        self.times.append(probe_s())
        self.last = time.perf_counter()
        self.spent += self.last - started

    def patch(self, harness):
        """Probe before a replicate once ``PROBE_EVERY_S`` has passed since the last probe."""
        replicate_rng = harness.replicate_rng

        def replicate_rng_probed(*args, **kwargs):
            if time.perf_counter() - self.last >= PROBE_EVERY_S:
                self.take()
            self.before_replicate.append(len(self.times))
            return replicate_rng(*args, **kwargs)

        return tracing.patch_everywhere(replicate_rng, replicate_rng_probed)

    def near_replicates(self) -> list[float]:
        """Mean of the few probes on either side of each replicate."""
        return [sum(window) / len(window)
                for window in (self.times[max(0, j - 2):j + 2] for j in self.before_replicate)]


def mark_loop(harness, marks: dict):
    """Stamp the replicate loop's start and end; returns the patches to undo."""
    optimal_subset, summarize = harness.optimal_subset, harness.summarize

    def optimal_subset_marked(*args, **kwargs):
        result = optimal_subset(*args, **kwargs)
        marks["loop_start"] = time.perf_counter()
        return result

    def summarize_marked(*args, **kwargs):
        marks["loop_end"] = time.perf_counter()
        return summarize(*args, **kwargs)

    return (tracing.patch_everywhere(optimal_subset, optimal_subset_marked)
            + tracing.patch_everywhere(summarize, summarize_marked))


def run_round(config_text: str, traced: bool) -> dict:
    started = time.perf_counter()
    import bestofk
    from bestofk import harness

    marks: dict[str, float] = {}
    tracer = tracing.Tracer()
    probes = Probes()
    patches = []
    if traced:
        tracer.install()
    try:
        patches = mark_loop(harness, marks)
        if not traced:  # in a traced round the probes would count as harness self time
            patches += probes.patch(harness)
        config = harness.ExperimentConfig.from_json(config_text)
        records, summary = harness.run_experiment(config)
        finished = time.perf_counter()
    finally:
        tracing.restore(patches)
        tracer.uninstall()

    out = Path(config.out)
    written = [p for p in (out, Path(f"{out}.trace")) if p.exists()]
    doc = {
        "bestofk_file": bestofk.__file__,
        "numpy": sys.modules["numpy"].__version__,
        "backend": bestofk.kernels.active_backend(),
        "setup_s": marks["loop_start"] - started,
        "wall_s": finished - started - probes.spent,
        "loop_s": marks["loop_end"] - marks["loop_start"] - probes.spent,
        "replicate_s": [r.wall_time for r in records],
        "total_queries": [r.total_queries for r in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": {p.name: sha256_of(p) for p in written},
        "leftover_patches": tracing.patched_names(),
    }
    if traced:
        doc["layers"] = tracer.layer_metrics()
        doc["self_s_total"] = tracer.self_time_total()
    for _ in range(PROBES_AROUND):  # after peak_rss_mb is read
        probes.take()
    doc["probe_s"] = probes.times
    doc["replicate_probe_s"] = probes.near_replicates()
    return doc


def main(argv: list[str]) -> int:
    config_path, trace = argv
    doc = run_round(Path(config_path).read_text(), trace == "1")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
