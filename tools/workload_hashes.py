"""Hash what the benchmark workloads write, at the seeds asked.

Runs the config of each workload in ``perfbench/workloads.py`` (read, not
changed) in this process at each seed, and prints one JSON object:

    {workload: {seed: [sha256 of the results file, sha256 of the .trace or null]}}

Only the traced workload (``marked-coverage-n64``) writes a ``.trace``.  At
seed 1 the hashes are the first two entries of ``WORKLOAD_PINS`` in
``tests/test_harness.py``.  Diff the output of two trees to check that a change
keeps every workload's bytes:

    python tools/workload_hashes.py 1-10 > hashes.json

It imports ``bestofk`` from the ``src`` directory beside it.  Seeds are given
as numbers or inclusive ranges (``2-10``); the default is seed 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_workloads() -> dict:
    """``perfbench/workloads.py``'s ``WORKLOADS``, loaded without importing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def workload_hashes(seeds: list[int]) -> dict[str, dict[str, list[str | None]]]:
    """The sha256 of each workload's results file and .trace (or None) per seed."""
    from bestofk.harness import ExperimentConfig, run_experiment

    hashes: dict[str, dict[str, list[str | None]]] = {}
    with tempfile.TemporaryDirectory() as where:
        out = Path(where) / "r.jsonl"
        for name, workload in load_workloads().items():
            for seed in seeds:
                doc = {**workload.config_doc(seed), "out": str(out)}
                run_experiment(ExperimentConfig.from_json(json.dumps(doc)))
                hashes.setdefault(name, {})[str(seed)] = [
                    hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
                    for path in (out, Path(f"{out}.trace"))]
                Path(f"{out}.trace").unlink(missing_ok=True)
    return hashes


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=_seeds, default=[[1]],
                        help="seeds or inclusive seed ranges, e.g. 1 or 2-10")
    seeds = [seed for group in parser.parse_args(argv).seeds for seed in group]
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(workload_hashes(seeds), indent=1))


if __name__ == "__main__":
    main()
