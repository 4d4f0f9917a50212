"""Hash what the benchmark workloads write, at the seeds asked.

Runs the config of each workload in ``perfbench/workloads.py`` (read, not
changed) in this process at each seed, and ``bestofk bounds`` on it, then
``bestofk verify`` once, and prints one JSON object:

    {workload: {seed: [sha256 of the results file, sha256 of the .trace or null,
                       sha256 of the run's stderr (its warning lines),
                       bounds exit code, sha256 of bounds' stdout]},
     "verify": sha256 of verify's stdout}

Only the traced workload (``marked-coverage-n64``) writes a ``.trace``.  At
seed 1 the four entries are ``WORKLOAD_PINS`` in ``tests/test_harness.py``.
Diff the output of two trees to check that a change keeps every workload's
bytes, warnings and printed bounds:

    python tools/workload_hashes.py 1-10 > hashes.json

``--all-models`` also runs each elimination workload's config under the two
feedback models it does not use, keyed ``{workload}/{model}`` and capped at
``OTHER_MODEL_STAGE_CAP`` stages, so that a change to one model's recorder
shows on every elimination instance:

    python tools/workload_hashes.py --all-models 1-10 > hashes.json

It imports ``bestofk`` from the ``src`` directory beside it.  Seeds are given
as numbers or inclusive ranges (``2-10``); the default is seed 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# bandit feedback on semi-product-n256's instance decides nothing before the
# default cap of 40 stages; at 14 every run takes at most a few seconds
OTHER_MODEL_STAGE_CAP = 14


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


def _configs(all_models: bool):
    """(key, workload, model override or None) for every config to hash."""
    from bestofk.game import MODELS

    workloads = load_workloads()
    for name, workload in workloads.items():
        yield name, workload, None
    for name, workload in workloads.items() if all_models else ():
        used = workload.config(1)
        if used.get("algorithm", "elimination") == "elimination":
            for model in MODELS:
                if model != used["model"]:
                    yield f"{name}/{model}", workload, model


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv: str) -> tuple[int, str]:
    """``bestofk`` run in this process: its exit code and the sha256 of its stdout
    (stderr is dropped)."""
    from bestofk.cli import main

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, _sha256(printed.getvalue().encode())


def workload_hashes(seeds: list[int], all_models: bool = False) -> dict:
    """Per workload and seed, the sha256 of the results file, the .trace (or None)
    and the run's stderr, and the ``bounds`` exit code and stdout sha256, with
    ``all_models`` also of each elimination workload under the other models;
    then the ``verify`` stdout sha256."""
    from bestofk.harness import ExperimentConfig, run_experiment

    hashes: dict = {}
    with tempfile.TemporaryDirectory() as where:
        out, config = Path(where) / "r.jsonl", Path(where) / "config.json"
        for name, workload, model in _configs(all_models):
            for seed in seeds:
                doc = workload.config_doc(seed)
                if model:
                    doc.update(model=model, stage_cap=OTHER_MODEL_STAGE_CAP)
                warned = io.StringIO()
                with contextlib.redirect_stderr(warned):
                    run_experiment(ExperimentConfig.from_json(json.dumps({**doc, "out": str(out)})))
                written = [_sha256(path.read_bytes()) if path.exists() else None
                           for path in (out, Path(f"{out}.trace"))]
                Path(f"{out}.trace").unlink(missing_ok=True)
                config.write_text(json.dumps(doc))
                hashes.setdefault(name, {})[str(seed)] = [
                    *written, _sha256(warned.getvalue().encode()),
                    *_cli("bounds", "--config", str(config))]
    hashes["verify"] = _cli("verify")[1]
    return hashes


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=_seeds, default=[[1]],
                        help="seeds or inclusive seed ranges, e.g. 1 or 2-10")
    parser.add_argument("--all-models", action="store_true",
                        help="also hash each elimination workload under the other two models")
    args = parser.parse_args(argv)
    seeds = [seed for group in args.seeds for seed in group]
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(workload_hashes(seeds, args.all_models), indent=1))


if __name__ == "__main__":
    main()
