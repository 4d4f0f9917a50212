"""Every name that ``bestofk`` or one of its modules exports resolves."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bestofk

MODULES = ["bestofk"] + [f"bestofk.{m.name}" for m in pkgutil.iter_modules(bestofk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


COVERAGE_RUN = {"measure": {"type": "coverage", "m": 10, "sets": [[0, 1, 2, 3], [4, 5, 6], [7], [8]]},
                "model": "marked", "k": 2, "delta": 0.1, "replicates": 2}
# printed last by each fresh-interpreter script below
LOADED = "import sys; print([m for m in ('bestofk.theory', 'bestofk.oracle') if m in sys.modules])"


def _fresh_interpreter(script: str, cwd: Path) -> str:
    src = str(Path(bestofk.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=60, check=True)
    return done.stdout.splitlines()[-1]


def test_run_experiment_loads_no_bound_calculator(tmp_path):
    script = (f"from bestofk import harness\n"
              f"config = harness.ExperimentConfig.from_json({json.dumps(COVERAGE_RUN)!r})\n"
              f"harness.run_experiment(config)\n{LOADED}")
    assert _fresh_interpreter(script, tmp_path) == "[]"


def test_cli_run_loads_no_bound_calculator(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(COVERAGE_RUN))
    script = (f"from bestofk import cli\n"
              f"assert cli.main(['run', '--config', 'config.json', '--out', 'results.json']) == 0\n"
              f"{LOADED}")
    assert _fresh_interpreter(script, tmp_path) == "[]"
    assert (tmp_path / "results.json").exists()


def test_bound_calculators_load_on_first_use():
    from bestofk import calT, theory, upper_bound_total

    assert (calT, upper_bound_total) == (theory.calT, theory.upper_bound_total)
    with pytest.raises(AttributeError, match="no_such_name"):
        bestofk.no_such_name
