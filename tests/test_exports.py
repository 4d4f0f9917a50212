"""Every name that ``bestofk`` or one of its modules exports resolves, and the
program itself uses it."""

import ast
import importlib
import inspect
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


REPO = Path(__file__).resolve().parents[1]
# Public names that only tests reach, each with the reason it stays.
TEST_ONLY = {
    "bestofk.game.observe": "the feedback spec the batched recorder is tested against",
    "bestofk.harness.compare_to_bounds": "ROADMAP item 3 prints its ratios after each run",
    "bestofk.theory.true_variance_radius": "ROADMAP item 2 gives it a verify check or deletes it",
    "bestofk.theory.inversion_sample_size": "ROADMAP item 2 gives it a verify check or deletes it",
    "bestofk.theory.kappa_constants": "ROADMAP item 2 gives it a verify check or deletes it",
    "bestofk.theory.simplified_dependent_lower_bound":
        "ROADMAP item 2 gives it a verify check or deletes it",
}


class _References(ast.NodeVisitor):
    """Names loaded and attributes read, except inside a definition of the same name."""

    def __init__(self):
        self.names, self.enclosing = set(), []

    def _definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, node, name):
        if isinstance(node.ctx, ast.Load) and name not in self.enclosing:
            self.names.add(name)
        self.generic_visit(node)

    def visit_Name(self, node):
        self._read(node, node.id)

    def visit_Attribute(self, node):
        self._read(node, node.attr)


def _public_names():
    """(qualified name, bare name) of each public name a module exports or defines
    and each public method of a class it defines; a re-export is named where it
    is defined."""
    for name in MODULES:
        module = importlib.import_module(name)
        exported = {attr: getattr(module, attr) for attr in getattr(module, "__all__", ())}
        defined = {attr: obj for attr, obj in vars(module).items()
                   if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == name}
        for attr, obj in {**exported, **defined}.items():
            if attr.startswith("_"):
                continue
            home = obj.__module__ if inspect.isfunction(obj) or inspect.isclass(obj) else name
            yield f"{home}.{attr}", attr
            if attr in defined and inspect.isclass(obj):
                for method, member in vars(obj).items():
                    if not method.startswith("_") and (
                            inspect.isfunction(member)
                            or isinstance(member, (staticmethod, classmethod))):
                        yield f"{name}.{attr}.{method}", method


def test_every_public_name_has_a_caller_outside_tests():
    refs = _References()
    for path in sorted((REPO / "src").rglob("*.py")) + sorted((REPO / "perfbench").rglob("*.py")):
        refs.visit(ast.parse(path.read_text(), str(path)))
    unused = {qualified for qualified, bare in _public_names() if bare not in refs.names}
    # an unused name fails until it is deleted or listed; a listed one that gains a caller
    # fails until it leaves the list
    assert unused == set(TEST_ONLY)


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
