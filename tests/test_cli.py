"""Command-line surface and exit codes."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bestofk
from bestofk import harness, oracle, theory
from bestofk.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from bestofk.harness import ExperimentConfig
from bestofk.measures import PlantedMeasure, ProductMeasure, document
from bestofk.theory import GapProfile, upper_bound_total


@pytest.fixture
def product_config_path(tmp_path):
    cfg = ExperimentConfig(
        measure=ProductMeasure(means=(0.9, 0.5, 0.2)).to_dict(),
        model="semi",
        k=1,
        delta=0.1,
        replicates=2,
        base_seed=5,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document(cfg), sort_keys=True))
    return path


def test_run_subcommand(product_config_path, tmp_path, capsys):
    out = tmp_path / "res.jsonl"
    code = main(["run", "--config", str(product_config_path), "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["kind"] == "summary"
    assert summary["replicates"] == 2


def test_run_seed_override_changes_results(product_config_path, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["run", "--config", str(product_config_path), "--out", str(out1)])
    main(["run", "--config", str(product_config_path), "--out", str(out2), "--seed", "99"])
    first = json.loads(out1.read_text().splitlines()[0])
    second = json.loads(out2.read_text().splitlines()[0])
    assert first["seed"] != second["seed"]


def test_run_inconclusive_exit_code(tmp_path):
    cfg = ExperimentConfig(
        measure=ProductMeasure(means=(0.51, 0.5)).to_dict(),
        model="semi",
        k=1,
        delta=0.1,
        replicates=1,
        base_seed=1,
        stage_cap=2,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document(cfg), sort_keys=True))
    assert main(["run", "--config", str(path)]) == EXIT_INCONCLUSIVE


def test_run_with_a_unit_mean_names_no_best_subset(tmp_path, capsys):
    # {0, 1} and {0, 2} both have E[max] = 1, so no replicate is scored
    cfg = ExperimentConfig(measure=ProductMeasure(means=(1.0, 0.5, 0.4)).to_dict(),
                           model="semi", k=2, delta=0.1, replicates=2, base_seed=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document(cfg), sort_keys=True))
    assert main(["run", "--config", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "warning: no unique best 2-subset is known" in captured.err
    assert json.loads(captured.out)["success_rate"] is None


def test_bounds_subcommand_product(product_config_path, capsys):
    assert main(["bounds", "--config", str(product_config_path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "upper_bound_total[semi]" in text
    assert "independent_lower_bound[semi]" in text
    assert "input means:" in text


@pytest.mark.parametrize("exact_k_mode", [None, True, False])
def test_bounds_follow_exact_k_mode(tmp_path, capsys, exact_k_mode):
    # a marked run without exact-k queries fewer than k arms: the bound is the fewer-than-k form
    means = (0.8, 0.7, 0.6, 0.3, 0.3, 0.3)
    cfg = ExperimentConfig(measure=ProductMeasure(means=means).to_dict(), model="marked",
                           k=3, delta=0.1, exact_k_mode=exact_k_mode)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document(cfg), sort_keys=True))
    assert main(["bounds", "--config", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    fewer = exact_k_mode is False
    expected = upper_bound_total(GapProfile(means=means, k=3), "marked", 0.1,
                                 fewer_than_k_allowed=fewer)
    assert f"value: {expected.value!r}" in text
    assert f"input fewer_than_k_allowed: {fewer!r}" in text
    assert ("note: fewer-than-k form" in text) == fewer


def test_bounds_subcommand_planted(tmp_path, capsys):
    cfg = ExperimentConfig(
        measure=PlantedMeasure(5, 2, 0.4, 0.5).to_dict(),
        model="bandit",
        k=2,
        delta=0.1,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document(cfg), sort_keys=True))
    assert main(["bounds", "--config", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "dependent_lower_bound[bandit]" in text
    assert "all_zeros_feasible_range" in text


@pytest.mark.parametrize("model", ["bandit", "marked"])
def test_bounds_note_the_degenerate_dependent_bound(tmp_path, capsys, model):
    # the subset-planted-n8 config: at mu = 1/2, p = 1 the lead factor
    # 1 - p (mu/(1-mu))^k is 0, so the bound reads 0.0 and says why
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": {"type": "planted", "n": 8, "k": 2, "mu": 0.5,
                                            "p": 1.0},
                                "model": model, "k": 2, "delta": 0.1,
                                "algorithm": "subset_arm"}))
    assert main(["bounds", "--config", str(path)]) == EXIT_OK
    report = capsys.readouterr().out.split("\n\n")[0].splitlines()
    assert report[:2] == [f"bound: dependent_lower_bound[{model}]", "value: 0.0"]
    assert report[-1] == ("note: degenerate: the 1 - p (mu/(1-mu))^k factor vanishes "
                          "at mu=1/2, p=1")
    # off the degenerate point the bound is positive and carries no note
    path.write_text(json.dumps({"measure": {"type": "planted", "n": 8, "k": 2, "mu": 0.4,
                                            "p": 1.0},
                                "model": model, "k": 2, "delta": 0.1}))
    assert main(["bounds", "--config", str(path)]) == EXIT_OK
    report = capsys.readouterr().out.split("\n\n")[0]
    assert "value: 0.0" not in report and "note:" not in report


def test_bounds_planted_k_mismatch_exits_one(tmp_path, capsys):
    # the planted bounds are for the measure's k; printing them for another k misleads
    cfg = ExperimentConfig(measure=PlantedMeasure(6, 2, 0.4, 0.9).to_dict(),
                           model="bandit", k=3, delta=0.1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document(cfg), sort_keys=True))
    assert main(["bounds", "--config", str(path)]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: planted measure has k=2, config has k=3"]


def test_bounds_unsupported_measure_exits_one(tmp_path):
    cfg = ExperimentConfig(
        measure={"type": "coverage", "m": 4, "sets": [[0, 1], [2]]},
        model="semi",
        k=1,
        delta=0.1,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document(cfg), sort_keys=True))
    assert main(["bounds", "--config", str(path)]) == EXIT_USAGE


BOUND_OVERFLOWS = "error: a closed-form bound overflows floating point for this config"


@pytest.mark.parametrize("measure, model, k, delta", [
    # a gap of 1e-300 squares to 0.0 in tau_terms
    ({"type": "product", "means": [1e-300] + [0.0] * 7}, "semi", 1, 0.1),
    # the gap p mu^k underflows to 0.0 in dependent_lower_bound
    ({"type": "planted", "n": 6, "k": 2, "mu": 1e-200, "p": 0.5}, "bandit", 2, 0.1),
    # 2**-1074 as a gap squares past the largest float
    ({"type": "planted", "n": 1075, "k": 1074, "mu": 0.5, "p": 1.0}, "semi", 1074, 0.1),
], ids=["tiny-mean", "tiny-mu", "k-1074"])
def test_bounds_overflow_is_one_line_error(tmp_path, measure, model, k, delta):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": measure, "model": model, "k": k, "delta": delta}))
    done = _cli("bounds", "--config", str(path))
    assert done.returncode == EXIT_USAGE
    assert done.stderr.splitlines() == [BOUND_OVERFLOWS]
    assert done.stdout == ""


def _too_small(delta: float) -> str:
    return (f"error: delta={delta!r} is too small: below 1e-200 the log terms of the radius "
            f"and the bounds can overflow")


@pytest.mark.parametrize("delta", [1e-304, 1e-320])
@pytest.mark.parametrize("measure, model", [
    ({"type": "product", "means": [0.9, 0.5, 0.2] + [0.1] * 5}, "semi"),
    ({"type": "planted", "n": 6, "k": 2, "mu": 0.4, "p": 0.5}, "bandit"),
], ids=["semi", "planted"])
def test_run_and_bounds_reject_a_delta_below_the_floor_alike(tmp_path, measure, model, delta):
    # a run may decide before its log term overflows while a bound's does, so
    # without the floor the two subcommands would disagree at 1e-304
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": measure, "model": model, "k": 2, "delta": delta}))
    for command in ("run", "bounds"):
        done = _cli(command, "--config", str(path))
        assert done.returncode == EXIT_USAGE
        assert done.stderr.splitlines() == [_too_small(delta)]
        assert done.stdout == ""


def test_run_and_bounds_accept_the_delta_floor(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": {"type": "product", "means": [0.9, 0.5, 0.2] + [0.1] * 5},
                                "model": "semi", "k": 2, "delta": 1e-200}))
    for command in ("run", "bounds"):
        done = _cli(command, "--config", str(path))
        assert done.returncode == EXIT_OK
        assert done.stderr == "" and "inf" not in done.stdout


def test_config_errors_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == EXIT_USAGE
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


def _cli(*args: str, memory_limit: int | None = None) -> subprocess.CompletedProcess:
    """``bestofk *args`` in a fresh interpreter, its address space capped at
    ``memory_limit`` bytes if given."""
    src = str(Path(bestofk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cap = None if memory_limit is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit)))
    return subprocess.run([sys.executable, "-m", "bestofk.cli", *args], preexec_fn=cap,
                          capture_output=True, text=True, env=env, timeout=60)


def _run_cli(tmp_path, doc: dict, *options: str, **kwargs) -> subprocess.CompletedProcess:
    """``bestofk run`` on the config ``doc`` (plus ``options``) in a fresh interpreter."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return _cli("run", "--config", str(path), *options, **kwargs)


def test_stalled_bandit_run_exits_inconclusive(tmp_path):
    # below the balancing threshold 10 of these 40 replicates stall with |U| <= k;
    # each stops there, so the run ends in seconds at the default stage cap
    started = time.perf_counter()
    done = _run_cli(tmp_path, {"measure": {"type": "product", "means": [0.6, 0.6, 0.4, 0.4, 0.4]},
                               "model": "bandit", "k": 2, "delta": 0.1, "replicates": 40,
                               "base_seed": 3})
    elapsed = time.perf_counter() - started
    assert done.returncode == EXIT_INCONCLUSIVE, done.stderr
    assert json.loads(done.stdout)["inconclusive"] == 10
    assert elapsed < 10.0, elapsed


def test_malformed_measure_is_one_line_error(tmp_path):
    done = _run_cli(tmp_path, {"measure": {"type": "product", "n": 4},
                               "model": "semi", "k": 1, "delta": 0.1})
    assert done.returncode == EXIT_USAGE
    assert done.stderr.splitlines() == ["error: product measure document lacks the key 'means'"]
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


TRACE_NEEDS_ELIMINATION = "error: trace needs algorithm 'elimination': the baselines keep no stage log"
TRACE_NEEDS_OUT = ("error: trace needs an output path (--out or the config key 'out'): "
                   "the stage trace is written beside the results")
DROP = object()  # an override that removes the key
HUGE_INT = object()  # a 5001-digit integer literal, which json.dumps cannot write
TINY_DELTA = _too_small(1e-320)
NESTED = object()  # a document of 100,000 nested lists, deeper than json.loads recurses


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"algorithm": "subset_arm", "stage_cap": 0}, "error: stage_cap must be >= 1"),
        ({"algorithm": "elimination", "stage_cap": 0}, "error: stage_cap must be >= 1"),
        ({"k": "2"}, "error: config key 'k' must be an integer, got '2'"),
        ({"base_seed": -1}, "error: base_seed must be >= 0"),
        ({"k": 5}, "error: need 1 <= k <= n, got k=5"),
        ({"k": 0}, "error: need 1 <= k <= n, got k=0"),
        ({"algorithm": "subset_arm", "trace": True}, TRACE_NEEDS_ELIMINATION),
        ({"algorithm": "parity", "trace": True}, TRACE_NEEDS_ELIMINATION),
        ({"trace": True}, TRACE_NEEDS_OUT),
        ({"algorithm": "subset_arm", "exact_k_mode": False},
         "error: exact_k_mode needs algorithm 'elimination': the baselines query whole k-subsets"),
        ({"measure": {"type": "planted", "n": 6, "k": 2, "mu": 0.4, "p": 0.9, "planted": [3, 4]}},
         "error: unknown planted measure keys: ['planted']"),
        ({"measure": {"type": "product", "n": 5, "means": [0.9, 0.6, 0.2]}},
         "error: product measure key 'n' must be its arm count 3, got 5"),
        ({"measure": {"type": "joint_table", "k": 20000, "probs": [0.5, 0.5]}},
         "error: need 2**k atoms for k=20000, got 2"),
        ({"delta": DROP}, "error: config document lacks the key 'delta'"),
        # 8 n t^2 / delta would overflow, so every radius would be inf or NaN
        ({"algorithm": "elimination", "delta": 1e-320}, TINY_DELTA),
        ({"algorithm": "subset_arm", "delta": 1e-320}, TINY_DELTA),
        ({"k": HUGE_INT}, "error: Exceeds the limit (4300 digits) for integer string conversion: "
                          "value has 5001 digits; use sys.set_int_max_str_digits() to increase "
                          "the limit"),
        # a root that is not an object replaces the whole document
        ([], "error: a config document must be an object, got []"),
        ("x", "error: a config document must be an object, got 'x'"),
        (5, "error: a config document must be an object, got 5"),
        (None, "error: a config document must be an object, got None"),
        (NESTED, "error: a config document nests too deeply to parse"),
    ],
    ids=["subset_arm-stage_cap-0", "elimination-stage_cap-0", "k-str", "base_seed-negative",
         "k-above-n", "k-0", "subset_arm-trace", "parity-trace", "trace-without-out",
         "subset_arm-exact_k_mode", "measure-unknown-key", "measure-n-mismatch",
         "joint-table-huge-k", "no-delta", "elimination-tiny-delta", "subset_arm-tiny-delta",
         "k-5001-digits", "root-list", "root-str", "root-int",
         "root-null", "nested-100000"],
)
def test_bad_config_is_one_line_error(tmp_path, overrides, message):
    doc = overrides
    if isinstance(overrides, dict):
        doc = {"measure": ProductMeasure(means=(0.9, 0.6, 0.2, 0.1)).to_dict(),
               "model": "semi", "k": 2, "delta": 0.1, **overrides}
        doc = {key: value for key, value in doc.items() if value is not DROP}
    path = tmp_path / "cfg.json"
    text = json.dumps(doc, default=lambda v: "NESTED" if v is NESTED else "HUGE")
    path.write_text(text.replace('"HUGE"', "9" * 5001).replace('"NESTED"', "[" * 100_000))
    # a text that does not parse fails alike in both subcommands that read a config
    for command in ("run", "bounds") if overrides is NESTED else ("run",):
        done = _cli(command, "--config", str(path))
        assert done.returncode == EXIT_USAGE
        assert done.stderr.splitlines() == [message]
        assert "Traceback" not in done.stderr
        assert done.stdout == ""


@pytest.mark.parametrize("model, measure", [
    ("bandit", {"type": "planted", "n": 10**10, "k": 2, "mu": 0.4, "p": 0.9}),
    ("semi", {"type": "planted", "n": 10**10, "k": 2, "mu": 0.4, "p": 0.9}),
    ("semi", {"type": "coverage", "m": 10**13, "sets": [[0], [1], [2]]}),
], ids=["planted-bandit", "planted-semi", "coverage-semi"])
def test_instance_too_large_to_hold_is_one_line_error(tmp_path, model, measure):
    # a short config names the instance; under a 1.5 GB address space, which
    # numpy's import fits well within, the run cannot allocate it
    done = _run_cli(tmp_path, {"measure": measure, "model": model, "k": 2, "delta": 0.1},
                    memory_limit=1536 << 20)
    assert done.returncode == EXIT_USAGE
    [line] = done.stderr.splitlines()
    assert line.startswith("error: out of memory")
    assert done.stdout == ""


@pytest.mark.parametrize("measure", [
    {"type": "coverage", "m": 40, "sets": [[i] for i in range(30)]},
    {"type": "product", "means": [0.5, 0.4, 0.3, 0.2] + [0.1] * 26},
], ids=["coverage", "product"])
def test_baseline_past_the_subset_cap_fails_before_any_warning(tmp_path, measure):
    # no unique best 10-subset is known for either, which would be a warning
    done = _run_cli(tmp_path, {"measure": measure, "model": "bandit", "k": 10, "delta": 0.1,
                               "algorithm": "subset_arm"})
    assert done.returncode == EXIT_USAGE
    assert done.stderr.splitlines() == ["error: C(30,10) = 30045015 exceeds the cap 100000"]
    assert done.stdout == ""


def test_trace_option_rejected_for_baselines(tmp_path):
    # the --trace override is checked like the config key: no empty .trace file
    out = tmp_path / "res.jsonl"
    doc = {"measure": PlantedMeasure(4, 2, 0.5, 1.0).to_dict(), "model": "bandit",
           "k": 2, "delta": 0.1, "algorithm": "subset_arm"}
    done = _run_cli(tmp_path, doc, "--trace", "--out", str(out))
    assert done.returncode == EXIT_USAGE
    assert done.stderr.splitlines() == [TRACE_NEEDS_ELIMINATION]
    assert not out.exists() and not Path(f"{out}.trace").exists()


def test_trace_flag_without_an_output_path_is_one_line_error(tmp_path):
    # the stage trace is written beside the results, so without a path it has nowhere to go
    doc = {"measure": ProductMeasure(means=(0.9, 0.5, 0.2)).to_dict(), "model": "semi",
           "k": 1, "delta": 0.1}
    done = _run_cli(tmp_path, doc, "--trace")
    assert done.returncode == EXIT_USAGE
    assert done.stderr.splitlines() == [TRACE_NEEDS_OUT]
    assert done.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("where", ["missing/r.jsonl", "dir"])
def test_unusable_output_path_is_one_line_error_before_any_replicate(tmp_path, capsys,
                                                                     monkeypatch, where):
    (tmp_path / "dir").mkdir()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"measure": ProductMeasure(means=(0.8, 0.7, 0.6, 0.3)).to_dict(),
                                "model": "bandit", "k": 3, "delta": 0.1, "replicates": 200}))
    replicates = []
    monkeypatch.setattr(harness, "run_identification",
                        lambda *args: replicates.append(args) or pytest.fail("a replicate ran"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / where)]) == EXIT_USAGE
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: cannot write results to {tmp_path / where}: ")
    assert captured.out == "" and replicates == []


def test_verify_subcommand():
    # the verify budget: the whole oracle suite, interpreter start included, within 5 s
    started = time.perf_counter()
    done = _cli("verify")
    elapsed = time.perf_counter() - started
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == "ok: 6 oracle checks passed\n"
    assert elapsed < 5.0, elapsed


def test_verify_detects_violations(monkeypatch, capsys):
    # the CLI prints whatever verify_all reports, one JSON object per line
    monkeypatch.setattr(oracle, "verify_all", lambda: [{"check": "synthetic", "k": 2}])
    assert main(["verify"]) == EXIT_VERIFY_FAIL
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == [
        {"check": "synthetic", "k": 2}]


PLANTED_COMPONENTS = PlantedMeasure.components


def _planted_plus_p(self):
    """``PlantedMeasure.components`` with the correction added instead of subtracted."""
    _, a, b = PLANTED_COMPONENTS(self)
    return np.array([1.0, self.p]), a, b


INFO_SHARING = theory.info_sharing

# one deliberately broken calculator per check: (owner, attribute, replacement)
MUTANTS = {
    "check_planted": (PlantedMeasure, "components", _planted_plus_p),
    "check_w0": (theory, "phi", lambda p, mu, k: 0.0),
    "check_mu_bar_order": (oracle, "_record_weights",
                           lambda width, k1, model: np.full((2**width, k1), 0.5)),
    "check_kl_sandwich": (theory, "kl_bounds", lambda x, y: (1.0, 1.0)),
    "check_calT": (theory, "calT", lambda tau, n, delta: tau**2),
    # the sharing term over one mean fewer than the k1 - 1 other arms of a query
    "check_occlusion": (theory, "info_sharing",
                        lambda means, k, model: INFO_SHARING(means, max(1, k - 1), model)),
}


@pytest.mark.parametrize("check", oracle.CHECKS, ids=lambda check: check.__name__)
def test_verify_detects_broken_calculator(monkeypatch, capsys, check):
    monkeypatch.setattr(*MUTANTS[check.__name__])
    assert check() != []
    assert main(["verify"]) == EXIT_VERIFY_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(isinstance(json.loads(line)["check"], str) for line in lines)
