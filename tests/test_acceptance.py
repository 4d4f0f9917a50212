"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test covers one numbered criterion, asserts the stated tolerance and
runtime budget, and prints a single PASS line (visible with ``pytest -s`` or
in the captured output).
"""

import hashlib
import math
import time
from itertools import combinations

import numpy as np

from bestofk.baselines import subset_arm_identify
from bestofk.elimination import confidence_radius, run_identification, stage_play
from bestofk.harness import ExperimentConfig, replicate_rng, run_experiment
from bestofk.measures import PlantedMeasure, ProductMeasure, sample_matrix
from bestofk.oracle import (
    check_calT,
    check_kl_sandwich,
    check_mu_bar_order,
    check_planted,
    check_w0,
    exact_query_stats,
)
from bestofk.theory import (
    bernoulli_kl,
    dependent_lower_bound,
    h_sharing,
    info_sharing,
    inversion_sample_size,
    simplified_dependent_lower_bound,
    true_variance_radius,
)

P_GRID = (0.25, 0.5, 1.0)


def _report(cid: str, started: float, budget_s: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"{cid} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {cid} PASS ({elapsed:.2f}s) {detail}")


def test_c01_planted_construction_exactness():
    started = time.perf_counter()
    assert check_planted() == []
    _report("C1", started, 30.0, "k in 2..6, 4 mus, 3 ps, all within 1e-12")


def test_c02_joint_correspondence():
    started = time.perf_counter()
    assert check_w0() == []
    _report("C2", started, 10.0, "Phi endpoints; 20- and 7-point w0 grids valid; outside go negative")


def test_c03_identification_correctness():
    started = time.perf_counter()
    replicates = 200
    delta = 0.1
    floor = 0.9 - 3 * math.sqrt(0.09 / replicates)
    instances = {
        "semi": ProductMeasure(means=(0.8, 0.7, 0.6) + (0.3,) * 7),
        "marked": ProductMeasure(means=(0.8, 0.7, 0.6) + (0.3,) * 7),
        "bandit": ProductMeasure(means=(0.8, 0.7, 0.6) + (0.3,) * 8),
    }
    rates = {}
    for model, env in instances.items():
        wins = 0
        for r in range(replicates):
            rec = run_identification(env, model, 3, delta, replicate_rng(2024, r))
            wins += rec.returned == (0, 1, 2)
        rates[model] = wins / replicates
        assert rates[model] >= floor, (model, rates[model], floor)
    detail = ", ".join(f"{m}={rates[m]:.3f}" for m in rates) + f" (floor {floor:.3f})"
    _report("C3", started, 300.0, detail)


def test_c04_recording_order_preservation():
    started = time.perf_counter()
    means = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2)
    env = ProductMeasure(means=means)
    plays = 100_000
    assert check_mu_bar_order() == []
    for model in ("bandit", "marked", "semi"):
        stats = exact_query_stats(env, range(8), k1=3, model=model)
        y, _ = stage_play(env, range(8), (), (), 3, 0, model, plays,
                          np.random.default_rng(77))
        for i in range(8):
            se = math.sqrt(stats[i] * (1 - stats[i]) / plays)
            assert abs(y[i] / plays - stats[i]) < 4 * se, (model, i)
    _report("C4", started, 60.0, "exact ordering strict; MC within 4 s.e. at 1e5 plays")


def test_c05_interval_validity():
    started = time.perf_counter()
    delta = 0.1
    runs, stages, n_arms = 500, 12, 10
    mu_bars = np.linspace(0.05, 0.95, n_arms)
    rng = np.random.default_rng(4242)
    covered = np.ones(runs, dtype=bool)
    for t in range(1, stages + 1):
        big_t = 2**t
        draws = rng.binomial(big_t, mu_bars, size=(runs, n_arms)) / big_t
        for j in range(n_arms):
            for run in range(runs):
                c = confidence_radius(float(draws[run, j]), big_t, n_arms, t, delta)
                if abs(draws[run, j] - mu_bars[j]) > c:
                    covered[run] = False
    rate = covered.mean()
    floor = 1 - delta - 3 * math.sqrt(delta * (1 - delta) / runs)
    assert rate >= floor, (rate, floor)

    for v in (0.0025, 0.01, 0.09, 0.25):
        for gap in (0.05, 0.1, 0.2, 0.4):
            for n in (2, 10, 100):
                for d in (0.01, 0.1):
                    T = inversion_sample_size(v, gap, n, d)
                    assert true_variance_radius(v, T, n, d) <= gap
    _report("C5", started, 60.0, f"coverage {rate:.3f} >= {floor:.3f}; inversion grid clean")


def test_c06_kl_sandwich():
    started = time.perf_counter()
    assert abs(bernoulli_kl(0.5, 0.25) - 0.143841) <= 1e-6
    assert check_kl_sandwich() == []
    _report("C6", started, 1.0, "13,000 random pairs over three seeds, zero violations")


def test_c07_parity_estimator():
    started = time.perf_counter()
    draws_per = 100_000
    se = math.sqrt(0.25 / draws_per)
    rng = np.random.default_rng(31)
    for p in P_GRID:
        env = PlantedMeasure(5, 2, 0.5, p)
        draws = sample_matrix(env, rng, draws_per)
        star = float((draws[:, 0] ^ draws[:, 1]).mean())
        assert abs(star - (0.5 + p / 2)) < 4 * se, (p, star)
        for other in ((0, 2), (1, 3), (2, 4)):
            mean = float((draws[:, other[0]] ^ draws[:, other[1]]).mean())
            assert abs(mean - 0.5) < 4 * se, (p, other, mean)
    _report("C7", started, 10.0, "W(S*) = 1/2 + p/2 and W(S) = 1/2 within 4 s.e.")


def test_c08_combinatorial_scaling():
    started = time.perf_counter()
    seeds = 25
    medians = {}
    for n in (4, 5, 6):
        env = PlantedMeasure(n, 2, 0.5, 1.0)
        totals = [
            subset_arm_identify(env, 2, 0.1, replicate_rng(808, 100 * n + s)).total_queries
            for s in range(seeds)
        ]
        medians[n] = float(np.median(totals))
    base = medians[4] / math.comb(4, 2)
    details = []
    for n in (5, 6):
        per_subset = medians[n] / math.comb(n, 2)
        ratio = per_subset / base
        assert 0.5 <= ratio <= 1.5, (n, medians, ratio)
        details.append(f"n={n}: x{medians[n] / medians[4]:.2f} vs C-ratio {math.comb(n, 2) / 6:.2f}")
    _report("C8", started, 300.0, "; ".join(details))


def test_c09_calculator_goldens():
    started = time.perf_counter()
    # small-p regime of the dependent bound collapses to the 1/3 constant
    for k in (2, 3, 4):
        mu = 1 - 2 ** (-1 / k)
        p = 1e-12
        full = dependent_lower_bound(8, k, mu, p, 0.05, "bandit").value
        simple = simplified_dependent_lower_bound(8, k, p * mu**k, 0.05)
        assert abs(full - simple) <= 1e-9 * simple

    assert check_calT() == []

    rng = np.random.default_rng(17)
    for _ in range(100):
        k = int(rng.integers(1, 15))
        means = rng.uniform(0, 1, size=max(k - 1, 1))
        assert info_sharing(list(means), k, "marked") >= 1.0 / k - 1e-12

    for n in (3, 6, 9, 12):
        means = tuple(float(m) for m in rng.uniform(0, 1, n))
        for p_pull in range(1, n + 1):
            for j in range(n):
                brute = max(
                    (math.prod(1 - means[i] for i in s)
                     for s in combinations([i for i in range(n) if i != j], p_pull - 1)),
                    default=1.0,
                )
                assert abs(h_sharing(means, j, p_pull) - brute) <= 1e-12 * max(1.0, brute)
    _report("C9", started, 10.0, "1/3-regime, calT identity grid, sharing floors, h shortcut")


def test_c10_determinism(tmp_path):
    started = time.perf_counter()
    config = ExperimentConfig(
        measure=ProductMeasure(means=(0.85, 0.6, 0.25, 0.1)).to_dict(),
        model="marked",
        k=2,
        delta=0.1,
        replicates=5,
        base_seed=1234,
        out=str(tmp_path / "first.jsonl"),
    )
    run_experiment(config)
    import dataclasses

    rerun = dataclasses.replace(config, out=str(tmp_path / "second.jsonl"))
    run_experiment(rerun)
    h1 = hashlib.sha256((tmp_path / "first.jsonl").read_bytes()).hexdigest()
    h2 = hashlib.sha256((tmp_path / "second.jsonl").read_bytes()).hexdigest()
    assert h1 == h2
    _report("C10", started, 60.0, f"sha256 {h1[:12]} identical across reruns")
