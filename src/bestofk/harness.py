"""Experiment orchestration: configs, seeded replication, persistence.

Replicate r runs on ``default_rng(SeedSequence([base_seed, r]))``, a splittable
counter-mixed scheme, so replicates are independent streams and any rerun of
the same config and base seed reproduces every trial exactly.  Results files
are line-delimited JSON (one trial per line plus a closing summary record)
and contain nothing volatile, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import parity_identify, subset_arm_identify
from .elimination import STAGE_CAP, run_identification
from .errors import DomainError, MismatchError
from .measures import checked, document, measure_from_dict, optimal_subset, read_fields
from .theory import BoundReport, check_model
from .trial import TrialRecord

__all__ = [
    "ExperimentConfig",
    "ExperimentSummary",
    "run_experiment",
    "write_results",
    "compare_to_bounds",
    "replicate_rng",
]

ALGORITHMS = ("elimination", "subset_arm", "parity")

@dataclass(frozen=True)
class ExperimentConfig:
    measure: dict
    model: str
    k: int
    delta: float
    algorithm: str = "elimination"
    replicates: int = 1
    base_seed: int = 0
    exact_k_mode: bool | None = None
    stage_cap: int = STAGE_CAP
    out: str | None = None
    trace: bool = False

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, checked("config", f.name, getattr(self, f.name)))
        if self.algorithm not in ALGORITHMS:
            raise DomainError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        check_model(self.model)
        if self.replicates < 1:
            raise DomainError("replicates must be >= 1")
        if self.base_seed < 0:
            raise DomainError("base_seed must be >= 0")
        if self.stage_cap < 1:
            raise DomainError("stage_cap must be >= 1")
        if not (0.0 < self.delta < 1.0):
            raise DomainError("delta must lie in (0, 1)")
        if self.algorithm == "parity" and self.model != "semi":
            raise DomainError("the parity baseline is defined for semi-bandit feedback only")
        if self.trace and self.algorithm != "elimination":
            raise DomainError("trace needs algorithm 'elimination': the baselines keep no stage log")
        if self.exact_k_mode is not None and self.algorithm != "elimination":
            raise DomainError(
                "exact_k_mode needs algorithm 'elimination': the baselines query whole k-subsets"
            )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**read_fields(cls, json.loads(text), "config"))

    def to_json(self) -> str:
        return json.dumps(document(self), sort_keys=True)


def replicate_rng(base_seed: int, replicate: int) -> np.random.Generator:
    """Independent stream for one replicate via SeedSequence([base_seed, r])."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, replicate]))


def derived_seed(base_seed: int, replicate: int) -> int:
    """The first state word of the replicate's seed sequence (for the record)."""
    return int(np.random.SeedSequence([base_seed, replicate]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentSummary:
    replicates: int
    successes: int | None
    success_rate: float | None
    success_ci: tuple[float, float] | None
    query_quantiles: dict[str, float]
    inconclusive: int
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return document(self, kind="summary")


def _wilson_interval(successes: int, total: int) -> tuple[float, float]:
    z = 1.96  # two-sided 95%
    if total == 0:
        return 0.0, 1.0
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def summarize(records: Sequence[TrialRecord], config: ExperimentConfig) -> ExperimentSummary:
    """Order-independent aggregation of a trial batch."""
    if not records:
        raise DomainError("no trial records to summarize")
    queries = sorted(r.total_queries for r in records)
    qs = {
        "min": float(queries[0]),
        "q25": float(np.quantile(queries, 0.25)),
        "median": float(np.quantile(queries, 0.5)),
        "q75": float(np.quantile(queries, 0.75)),
        "max": float(queries[-1]),
        "mean": float(np.mean(queries)),
    }
    known = [r.success for r in records if r.success is not None]
    if known:
        successes = sum(known)
        rate = successes / len(known)
        ci = _wilson_interval(successes, len(known))
    else:
        successes, rate, ci = None, None, None
    echo = json.loads(config.to_json())
    # the echo identifies the experiment; destination paths are not part of it
    echo.pop("out", None)
    echo.pop("trace", None)
    return ExperimentSummary(
        replicates=len(records),
        successes=successes,
        success_rate=rate,
        success_ci=ci,
        query_quantiles=qs,
        inconclusive=sum(1 for r in records if r.inconclusive),
        config=echo,
    )


def run_experiment(config: ExperimentConfig) -> tuple[list[TrialRecord], ExperimentSummary]:
    """Run all replicates; optionally persist records + summary to config.out."""
    env = measure_from_dict(config.measure)
    truth = optimal_subset(env, config.k)
    records: list[TrialRecord] = []
    for r in range(config.replicates):
        seed_rng = replicate_rng(config.base_seed, r)
        started = time.perf_counter()
        if config.algorithm == "elimination":
            rec = run_identification(env, config.model, config.k, config.delta, seed_rng,
                                     config.stage_cap, config.exact_k_mode)
        else:
            identify = subset_arm_identify if config.algorithm == "subset_arm" else parity_identify
            rec = identify(env, config.k, config.delta, seed_rng, config.stage_cap)
        elapsed = time.perf_counter() - started
        success = None
        if truth is not None and not rec.inconclusive:
            success = tuple(sorted(rec.returned)) == truth
        records.append(
            replace(
                rec,
                replicate=r,
                seed=derived_seed(config.base_seed, r),
                success=success,
                wall_time=elapsed,
            )
        )
    summary = summarize(records, config)
    if config.out:
        write_results(Path(config.out), records, summary)
        if config.trace:
            _write_stage_trace(Path(str(config.out) + ".trace"), records)
    return records, summary


def _write_stage_trace(path: Path, records: Sequence[TrialRecord]) -> None:
    with open(path, "w") as fh:
        for rec in sorted(records, key=lambda r: r.replicate or 0):
            for stage in rec.stage_log:
                doc = document(stage, kind="stage", replicate=rec.replicate)
                fh.write(json.dumps(doc, sort_keys=True) + "\n")


def write_results(path: Path, records: Sequence[TrialRecord],
                  summary: ExperimentSummary) -> None:
    """Line-delimited records in replicate order, then the summary record."""
    ordered = sorted(records, key=lambda r: r.replicate if r.replicate is not None else -1)
    with open(path, "w") as fh:
        for rec in ordered:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
        fh.write(json.dumps(summary.to_dict(), sort_keys=True) + "\n")


def compare_to_bounds(summary: ExperimentSummary, bounds: Sequence[BoundReport]) -> dict:
    """Ratio of observed median queries to each calculated bound.

    Reports each bound's value and ``median_ratio``; it asserts nothing, since
    lower bounds hold only in expectation for delta-correct algorithms.
    Bound inputs must name the same (n, k) instance the summary was produced
    on.
    """
    if summary.replicates == 0:
        raise DomainError("empty summary")
    cfg = summary.config
    n_cfg = cfg.get("measure", {}).get("n")
    report: dict[str, dict] = {}
    median = summary.query_quantiles["median"]
    for bound in bounds:
        b_n, b_k = bound.inputs.get("n"), bound.inputs.get("k")
        if b_n is None and "means" in bound.inputs:
            b_n = len(bound.inputs["means"])
        if b_n is not None and n_cfg is not None and b_n != n_cfg:
            raise MismatchError(f"bound {bound.name} is for n={b_n}, experiment has n={n_cfg}")
        if b_k is not None and b_k != cfg.get("k"):
            raise MismatchError(f"bound {bound.name} is for k={b_k}, experiment has k={cfg.get('k')}")
        ratio = median / bound.value if bound.value > 0 else math.inf
        report[bound.name] = {"value": bound.value, "median_ratio": ratio}
    return {"median_queries": median, "bounds": report}
