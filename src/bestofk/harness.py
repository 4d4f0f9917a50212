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
import struct
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import parity_identify, subset_arm_identify
from .elimination import STAGE_CAP, run_identification
from .errors import BestOfKError, DomainError, MismatchError
from .game import check_model
from .measures import (Measure, PlantedMeasure, ProductMeasure, _enumerate_subsets, _unique_best,
                       checked, document, measure_from_dict, optimal_subset, read_fields)
from .trial import TrialRecord

__all__ = [
    "ExperimentConfig",
    "ExperimentSummary",
    "run_experiment",
    "write_results",
    "applicable_bounds",
    "compare_to_bounds",
    "replicate_rng",
]

ALGORITHMS = ("elimination", "subset_arm", "parity")
# the least delta a config may name: a log argument of a run or a bound is
# some c / delta (c: n, t^2, tau, constants), finite from here up for c < 1e108
DELTA_FLOOR = 1e-200

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
        if self.delta < DELTA_FLOOR:
            raise DomainError(f"delta={self.delta!r} is too small: below {DELTA_FLOOR!r} the "
                              f"log terms of the radius and the bounds can overflow")
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
        try:
            doc = json.loads(text)
        except RecursionError:
            raise DomainError("a config document nests too deeply to parse") from None
        return cls(**read_fields(cls, doc, "config"))


def replicate_rng(base_seed: int, replicate: int) -> np.random.Generator:
    """Independent stream for one replicate via SeedSequence([base_seed, r])."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, replicate]))


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
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _quantile(ordered: Sequence[int], q: float) -> float:
    """``np.quantile(ordered, q)`` of a sorted nonempty list, bit for bit, without
    the ``numpy.ma`` import (about 20 ms) it makes: the virtual index (n - 1) q
    and numpy's lerp, taken from the upper neighbour once the fraction is 1/2."""
    index = (len(ordered) - 1) * q
    lo = math.floor(index)
    a, b, t = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)], index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def summarize(records: Sequence[TrialRecord], config: ExperimentConfig) -> ExperimentSummary:
    """Order-independent aggregation of a trial batch."""
    if not records:
        raise DomainError("no trial records to summarize")
    queries = sorted(r.total_queries for r in records)
    qs = {
        "min": float(queries[0]),
        "q25": _quantile(queries, 0.25),
        "median": _quantile(queries, 0.5),
        "q75": _quantile(queries, 0.75),
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
    echo = document(config)
    # the echo identifies the experiment; destination paths are not part of it
    echo.pop("out")
    echo.pop("trace")
    return ExperimentSummary(
        replicates=len(records),
        successes=successes,
        success_rate=rate,
        success_ci=ci,
        query_quantiles=qs,
        inconclusive=sum(1 for r in records if r.inconclusive),
        config=echo,
    )


def _check_output_paths(out: Path, trace: bool) -> None:
    """A ``DomainError`` unless the results file ``out``, and the stage trace
    beside it when ``trace`` is on, can be written: their directory is one and
    neither of them is."""
    if not out.parent.is_dir():
        raise DomainError(f"cannot write results to {out}: {out.parent} is not a directory")
    for path in (out, Path(f"{out}.trace")) if trace else (out,):
        if path.is_dir():
            raise DomainError(f"cannot write results to {path}: it is a directory")


def _run_warnings(env: Measure, config: ExperimentConfig,
                  truth: tuple[int, ...] | None) -> list[str]:
    """What makes a run's outcome unscorable or its end doubtful, known before it starts."""
    lines = []
    if truth is None:
        lines.append(f"no unique best {config.k}-subset is known, so no replicate is scored")
    if config.algorithm == "elimination":
        ranked = sorted(env.marginals(), reverse=True)[config.k - 1:config.k + 1]
        if _unique_best(np.array(ranked)) is None:  # never at k = n: one marginal ranked
            lines.append(f"the arm marginals ranked {config.k} and {config.k + 1} tie at "
                         f"{ranked[0]!r}, so elimination may return another subset than the "
                         f"optimum or stop only at its stage cap")
    return lines


def run_experiment(config: ExperimentConfig) -> tuple[list[TrialRecord], ExperimentSummary]:
    """Run all replicates; optionally persist records + summary to config.out.

    Before the first replicate, an unusable output path raises ``DomainError``,
    a baseline's C(n, k) past ``SUBSET_CAP`` raises ``SubsetCapError``, and
    each line of ``_run_warnings`` goes to stderr as a ``warning:`` line.

    Elimination keeps its ``stage_log`` only when ``config.trace`` is on, since
    the stage trace is its only reader.  Traced or not, every identifier
    takes the leading stages that cannot decide anything undrawn
    (``elimination._skip_undecidable_stages``), so a trace starts at the
    first drawn stage.
    """
    env = measure_from_dict(config.measure)
    if config.out:
        _check_output_paths(Path(config.out), config.trace)
    truth = optimal_subset(env, config.k)
    if config.algorithm != "elimination":
        _enumerate_subsets(env.n, config.k)
    records: list[TrialRecord] = []
    for r in range(config.replicates):
        seed_rng = replicate_rng(config.base_seed, r)
        if r == 0:
            # a draw of no rows takes nothing from the stream but builds the
            # sampler's tables, so an instance too large to hold fails before
            # any warning
            env.draw(seed_rng, np.empty((0, 1), dtype=np.int64))
            for line in _run_warnings(env, config, truth):
                print(f"warning: {line}", file=sys.stderr)
        started = time.perf_counter()
        if config.algorithm == "elimination":
            rec = run_identification(env, config.model, config.k, config.delta, seed_rng,
                                     config.stage_cap, config.exact_k_mode, config.trace)
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
                # the first state word of the replicate's seed sequence
                seed=int(seed_rng.bit_generator.seed_seq.generate_state(1, np.uint64)[0]),
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


class _FloatTexts(dict):
    """``json.dumps`` of each float64 looked up, keyed by its bits (where 0.0
    and -0.0 differ), each formatted once."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = json.dumps(struct.unpack("=d", struct.pack("=q", bits))[0])
        return text


def _write_stage_trace(path: Path, records: Sequence[TrialRecord]) -> None:
    """One line per stage, for the records in the order given.

    Each line is, byte for byte, ``json.dumps(..., sort_keys=True)`` of the
    stage's document (``kind``, ``replicate`` and the record's fields, with
    ``undecided`` as a count) whose ``mu_hat`` and ``c_hat`` are
    ``{arm: value}`` objects.  The line is formatted here from the record's
    arrays: an object lists its arms in string order ("10" before "2") through
    a format string built once per undecided tuple, and each distinct float
    is formatted once per file.
    """
    objects: dict[tuple[int, ...], str] = {}
    texts = _FloatTexts()

    def ints(values: tuple[int, ...]) -> str:
        return "[" + ", ".join(map(str, values)) + "]"

    with open(path, "w") as fh:
        for rec in records:
            replicate = json.dumps(rec.replicate)
            for s in rec.stage_log:
                obj = objects.get(s.undecided)
                if obj is None:
                    pairs = sorted(enumerate(s.undecided), key=lambda pair: str(pair[1]))
                    obj = objects[s.undecided] = (
                        "{{" + ", ".join(f'"{arm}": {{{i}}}' for i, arm in pairs) + "}}")
                c_hat = obj.format(*map(texts.__getitem__, s.c_hat.view(np.int64).tolist()))
                mu_hat = obj.format(*map(texts.__getitem__, s.mu_hat.view(np.int64).tolist()))
                fh.write(
                    f'{{"accepted": {s.accepted}, "accepted_now": {ints(s.accepted_now)}, '
                    f'"balancing": {s.balancing}, "c_hat": {c_hat}, "kind": "stage", '
                    f'"mu_hat": {mu_hat}, "queries": {s.queries}, "rejected": {s.rejected}, '
                    f'"rejected_now": {ints(s.rejected_now)}, "replicate": {replicate}, '
                    f'"sample_size": {s.sample_size}, "t": {s.t}, '
                    f'"undecided": {len(s.undecided)}}}\n'
                )


def write_results(path: Path, records: Sequence[TrialRecord],
                  summary: ExperimentSummary) -> None:
    """Line-delimited records in the order given, then the summary record."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
        fh.write(json.dumps(summary.to_dict(), sort_keys=True) + "\n")


def applicable_bounds(config: ExperimentConfig) -> list[BoundReport]:
    """The closed-form bounds that apply to ``config``'s instance.

    A planted measure gets the dependent lower bound and the all-zeros
    feasible range, a product measure ``upper_bound_total`` and, under bandit
    or semi feedback, the independent lower bound.  ``theory`` is imported
    here, so that a run never loads it.
    """
    from .theory import (BoundReport, GapProfile, dependent_lower_bound, feasible_range,
                         independent_lower_bound, upper_bound_total)

    env = measure_from_dict(config.measure)
    reports: list[BoundReport] = []
    if isinstance(env, PlantedMeasure):
        if config.k != env.k:
            raise MismatchError(f"planted measure has k={env.k}, config has k={config.k}")
        reports.append(
            dependent_lower_bound(env.n, env.k, env.mu, env.p, config.delta, config.model)
        )
        rng = feasible_range(env.mu, env.k)
        reports.append(
            BoundReport(
                name="all_zeros_feasible_range",
                inputs={"mu": env.mu, "k": env.k},
                value=rng.hi - rng.lo,
                terms={"lo": rng.lo, "hi": rng.hi, "phi": list(rng.phi_table)},
            )
        )
    elif isinstance(env, ProductMeasure):
        profile = GapProfile(means=env.marginals(), k=config.k)
        reports.append(upper_bound_total(profile, config.model, config.delta,
                                         fewer_than_k_allowed=config.exact_k_mode is False))
        if config.model in ("bandit", "semi"):
            reports.append(
                independent_lower_bound(
                    profile.means, config.k, config.k, config.delta, config.model
                )
            )
    else:
        raise BestOfKError(
            "bounds are defined for product and planted measure configs"
        )
    return reports


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
