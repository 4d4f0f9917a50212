"""Command-line surface.

Subcommands:
  run     --config <path> [--seed N] [--out <path>] [--trace]
  bounds  --config <path>
  verify

Exit codes: 0 success, 1 usage or config error, 2 verification failure,
3 inconclusive (a run hit its stage cap).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import BestOfKError, DomainError, MismatchError
from .harness import ExperimentConfig, run_experiment
from .measures import PlantedMeasure, ProductMeasure, measure_from_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_INCONCLUSIVE = 3


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_json(fh.read())


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.trace:
        overrides["trace"] = True
    if overrides:
        config = dataclasses.replace(config, **overrides)
    if config.trace and not config.out:
        raise DomainError("trace needs an output path (--out or the config key 'out'): "
                          "the stage trace is written beside the results")
    records, summary = run_experiment(config)
    print(json.dumps(summary.to_dict(), sort_keys=True))
    if any(r.inconclusive for r in records):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _applicable_bounds(config: ExperimentConfig) -> list[BoundReport]:
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


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    for report in _applicable_bounds(config):
        print(report.render())
        print()
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import CHECKS, verify_all

    violations = verify_all()
    for v in violations:
        print(json.dumps(v, sort_keys=True))
    if violations:
        print(f"FAIL: {len(violations)} violation(s)", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print(f"ok: {len(CHECKS)} oracle checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bestofk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a replicated identification experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--trace", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_bounds = sub.add_parser("bounds", help="print closed-form bounds for a config")
    p_bounds.add_argument("--config", required=True)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the exact-enumeration validation suite")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (BestOfKError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a short config can name an instance too large to hold
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
