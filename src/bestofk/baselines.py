"""Reference identifiers bracketing stagewise elimination.

``subset_arm_identify`` treats every k-subset as one arm observed through its
max bit and runs plain successive elimination over the C(n, k) subset arms.
``parity_identify`` is the semi-bandit detector for the planted instance at
mu = 1/2: the XOR of a queried subset's bits is a fair coin everywhere except
on the hidden subset, where its bias is p/2.

Both share the empirical-Bernstein interval of the main algorithm (with the
union bound taken over subset arms) and the same doubling, fresh-samples
stage structure, so query counts are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .elimination import confidence_radius
from .errors import DomainError, SubsetCapError
from .game import QueryLedger
from .measures import Measure, sample_matrix
from .trial import TrialRecord

__all__ = ["SubsetArm", "ParityStat", "subset_arm_identify", "parity_identify"]

SUBSET_CAP = 100_000
DRAW_ROWS = 1 << 18  # bounds the memory of one stage's draw


@dataclass
class SubsetArm:
    """Pull statistics of one subset treated as a bandit arm."""

    subset: tuple[int, ...]
    pulls: int = 0
    ones: int = 0

    def __post_init__(self):
        if self.ones > self.pulls:
            raise DomainError("ones cannot exceed pulls")


@dataclass
class ParityStat:
    """Pull statistics of one subset's parity bit."""

    subset: tuple[int, ...]
    pulls: int = 0
    parity_ones: int = 0

    def __post_init__(self):
        if self.parity_ones > self.pulls:
            raise DomainError("parity_ones cannot exceed pulls")


def _enumerate_subsets(n: int, k: int, cap: int) -> list[tuple[int, ...]]:
    count = math.comb(n, k)
    if count > cap:
        raise SubsetCapError(f"C({n},{k}) = {count} exceeds the cap {cap}")
    return list(combinations(range(n), k))


def _eliminate_over_subsets(
    env: Measure,
    stats: dict[tuple[int, ...], "SubsetArm | ParityStat"],
    statistic: Callable[[np.ndarray], np.ndarray],
    count_field: str,
    delta: float,
    rng: np.random.Generator,
    stage_cap: int,
) -> TrialRecord:
    """Successive elimination over subset arms with doubling fresh budgets.

    ``statistic`` maps a (rows, |S|) bit matrix to one binary outcome per row; a subset is
    dropped once its upper bound falls below the best lower bound.  ``stats``
    accumulates lifetime pulls per subset; stage decisions use that stage's
    fresh draws only, matching the stagewise interval bookkeeping.
    """
    survivors = list(stats)
    n_arms = len(stats)
    ledger = QueryLedger()
    for t in range(1, stage_cap + 1):
        big_t = 2**t
        # big_t consecutive rows observe each survivor; one draw per stage
        # unless that would exceed DRAW_ROWS rows
        per_draw = max(1, DRAW_ROWS // big_t)
        ones_of = []
        for lo in range(0, len(survivors), per_draw):
            group = np.asarray(survivors[lo : lo + per_draw], dtype=np.int64)
            arms = np.repeat(group, big_t, axis=0)
            draws = sample_matrix(env, rng, len(arms), arms=arms)
            ones_of += statistic(draws).reshape(len(group), big_t).sum(axis=1).tolist()
        mu = {}
        for s, ones in zip(survivors, ones_of):
            rec = stats[s]
            rec.pulls += big_t
            setattr(rec, count_field, getattr(rec, count_field) + ones)
            mu[s] = ones / big_t
            ledger.record(s, count=big_t)
        radius = {
            s: confidence_radius(mu[s], big_t, n_arms, t, delta).c_hat for s in survivors
        }
        best_lower = max(mu[s] - radius[s] for s in survivors)
        survivors = [s for s in survivors if mu[s] + radius[s] >= best_lower]
        if len(survivors) == 1:
            return TrialRecord(
                returned=survivors[0], total_queries=ledger.total_queries, stages=t
            )
    # ambiguous after the cap: report the empirical leader, flagged
    leader = max(survivors, key=lambda s: mu[s])
    return TrialRecord(
        returned=leader,
        total_queries=ledger.total_queries,
        stages=stage_cap,
        inconclusive=True,
    )


def subset_arm_identify(
    env: Measure,
    k: int,
    delta: float,
    rng: np.random.Generator,
    subset_cap: int = SUBSET_CAP,
    stage_cap: int = 40,
) -> TrialRecord:
    """Naive identifier: each subset is an independent arm under bandit feedback."""
    n = env.n
    if not (1 <= k <= n):
        raise DomainError("need 1 <= k <= n")
    subsets = _enumerate_subsets(n, k, subset_cap)
    if len(subsets) == 1:
        return TrialRecord(returned=subsets[0], total_queries=0, stages=0)
    stats = {s: SubsetArm(subset=s) for s in subsets}
    return _eliminate_over_subsets(
        env, stats, lambda bits: bits.max(axis=1), "ones", delta, rng, stage_cap
    )


def parity_identify(
    env: Measure,
    k: int,
    delta: float,
    rng: np.random.Generator,
    subset_cap: int = SUBSET_CAP,
    stage_cap: int = 40,
) -> TrialRecord:
    """Parity detector (semi-bandit only): find the subset whose XOR leaves 1/2.

    Intended for planted instances with mu = 1/2, where the hidden subset's
    parity is Bernoulli(1/2 + p/2) and every other subset's is exactly fair.
    """
    n = env.n
    if not (1 <= k <= n):
        raise DomainError("need 1 <= k <= n")
    subsets = _enumerate_subsets(n, k, subset_cap)
    if len(subsets) == 1:
        return TrialRecord(returned=subsets[0], total_queries=0, stages=0)
    stats = {s: ParityStat(subset=s) for s in subsets}
    return _eliminate_over_subsets(
        env, stats, lambda bits: bits.sum(axis=1) % 2, "parity_ones", delta, rng, stage_cap
    )
