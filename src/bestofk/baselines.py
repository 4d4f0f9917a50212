"""Reference identifiers bracketing stagewise elimination.

``subset_arm_identify`` treats every k-subset as one arm observed through its
max bit and runs plain successive elimination over the C(n, k) subset arms
(the rows of ``measures._enumerate_subsets``, which ``Measure.optimum`` scores).
``parity_identify`` is the semi-bandit detector for the planted instance at
mu = 1/2: the XOR of a queried subset's bits is a fair coin everywhere except
on the hidden subset, where its bias is p/2.

Both share the empirical-Bernstein interval of the main algorithm (with the
union bound taken over subset arms) and the same doubling, fresh-samples
stage structure, so query counts are directly comparable.  The early stages,
whose every radius is above 1/2, cannot drop a subset; a run takes them
undrawn before its stage loop, in elimination's one generator jump
(``elimination._skip_undecidable_stages``, with the C(n, k) subset arms as
the union bound's count), which counts their queries, so every record and
the generator's end state equal the fully simulated run's.  A play's
``elimination.StageShape`` (what ``stage_shape`` states for elimination) is a
row of k arms per subset arm and nothing else.
"""

from __future__ import annotations

import numpy as np

from .elimination import STAGE_CAP, StageShape, _skip_undecidable_stages, confidence_radius
from .errors import DomainError
from .measures import DRAW_ELEMENTS, Measure, _enumerate_subsets, fold_columns, sample_matrix
from .trial import TrialRecord

__all__ = ["subset_arm_identify", "parity_identify"]


def _eliminate_over_subsets(
    env: Measure,
    k: int,
    fold: np.ufunc,
    delta: float,
    rng: np.random.Generator,
    stage_cap: int,
) -> TrialRecord:
    """Successive elimination over the k-subset arms with doubling fresh budgets.

    A pull of subset S reads one binary outcome: its bits folded with ``fold``
    (OR gives the max, XOR the parity).  A subset is dropped once its upper
    bound falls below the best lower bound; stage decisions use that stage's
    fresh draws only, matching the stagewise interval bookkeeping.  When
    k = n the one subset is returned without a query; a run still ambiguous
    at the cap returns its empirical leader, flagged inconclusive.

    The leading stages that cannot drop a subset are taken undrawn before
    the loop by ``_skip_undecidable_stages``, and the returned record is the
    one the drawn stages give.
    """
    if not (1 <= k <= env.n):
        raise DomainError("need 1 <= k <= n")
    if stage_cap < 1:
        raise DomainError("stage_cap must be >= 1")
    survivors = _enumerate_subsets(env.n, k)
    n_arms = len(survivors)
    # a draw holds at most draw_rows rows of k arms: the largest power of two
    # (so it divides every larger 2**t) with draw_rows * k <= DRAW_ELEMENTS
    draw_rows = 1 << ((DRAW_ELEMENTS // k).bit_length() - 1)
    t, total_queries = _skip_undecidable_stages(env, rng, n_arms, delta, stage_cap,
                                                StageShape(n_arms, k, 0, 0))
    mu = np.zeros(n_arms)
    while t <= stage_cap and len(survivors) > 1:
        big_t = 2**t
        queries = big_t * len(survivors)  # one row per query
        total_queries += queries
        # row r observes survivor r // big_t; a draw takes the next draw_rows
        # rows: whole survivors while they fit, else part of one survivor
        rows = min(big_t, draw_rows)
        hits = np.zeros(len(survivors), dtype=np.uint64)
        for lo in range(0, queries, draw_rows):
            group = slice(lo // big_t, lo // big_t + draw_rows // rows)
            arms = np.repeat(survivors[group], rows, axis=0)
            draws = sample_matrix(env, rng, arms)
            hits[group] += fold_columns(draws, fold).reshape(-1, rows).sum(axis=1)
        mu = hits / big_t
        radius = confidence_radius(mu, n_arms, t, delta)
        keep = mu + radius >= (mu - radius).max()
        survivors, mu, t = survivors[keep], mu[keep], t + 1
    return TrialRecord(returned=tuple(survivors[mu.argmax()].tolist()), stages=t - 1,
                       total_queries=total_queries, inconclusive=len(survivors) > 1)


def subset_arm_identify(
    env: Measure, k: int, delta: float, rng: np.random.Generator, stage_cap: int = STAGE_CAP
) -> TrialRecord:
    """Naive identifier: each subset is an independent arm under bandit feedback."""
    return _eliminate_over_subsets(env, k, np.bitwise_or, delta, rng, stage_cap)


def parity_identify(
    env: Measure, k: int, delta: float, rng: np.random.Generator, stage_cap: int = STAGE_CAP
) -> TrialRecord:
    """Parity detector (semi-bandit only): find the subset whose XOR leaves 1/2.

    Intended for planted instances with mu = 1/2, where the hidden subset's
    parity is Bernoulli(1/2 + p/2) and every other subset's is exactly fair.
    """
    return _eliminate_over_subsets(env, k, np.bitwise_xor, delta, rng, stage_cap)
