"""Stagewise elimination with variance-adaptive confidence intervals.

One stage: pick the per-query sample size k1 = min(|U|, k), optionally move a
few rejected arms back into the sampling pool (bandit balancing), run 2^t
independent uniform-play passes accumulating per-arm win counts, then accept
arms whose lower confidence bound clears the (k_t+1)-th largest upper bound
and reject arms whose upper bound falls under the k_t-th largest lower bound.
Fresh samples every stage; the budget doubles until k arms are accepted.

The leading stages whose every radius is above 1/2 cannot decide anything
(``_undecidable_stages``), whatever they draw.  ``_skip_undecidable_stages``
takes them undrawn before the stage loop and counts their queries, taking
nothing from the generator, so the first drawn stage draws from the start of
the stream.  This module's loop and the subset baselines' loop both call it,
for every measure and generator and whether or not the run keeps a stage
log, and each draws every stage it runs.

``stage_shape`` is the one statement of a play's layout.  ``stage_play``,
the one sampling engine behind ``run_identification``, lays out a chunk of
plays as queries, draws bits only for the queried arms and hands them to the
recorder, whose exact per-arm law is ``oracle.exact_query_stats``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, IdentifiabilityError, InfeasibleError
from .game import check_model
from .kernels import permute_pool, play_arms, queries_per_play, record_plays
from .measures import DRAW_ELEMENTS, Measure, held_buffer, sample_matrix
from .trial import StageRecord, TrialRecord

__all__ = [
    "STAGE_CAP",
    "StageShape",
    "confidence_radius",
    "stage_shape",
    "stage_play",
    "balance",
    "balance_set_size",
    "elimination_step",
    "run_identification",
]


# ---------------------------------------------------------------------------
# Empirical Bernstein intervals.
# ---------------------------------------------------------------------------

def confidence_radius(mu_hat: float | np.ndarray, n: int, t: int,
                      delta: float) -> float | np.ndarray:
    """Sample-variance Bernstein radius at stage t >= 1 with T = 2^t samples.

    v_hat = T mu(1-mu)/(T-1);
    c_hat = sqrt(2 v_hat log(8 n t^2/delta) / T) + 8 log(8 n t^2/delta) / (3(T-1)).

    Returns c_hat, unclipped: a float for one mean, an array of its shape for
    an array of means.  Each entry is computed elementwise in the order
    written above, so an array entry equals the scalar call on that mean bit
    for bit.

    One reduction checks the range: min(mu, 1-mu) >= 0 exactly when 0 <= mu
    <= 1 (NaN fails the comparison), and 1-mu is v_hat's own factor.  The
    factor 2 joins the log term before the array product: doubling is exact,
    so v_hat * (2 log) rounds the same real number as (2 v_hat) * log.
    """
    mu = np.asarray(mu_hat, dtype=float)
    rest = 1.0 - mu
    if not np.minimum.reduce(np.minimum(mu, rest), axis=None, initial=0.0) >= 0.0:
        raise DomainError("mu_hat must lie in [0, 1]")
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must lie in (0, 1)")
    if n < 1 or t < 1:
        raise DomainError("need n >= 1 and t >= 1")
    T, log_term = 2**t, math.log(8.0 * n * t * t / delta)
    if not math.isfinite(log_term):
        raise DomainError(f"delta={delta!r} is too small: log(8 n t^2 / delta) overflows")
    v_hat = T * mu * rest / (T - 1)
    c_hat = np.sqrt(v_hat * (2.0 * log_term) / T) + 8.0 * log_term / (3.0 * (T - 1))
    return float(c_hat) if mu.ndim == 0 else c_hat


@lru_cache(maxsize=64)
def _undecidable_stages(n_arms: int, delta: float) -> int:
    """How many leading stages cannot decide any of ``n_arms`` arms.

    ``n_arms`` is the union bound's count: the arms of elimination, or the
    subset arms of a baseline.  Every radius is at least the floor r_min =
    confidence_radius(0, ...), its square-root term being >= 0.  With
    r_min > 1/2, monotone rounding and 0 <= mu <= 1 give fl(mu_j + r_j) >=
    r_min > 1/2 >= fl(mu_i - r_i) (as mu_i - r_i < 1/2), so every upper bound
    clears every lower bound: no arm is accepted, rejected or dropped.  The
    floor falls as t grows, so the stages up to its first failure are all of
    them.  A delta whose log term overflows raises ``confidence_radius``'s
    ``DomainError``.
    """
    t = 1
    while confidence_radius(0.0, n_arms, t, delta) > 0.5:
        t += 1
    return t - 1


# a play's layout, as ``stage_shape`` states it
StageShape = namedtuple("StageShape", "q width topoff")


def stage_shape(pool: int, accepted: int, rejects: int, k1: int, k2: int) -> StageShape:
    """A play over ``pool`` arms in blocks of ``k1``, topped off by ``k2``:
    ``q`` = ceil(pool / k1) queries of ``width`` = k1 + k2 arms and a ``topoff``
    draw pool of the ``accepted`` arms if the ``rejects`` cannot fill k2, else
    of the rejects (none if k2 = 0)."""
    topoff = 0 if k2 == 0 else accepted if rejects < k2 else rejects
    return StageShape(queries_per_play(pool, k1), k1 + k2, topoff)


def _skip_undecidable_stages(n_arms: int, delta: float, stage_cap: int,
                             queries: int) -> tuple[int, int]:
    """Return (the first stage to draw, the queries of the stages before it,
    each of whose plays makes ``queries`` queries); nothing is drawn.

    The first s = min(``_undecidable_stages``, ``stage_cap`` - 1) stages go,
    so the cap stage, whose estimates name a baseline's leader, is drawn.
    None goes when ``n_arms``, the union bound's count, is one (a baseline at
    k = n, which queries nothing).  The s stages hold 2 + 4 + ... + 2^s =
    2^(s+1) - 2 plays.  Every stage draws fresh samples, and these decide
    nothing whatever they draw, so leaving them undrawn keeps every record's
    law."""
    if n_arms < 2:
        return 1, 0
    skipped = min(_undecidable_stages(n_arms, delta), stage_cap - 1)
    return skipped + 1, (2 ** (skipped + 1) - 2) * queries


# ---------------------------------------------------------------------------
# Stage engine.
# ---------------------------------------------------------------------------

CHUNK_PLAYS = 4096  # plays drawn per batch; fixed so a seed replays the same stream
STAGE_CAP = 40  # default bound on the doubling stages of every identifier


def stage_play(
    env: Measure,
    u_prime: Sequence[int],
    accept: Sequence[int],
    r_prime: Sequence[int],
    k1: int,
    k2: int,
    model: str,
    plays: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Run ``plays`` uniform passes, returning (win counts, queries issued).

    One play is a uniform pass over ``u_prime``: a random permutation cut
    into blocks of k1, the leftovers padded back to k1 by other pool arms
    that are not recorded twice, and in exact-k mode k2 top-off arms (rejects
    first, accepted arms as fill-in) joined unrecorded to every query, all as
    ``stage_shape`` states.  Per chunk (at most ``CHUNK_PLAYS`` plays, and at
    most ``DRAW_ELEMENTS`` plays x the widest row of keys a play draws: its
    pool or its top-off pool) it draws the permutations and top-off sets,
    lays the plays out as queries, draws one reward bit per queried arm and
    query, and credits wins through the permuted pool order
    (``kernels.record_plays``), which records order position i at slot
    i % k1 of query i // k1.  The sorted pools, the top-off's fixed arms and
    draw pool, the shape and the chunk size are settled once per stage.
    Each play's per-arm recording law is ``oracle.exact_query_stats``.

    A chunk permutes its pool, and its top-off draw pool, by one in-place
    sort of packed (key, arm) codes each (``kernels.permute_pool``, which for
    pools holding an arm of 2**11 or above orders by the keys' leading bits);
    a play takes the leading arms of its top-off permutation, or the arm of
    the least key when it draws one.  The permutation keys, the codes
    (``stage.perm``, the permuted pool once masked) and the arm layout are
    written into views of buffers held across chunks, stages and calls
    (``measures.held_buffer``), so no chunk re-faults freed pages; each
    holds at most one chunk.
    """
    urec = np.array(sorted(u_prime), dtype=np.int64)
    m = len(urec)
    if not (1 <= k1 <= m):
        raise DomainError("need 1 <= k1 <= |u_prime|")
    reject_pool = np.array(sorted(r_prime), dtype=np.int64)
    accept_pool = np.array(sorted(accept), dtype=np.int64)
    # the top-off: all rejects and the rest drawn from the accepted arms, or k2 rejects drawn
    fixed, pool = ((reject_pool, accept_pool) if len(reject_pool) < k2
                   else (reject_pool[:0], reject_pool))
    need = k2 - len(fixed)
    if len(pool) < need:
        raise InfeasibleError("cannot build a top-off set: pools too small")

    shape = stage_shape(m, len(accept_pool), len(reject_pool), k1, k2)
    chunk = max(1, min(CHUNK_PLAYS, DRAW_ELEMENTS // max(m, shape.topoff)))
    # every play's top-off row: the fixed arms, written once, then its drawn arms
    topoff = np.empty((min(chunk, plays), k2), dtype=np.int64)
    topoff[:, : len(fixed)] = fixed
    y = np.zeros(env.n, dtype=np.int64)
    done = 0
    while done < plays:
        b = min(chunk, plays - done)
        keys = rng.random(out=held_buffer("stage.keys", (b, m), np.float64))
        order = permute_pool(keys, urec, held_buffer("stage.perm", (b, m), np.int64))
        if need == 1:
            topoff[:b, -1] = pool[rng.random((b, len(pool))).argmin(axis=1)]
        elif need:
            # the first ``need`` arms of the pool in key order, permuted in the keys' memory
            picks = rng.random((b, len(pool)))
            topoff[:b, len(fixed) :] = permute_pool(picks, pool, picks.view(np.int64))[:, :need]
        arms = play_arms(order, topoff[:b], k1,
                         out=held_buffer("stage.arms", (b, shape.q, shape.width), np.int64))
        bits = sample_matrix(env, rng, arms.reshape(b * shape.q, -1)).reshape(arms.shape)
        mark_u = rng.random((b, shape.q)) if model == "marked" else None
        record_plays(bits, order, k1, model, y, mark_u)
        done += b
    return y, plays * shape.q


# ---------------------------------------------------------------------------
# Balancing, the elimination rules, and the main loop.
# ---------------------------------------------------------------------------

def balance_set_size(u_size: int, k1: int) -> int:
    """|B| = max{0, ceil(5 k1/2 - |U| - 1/2)}."""
    return max(0, math.ceil(2.5 * k1 - u_size - 0.5))


def balance(undecided: Sequence[int], rejected: Sequence[int], k1: int,
            rng: np.random.Generator) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Move |B| uniformly chosen rejected arms into the sampling pool.

    Returns the stage's sampling pools (U', R', B) with U' = U + B and
    R' = R - B, U' and R' sorted.  Keeps the bandit occlusion constants in
    check (pair-exclusion probability at least 1/2, low-mean fraction
    bounded); infeasible when the reject set cannot supply |B| arms, which
    the n >= ceil(7k/2) guard rules out.
    """
    undecided = tuple(sorted(map(int, undecided)))
    rejected = tuple(sorted(map(int, rejected)))
    size = balance_set_size(len(undecided), k1)
    if size > len(rejected):
        raise InfeasibleError(
            f"balancing needs {size} reject arms but only {len(rejected)} exist"
        )
    if size == 0:
        return undecided, rejected, ()
    shuffled = rng.permutation(np.asarray(rejected, dtype=np.int64)).tolist()
    picked = tuple(shuffled[:size])
    return tuple(sorted(undecided + picked)), tuple(sorted(shuffled[size:])), picked


def elimination_step(
    undecided: Sequence[int],
    k_t: int,
    mu_hat: np.ndarray,
    c_hat: np.ndarray,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Apply the accept/reject rules on one snapshot of intervals.

    ``k_t`` is the number of arms still to accept, with 1 <= k_t < |U|;
    ``mu_hat`` and ``c_hat`` hold one entry per arm of ``undecided``, in its
    order.  Accept i when mu_i - c_i clears the (k_t+1)-th largest upper
    bound over the undecided set; reject i when mu_i + c_i falls under the
    k_t-th largest lower bound.  Returns (still undecided, accepted now,
    rejected now), each in the order of ``undecided``.

    The completion rule (once n-k arms are rejected, accept the rest) needs
    no step of its own: the k_t arms then left have lower bounds at or above
    the k_t-th largest, which every rejected arm's upper bound falls under,
    so they clear the (k_t+1)-th largest upper bound and the accept rule
    takes them.  This holds because every radius is >= 0.
    """
    U = np.asarray(undecided, dtype=np.int64)
    if not (1 <= k_t < len(U)):
        raise DomainError("need 1 <= k_t < |undecided|")
    mu_hat, c_hat = np.asarray(mu_hat, dtype=float), np.asarray(c_hat, dtype=float)
    if mu_hat.shape != U.shape or c_hat.shape != U.shape or not c_hat.min(initial=0.0) >= 0:
        raise DomainError("need one interval per undecided arm, with radius >= 0")
    uppers, lowers = mu_hat + c_hat, mu_hat - c_hat
    accept_bar = np.sort(uppers)[-(k_t + 1)]  # (k_t+1)-th largest
    reject_bar = np.sort(lowers)[-k_t]  # k_t-th largest
    accepting, rejecting = lowers > accept_bar, uppers < reject_bar
    return (tuple(U[~(accepting | rejecting)].tolist()), tuple(U[accepting].tolist()),
            tuple(U[rejecting].tolist()))


def run_identification(
    env: Measure,
    model: str,
    k: int,
    delta: float,
    rng: np.random.Generator,
    stage_cap: int = STAGE_CAP,
    exact_k_mode: bool | None = None,
    keep_log: bool = True,
) -> TrialRecord:
    """Identify the best k-subset under the given feedback model.

    Returns the accepted arms, total queries, and, when ``keep_log`` is on,
    a per-stage log.
    ``stage_cap`` bounds the doubling loop; hitting it flags the trial
    inconclusive rather than returning a silent guess.  ``exact_k_mode``
    defaults per feedback model (on for bandit and marked).  Balancing is
    not a setting: it runs under bandit feedback whenever n >= ceil(7k/2).
    Bandit mode rejects instances with a unit mean (they are unidentifiable
    from max-only feedback).

    Stage t samples T = 2^t plays of queries of k1 = min(|U|, k) undecided
    arms, each joined in exact-k mode by k2 = k - k1 top-off arms.  The loop
    keeps the partition as the undecided arms (in arm order) and the sorted
    accepted and rejected arms.

    Under bandit feedback without balancing, a run that reaches |U| <= k
    stops inconclusive before its next stage, taking nothing more from
    ``rng``: k1 = |U| puts all of U in every play's one query, so every
    undecided arm reads the same max bit, gets the same ``mu_hat`` and
    ``c_hat``, and no rule of ``elimination_step`` can fire again.

    The leading stages that cannot decide an arm are taken undrawn before
    the loop (``_skip_undecidable_stages``), so a kept log starts at the
    first drawn stage.  In such a stage U' is all n arms, k1 = k, k2 = 0 and
    |B| = 0 (``balanced`` needs n >= ceil(7k/2)), so each of its plays has
    ``stage_shape(n, 0, 0, k, 0)``.
    """
    check_model(model)
    if stage_cap < 1:
        raise DomainError("stage_cap must be >= 1")
    n = env.n
    if not (1 <= k <= n):
        raise DomainError("need 1 <= k <= n")
    if k == n:
        # the answer is forced; sampling would be pointless
        return TrialRecord(returned=tuple(range(n)), total_queries=0, stages=0)

    if model == "bandit" and any(m >= 1.0 for m in env.marginals()):
        raise IdentifiabilityError("bandit identification needs every mean < 1")

    exact_k = exact_k_mode if exact_k_mode is not None else model in ("bandit", "marked")
    balanced = model == "bandit" and n >= math.ceil(7 * k / 2)
    run_warnings = ()
    if model == "bandit" and not balanced:
        run_warnings = (f"balancing disabled: n={n} < ceil(7k/2)={math.ceil(7 * k / 2)}",)

    undecided, accepted, rejected = tuple(range(n)), (), ()
    stage_log: list[StageRecord] = []
    t, total_queries = _skip_undecidable_stages(n, delta, stage_cap,
                                                stage_shape(n, 0, 0, k, 0).q)

    while t <= stage_cap and len(accepted) < k:
        big_t, k1 = 2**t, min(len(undecided), k)
        if model == "bandit" and not balanced and len(undecided) <= k:
            break  # stalled: the one query of every play holds all of U
        if balanced:
            u_prime, r_prime, balancing = balance(undecided, rejected, k1, rng)
        else:
            u_prime, r_prime, balancing = undecided, rejected, ()
        y, queries = stage_play(env, u_prime, accepted, r_prime, k1, k - k1 if exact_k else 0,
                                model, big_t, rng)
        total_queries += queries
        mu_hat = y.take(undecided) / big_t
        c_hat = confidence_radius(mu_hat, n, t, delta)
        still_undecided, accepted_now, rejected_now = elimination_step(
            undecided, k - len(accepted), mu_hat, c_hat)
        if keep_log:
            # the record shares these arrays, so no later reader may change them
            mu_hat.flags.writeable = c_hat.flags.writeable = False
            stage_log.append(
                StageRecord(
                    t=t,
                    undecided=undecided,
                    accepted=len(accepted),
                    rejected=len(rejected),
                    balancing=len(balancing),
                    sample_size=big_t,
                    queries=queries,
                    mu_hat=mu_hat,
                    c_hat=c_hat,
                    accepted_now=accepted_now,
                    rejected_now=rejected_now,
                )
            )
        undecided, t = still_undecided, t + 1
        if accepted_now:
            accepted = tuple(sorted(accepted + accepted_now))
        if rejected_now:
            rejected = tuple(sorted(rejected + rejected_now))

    return TrialRecord(
        returned=accepted,
        total_queries=total_queries,
        stages=t - 1,
        inconclusive=len(accepted) < k,
        warnings=run_warnings,
        stage_log=tuple(stage_log),
    )
