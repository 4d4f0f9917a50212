"""Stagewise elimination with variance-adaptive confidence intervals.

One stage: pick the per-query sample size k1 = min(|U|, k), optionally move a
few rejected arms back into the sampling pool (bandit balancing), run 2^t
independent uniform-play passes accumulating per-arm win counts, then accept
arms whose lower confidence bound clears the (k_t+1)-th largest upper bound
and reject arms whose upper bound falls under the k_t-th largest lower bound.
Fresh samples every stage; the budget doubles until k arms are accepted.

``stage_play`` is the one sampling engine behind ``run_identification``: it
lays out a chunk of plays as queries, draws reward bits only for the queried
arms, and hands them to the recorder.  ``oracle.exact_query_stats`` gives the
exact per-arm recording law it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DomainError, IdentifiabilityError, InfeasibleError
from .kernels import play_arms, queries_per_play, record_plays
from .measures import Measure, sample_matrix
from .theory import check_model
from .trial import StageRecord, TrialRecord

__all__ = [
    "SamplingSets",
    "ElimState",
    "STAGE_CAP",
    "confidence_radius",
    "stage_play",
    "balance",
    "balance_set_size",
    "elimination_step",
    "run_identification",
]


# ---------------------------------------------------------------------------
# Empirical Bernstein intervals.
# ---------------------------------------------------------------------------

def confidence_radius(mu_hat: float | np.ndarray, T: int, n: int, t: int,
                      delta: float) -> float | np.ndarray:
    """Sample-variance Bernstein radius at stage t with T = 2^t samples.

    v_hat = T mu(1-mu)/(T-1);
    c_hat = sqrt(2 v_hat log(8 n t^2/delta) / T) + 8 log(8 n t^2/delta) / (3(T-1)).

    Returns c_hat, unclipped: a float for one mean, an array of its shape for
    an array of means.  Each entry is computed elementwise in the order
    written above, so an array entry equals the scalar call on that mean bit
    for bit.
    """
    if T < 2:
        raise DomainError("need T >= 2 (sample variance divides by T-1)")
    mu = np.asarray(mu_hat, dtype=float)
    if not ((0.0 <= mu) & (mu <= 1.0)).all():
        raise DomainError("mu_hat must lie in [0, 1]")
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must lie in (0, 1)")
    if n < 1 or t < 1:
        raise DomainError("need n >= 1 and t >= 1")
    log_term = math.log(8.0 * n * t * t / delta)
    v_hat = T * mu * (1.0 - mu) / (T - 1)
    c_hat = np.sqrt(2.0 * v_hat * log_term / T) + 8.0 * log_term / (3.0 * (T - 1))
    return float(c_hat) if mu.ndim == 0 else c_hat


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
    first, accepted arms as fill-in) joined unrecorded to every query.  Per chunk
    it draws the permutations and top-off sets, lays the plays out as
    queries, draws one reward bit per queried arm and query, and records.
    Each play's per-arm recording law is ``oracle.exact_query_stats``.
    """
    urec = np.asarray(sorted(int(a) for a in u_prime), dtype=np.int64)
    m = len(urec)
    if not (1 <= k1 <= m):
        raise DomainError("need 1 <= k1 <= |u_prime|")
    reject_pool = np.asarray(sorted(int(a) for a in r_prime), dtype=np.int64)
    accept_pool = np.asarray(sorted(int(a) for a in accept), dtype=np.int64)
    if k2 > 0 and len(reject_pool) + len(accept_pool) < k2:
        raise InfeasibleError("cannot build a top-off set: pools too small")

    q = queries_per_play(m, k1)
    y = np.zeros(env.n, dtype=np.int64)
    done = 0
    while done < plays:
        b = min(CHUNK_PLAYS, plays - done)
        order = urec[np.argsort(rng.random((b, m)), axis=1)]
        if k2 > 0:
            if len(reject_pool) >= k2:
                keys = np.argsort(rng.random((b, len(reject_pool))), axis=1)
                topoff = reject_pool[keys[:, :k2]]
            else:
                need = k2 - len(reject_pool)
                keys = np.argsort(rng.random((b, len(accept_pool))), axis=1)
                fill = accept_pool[keys[:, :need]]
                topoff = np.concatenate(
                    [np.broadcast_to(reject_pool, (b, len(reject_pool))), fill], axis=1
                )
        else:
            topoff = np.zeros((b, 0), dtype=np.int64)
        arms, recorded = play_arms(order, topoff, k1)
        bits = sample_matrix(env, rng, b * q, arms=arms.reshape(b * q, -1)).reshape(arms.shape)
        if model == "marked":
            mark_u = rng.random((b, q))
        else:
            mark_u = np.zeros((b, q))
        record_plays(bits, arms, recorded, model, mark_u, y)
        done += b
    return y, plays * q


# ---------------------------------------------------------------------------
# Balancing, elimination state, and the main loop.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingSets:
    """Sampling pools for one stage: U' = U + B, R' = R - B."""

    u_prime: tuple[int, ...]
    r_prime: tuple[int, ...]
    balancing: tuple[int, ...]


def balance_set_size(u_size: int, k1: int) -> int:
    """|B| = max{0, ceil(5 k1/2 - |U| - 1/2)}."""
    return max(0, math.ceil(2.5 * k1 - u_size - 0.5))


def balance(undecided: Sequence[int], rejected: Sequence[int], k1: int,
            rng: np.random.Generator) -> SamplingSets:
    """Move |B| uniformly chosen rejected arms into the sampling pool.

    Keeps the bandit occlusion constants in check (pair-exclusion probability
    at least 1/2, low-mean fraction bounded); infeasible when the reject set
    cannot supply |B| arms, which the n >= ceil(7k/2) guard rules out.
    """
    undecided = tuple(sorted(int(a) for a in undecided))
    rejected = tuple(sorted(int(a) for a in rejected))
    size = balance_set_size(len(undecided), k1)
    if size > len(rejected):
        raise InfeasibleError(
            f"balancing needs {size} reject arms but only {len(rejected)} exist"
        )
    if size == 0:
        return SamplingSets(u_prime=undecided, r_prime=rejected, balancing=())
    picked = tuple(
        int(a) for a in rng.permutation(np.asarray(rejected, dtype=np.int64))[:size]
    )
    u_prime = tuple(sorted(undecided + picked))
    r_prime = tuple(sorted(set(rejected) - set(picked)))
    return SamplingSets(u_prime=u_prime, r_prime=r_prime, balancing=picked)


@dataclass(frozen=True, eq=False)
class ElimState:
    """Algorithm state at one stage: the U/A/R partition and the stage index t.

    The stage's budget T = 2^t, query size k1 = min(|U|, k) and top-off size
    k2 all follow from these fields.
    """

    n: int
    k: int
    undecided: tuple[int, ...]
    accepted: tuple[int, ...]
    rejected: tuple[int, ...]
    t: int
    exact_k_mode: bool

    def __post_init__(self):
        parts = set(self.undecided) | set(self.accepted) | set(self.rejected)
        total = len(self.undecided) + len(self.accepted) + len(self.rejected)
        if parts != set(range(self.n)) or total != self.n:
            raise DomainError("undecided/accepted/rejected must partition the arms")
        if len(self.accepted) > self.k or len(self.rejected) > self.n - self.k:
            raise DomainError("accepted/rejected sizes exceed their caps")

    @property
    def sample_size(self) -> int:
        return 2**self.t

    @property
    def k1(self) -> int:
        return min(len(self.undecided), self.k)

    @property
    def k2(self) -> int:
        """Top-off arms joined to each query in exact-k mode once |U| < k."""
        return self.k - self.k1 if self.exact_k_mode and 0 < self.k1 < self.k else 0


def elimination_step(
    state: ElimState,
    mu_hat: np.ndarray,
    c_hat: np.ndarray,
) -> tuple[ElimState, tuple[int, ...], tuple[int, ...]]:
    """Apply the accept/reject rules on one snapshot of intervals.

    ``mu_hat`` and ``c_hat`` hold one entry per undecided arm, in the order
    of ``state.undecided``.  Accept i when mu_i - c_i clears the (k_t+1)-th
    largest upper bound over the undecided set; reject i when mu_i + c_i
    falls under the k_t-th largest lower bound.  Returns the advanced state
    (t+1, budget doubled) plus the newly accepted/rejected arms.

    The completion rule (once n-k arms are rejected, accept the rest) needs
    no step of its own: the k_t arms then left have lower bounds at or above
    the k_t-th largest, which every rejected arm's upper bound falls under,
    so they clear the (k_t+1)-th largest upper bound and the accept rule
    takes them.  This holds because every radius is >= 0.
    """
    U = np.asarray(state.undecided, dtype=np.int64)
    mu_hat, c_hat = np.asarray(mu_hat, dtype=float), np.asarray(c_hat, dtype=float)
    if mu_hat.shape != U.shape or c_hat.shape != U.shape or not (c_hat >= 0).all():
        raise DomainError("need one interval per undecided arm, with radius >= 0")
    k_t = state.k - len(state.accepted)
    uppers, lowers = mu_hat + c_hat, mu_hat - c_hat
    accept_bar = np.sort(uppers)[-(k_t + 1)]  # (k_t+1)-th largest
    reject_bar = np.sort(lowers)[-k_t]  # k_t-th largest
    accepting, rejecting = lowers > accept_bar, uppers < reject_bar
    accepted_now = tuple(U[accepting].tolist())
    rejected_now = tuple(U[rejecting].tolist())
    advanced = replace(
        state,
        undecided=tuple(U[~(accepting | rejecting)].tolist()),
        accepted=tuple(sorted(state.accepted + accepted_now)),
        rejected=tuple(sorted(state.rejected + rejected_now)),
        t=state.t + 1,
    )
    return advanced, accepted_now, rejected_now


def run_identification(
    env: Measure,
    model: str,
    k: int,
    delta: float,
    rng: np.random.Generator,
    stage_cap: int = STAGE_CAP,
    exact_k_mode: bool | None = None,
) -> TrialRecord:
    """Identify the best k-subset under the given feedback model.

    Returns the accepted arms, total queries, and a per-stage log.
    ``stage_cap`` bounds the doubling loop; hitting it flags the trial
    inconclusive rather than returning a silent guess.  ``exact_k_mode``
    defaults per feedback model (on for bandit and marked).  Balancing is
    not a setting: it runs under bandit feedback whenever n >= ceil(7k/2).
    Bandit mode rejects instances with a unit mean (they are unidentifiable
    from max-only feedback).
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

    state = ElimState(n=n, k=k, undecided=tuple(range(n)), accepted=(), rejected=(),
                      t=1, exact_k_mode=exact_k)
    total_queries = 0
    stage_log: list[StageRecord] = []

    while state.t <= stage_cap and len(state.accepted) < k:
        before, big_t = state, state.sample_size
        if balanced:
            sets = balance(before.undecided, before.rejected, before.k1, rng)
        else:
            sets = SamplingSets(u_prime=before.undecided, r_prime=before.rejected, balancing=())
        y, queries = stage_play(
            env,
            sets.u_prime,
            before.accepted,
            sets.r_prime,
            before.k1,
            before.k2,
            model,
            big_t,
            rng,
        )
        total_queries += queries
        mu_hat = y[list(before.undecided)] / big_t
        c_hat = confidence_radius(mu_hat, big_t, n, before.t, delta)
        state, accepted_now, rejected_now = elimination_step(before, mu_hat, c_hat)
        stage_log.append(
            StageRecord(
                t=before.t,
                undecided=len(before.undecided),
                accepted=len(before.accepted),
                rejected=len(before.rejected),
                balancing=len(sets.balancing),
                sample_size=big_t,
                queries=queries,
                mu_hat=dict(zip(before.undecided, mu_hat.tolist())),
                c_hat=dict(zip(before.undecided, c_hat.tolist())),
                accepted_now=accepted_now,
                rejected_now=rejected_now,
            )
        )

    return TrialRecord(
        returned=state.accepted,
        total_queries=total_queries,
        stages=state.t - 1,
        inconclusive=len(state.accepted) < k,
        warnings=run_warnings,
        stage_log=tuple(stage_log),
    )
