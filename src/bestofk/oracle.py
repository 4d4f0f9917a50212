"""Exact brute-force computations on small instances.

Everything here is an independent check on the sampling layer and the
closed-form calculators: full joint tables by enumeration (each family's
``exact_probs``, which never calls its sampler), factorization tests, and
exact per-arm recording probabilities for the uniform-play sampling scheme.
Caps keep the whole validation suite fast (14 modeled variables at most).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .measures import Measure, PlantedMeasure, ProductMeasure, _marginalize

__all__ = [
    "ExactTable",
    "QueryStatistics",
    "exact_table",
    "exact_planted_table",
    "independence_check",
    "all_zero_prob",
    "exact_query_stats",
    "verify_all",
]

ENUMERATION_CAP = 14  # modeled binary variables


@dataclass(frozen=True)
class ExactTable:
    """Joint law of ``arms`` as a dense table; atom j sets bit i of variable i."""

    arms: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        if len(self.probs) != 2 ** len(self.arms):
            raise DomainError("table size must be 2**len(arms)")
        if abs(float(np.sum(self.probs)) - 1.0) > 1e-12:
            raise DomainError("table mass must be 1 within 1e-12")

    @property
    def k_total(self) -> int:
        return len(self.arms)

    def marginal(self, positions: Sequence[int]) -> "ExactTable":
        """Marginal over ``positions`` (indices into this table's variables)."""
        pos = tuple(positions)
        return ExactTable(arms=tuple(self.arms[p] for p in pos),
                          probs=_marginalize(self.probs, pos))

    def mean(self, position: int) -> float:
        return float(_marginalize(self.probs, (position,))[1])


def exact_table(measure: Measure, arms: Iterable[int]) -> ExactTable:
    """Exact joint law of ``arms`` under the measure, by enumeration."""
    arms = tuple(int(a) for a in arms)
    if len(set(arms)) != len(arms):
        raise DomainError("arms must be distinct")
    if any(a < 0 or a >= measure.n for a in arms):
        raise DomainError("arm index out of range")
    if len(arms) > ENUMERATION_CAP:
        raise DomainError(f"enumeration capped at {ENUMERATION_CAP} variables")
    return ExactTable(arms=arms, probs=measure.exact_probs(arms))


def exact_planted_table(measure: PlantedMeasure, n_extra: int = 0) -> ExactTable:
    """Joint law of the planted set plus ``n_extra`` independent arms."""
    extras = [a for a in range(measure.n) if a not in set(measure.planted_set)][:n_extra]
    if len(extras) < n_extra:
        raise DomainError("not enough independent arms for the requested table")
    return exact_table(measure, measure.planted_set + tuple(extras))


def independence_check(table: ExactTable, order: int) -> tuple[bool, float]:
    """Does every size-``order`` marginal factorize into its single marginals?

    Returns (verdict, max absolute atom deviation from the product law).
    """
    if not (1 <= order <= table.k_total):
        raise DomainError("order must lie in [1, k_total]")
    singles = [table.mean(i) for i in range(table.k_total)]
    worst = 0.0
    for pos in combinations(range(table.k_total), order):
        marg = table.marginal(pos)
        for atom in range(2**order):
            prod = 1.0
            for bit, i in enumerate(pos):
                prod *= singles[i] if (atom >> bit) & 1 else 1.0 - singles[i]
            worst = max(worst, abs(float(marg.probs[atom]) - prod))
    return worst <= 1e-12, worst


def all_zero_prob(measure: Measure, arms: Iterable[int]) -> float:
    """Exact probability that every arm in ``arms`` reads 0."""
    return float(exact_table(measure, arms).probs[0])


@dataclass(frozen=True)
class QueryStatistics:
    """Exact per-arm recording law of one uniform-play query.

    ``mu_bar[i]`` is the probability arm i is recorded with value 1 given it
    sits in the drawn block, so one play records it as a Bernoulli(mu_bar[i])
    bit.  ``all_zero`` is the probability a drawn query (block plus top-off)
    shows all zeros.
    """

    mu_bar: dict[int, float]
    all_zero: float


def exact_query_stats(
    measure: Measure,
    u_prime: Sequence[int],
    k1: int,
    model: str,
    reject_pool: Sequence[int] = (),
    accept_pool: Sequence[int] = (),
    k: int | None = None,
) -> QueryStatistics:
    """Exact recording probabilities under S ~ Unif[u_prime, k1] plus top-off.

    The block containing a given arm together with any padding is distributed
    as a uniform k1-subset of ``u_prime`` containing that arm, so only the
    identity of the arm's own block matters.  Passing ``k`` means exact-k
    mode: each query is topped off with k - k1 arms from the pools, and the
    top-off set is averaged over its own law.
    """
    u_prime = tuple(int(a) for a in u_prime)
    if len(u_prime) > ENUMERATION_CAP:
        raise DomainError(f"enumeration capped at {ENUMERATION_CAP} arms")
    if not (1 <= k1 <= len(u_prime)):
        raise DomainError("need 1 <= k1 <= |u_prime|")
    if model not in ("bandit", "marked", "semi"):
        raise DomainError(f"unknown model {model!r}")

    k2 = 0 if k is None else max(0, k - k1)
    topoffs = _topoff_support(tuple(reject_pool), tuple(accept_pool), k2)

    mu_bar: dict[int, float] = {}
    n_rest = len(u_prime) - 1
    weight_rest = 1.0 / math.comb(n_rest, k1 - 1)
    for i in u_prime:
        pool = [a for a in u_prime if a != i]
        acc = 0.0
        for rest in combinations(pool, k1 - 1):
            for w_plus, s_plus in topoffs:
                acc += weight_rest * w_plus * _record_prob(measure, i, rest + s_plus, model)
        mu_bar[i] = acc

    zero = 0.0
    weight_block = 1.0 / math.comb(len(u_prime), k1)
    for block in combinations(u_prime, k1):
        for w_plus, s_plus in topoffs:
            zero += weight_block * w_plus * all_zero_prob(measure, block + s_plus)
    return QueryStatistics(mu_bar=mu_bar, all_zero=zero)


def _topoff_support(reject_pool: tuple[int, ...], accept_pool: tuple[int, ...],
                    k2: int) -> list[tuple[float, tuple[int, ...]]]:
    """Support of the top-off set with weights: reject arms first, accept fill-in."""
    if k2 == 0:
        return [(1.0, ())]
    if len(reject_pool) >= k2:
        w = 1.0 / math.comb(len(reject_pool), k2)
        return [(w, s) for s in combinations(reject_pool, k2)]
    need = k2 - len(reject_pool)
    if len(accept_pool) < need:
        raise DomainError("cannot build a top-off set from the given pools")
    w = 1.0 / math.comb(len(accept_pool), need)
    return [(w, reject_pool + s) for s in combinations(accept_pool, need)]


def _record_prob(measure: Measure, i: int, others: tuple[int, ...], model: str) -> float:
    """Pr(arm i recorded with value 1) in a query {i} + others."""
    probs = exact_table(measure, (i,) + others).probs
    fires = np.arange(len(probs)) & 1 == 1
    if model == "semi":
        return float(probs[fires].sum())
    others_on = np.array([bin(atom >> 1).count("1") for atom in range(len(probs))])
    if model == "bandit":
        return float(probs[fires | (others_on > 0)].sum())
    return float((probs[fires] / (1.0 + others_on[fires])).sum())


# ---------------------------------------------------------------------------
# Validation suite behind the `verify` CLI subcommand.
# ---------------------------------------------------------------------------

def verify_all(max_k: int = 6) -> list[dict]:
    """Run the oracle validation grid; returns a machine-readable violation list."""
    from . import theory
    from .measures import make_planted

    violations: list[dict] = []

    def record(check: str, **detail):
        violations.append({"check": check, **detail})

    mus = (0.1, 0.25, 0.4, 0.5)
    ps = (0.25, 0.5, 1.0)
    for k in range(2, max_k + 1):
        for mu in mus:
            for p in ps:
                m = make_planted(n=k + 1, k=k, mu=mu, p=p)
                table = exact_planted_table(m)
                for pos in range(k):
                    if abs(table.mean(pos) - mu) > 1e-12:
                        record("planted_marginal", k=k, mu=mu, p=p, arm=pos,
                               value=table.mean(pos))
                ok, dev = independence_check(table, k - 1)
                if not ok:
                    record("planted_independence", k=k, mu=mu, p=p, deviation=dev)
                gap = 1.0 - float(table.probs[0]) - (1.0 - (1.0 - mu) ** k)
                if abs(gap - p * mu**k) > 1e-12:
                    record("planted_gap", k=k, mu=mu, p=p, value=gap)

    for k in range(2, max_k + 1):
        for mu in (0.1, 0.25, 0.4):
            rng_pts = theory.feasible_range(mu, k)
            for w0 in np.linspace(rng_pts.lo, rng_pts.hi, 20):
                jt = theory.joint_from_w0(mu, k, float(w0))
                table = ExactTable(arms=tuple(range(k)), probs=np.asarray(jt.probs))
                ok, dev = independence_check(table, k - 1)
                if not ok:
                    record("w0_independence", k=k, mu=mu, w0=float(w0), deviation=dev)

    means = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2)
    prod = ProductMeasure(means=means)
    for model in ("bandit", "marked", "semi"):
        stats = exact_query_stats(prod, range(8), k1=3, model=model)
        order = sorted(range(8), key=lambda i: -stats.mu_bar[i])
        if order != sorted(range(8), key=lambda i: -means[i]):
            record("mu_bar_order", model=model, mu_bar={i: stats.mu_bar[i] for i in range(8)})

    rng = np.random.default_rng(0)
    x = rng.uniform(1e-3, 1 - 1e-3, size=2000)
    y = rng.uniform(1e-3, 1 - 1e-3, size=2000)
    for xi, yi in zip(x, y):
        lo, hi = theory.kl_bounds(float(xi), float(yi))
        d = theory.bernoulli_kl(float(xi), float(yi))
        if not (lo - 1e-12 <= d <= hi + 1e-12):
            record("kl_sandwich", x=float(xi), y=float(yi), d=d, lo=lo, hi=hi)

    for tau in (0.5, 3.0, 40.0, 1e3):
        for kp in (1, 2, 5, 11):
            lhs = theory.calT(tau * kp, n=16, delta=0.05)
            rhs = 2 * kp * theory.calT(tau, n=16, delta=0.05)
            if lhs > rhs + 1e-9:
                record("calT_identity", tau=tau, k_prime=kp, lhs=lhs, rhs=rhs)

    return violations
