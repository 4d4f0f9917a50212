"""Exact brute-force computations on small instances.

Everything here is an independent check on the sampling layer and the
closed-form calculators: full joint tables (``Measure.exact_probs``, expanded
from each family's components, never from its sampler), factorization tests,
and exact per-arm recording probabilities for the uniform-play sampling scheme.
Caps keep the whole validation suite fast (14 modeled variables at most).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from . import theory
from .errors import DomainError, InfeasibleError
from .game import MODELS, check_model
from .measures import Measure, PlantedMeasure, ProductMeasure, _marginalize

__all__ = [
    "exact_table",
    "independence_check",
    "exact_query_stats",
    "planted_violations",
    "check_planted",
    "w0_endpoint_violations",
    "w0_table_violations",
    "check_w0",
    "mu_bar_order_violations",
    "check_mu_bar_order",
    "kl_sandwich_violations",
    "check_kl_sandwich",
    "calT_violations",
    "check_calT",
    "CHECKS",
    "verify_all",
]

ENUMERATION_CAP = 14  # modeled binary variables


def exact_table(measure: Measure, arms: Iterable[int]) -> np.ndarray:
    """Exact law of ``arms`` as an array whose atom j sets bit i of variable i."""
    arms = tuple(int(a) for a in arms)
    if len(set(arms)) != len(arms):
        raise DomainError("arms must be distinct")
    if any(a < 0 or a >= measure.n for a in arms):
        raise DomainError("arm index out of range")
    if len(arms) > ENUMERATION_CAP:
        raise DomainError(f"enumeration capped at {ENUMERATION_CAP} variables")
    probs = measure.exact_probs(arms)
    if len(probs) != 2 ** len(arms):
        raise DomainError("table size must be 2**len(arms)")
    if abs(float(np.sum(probs)) - 1.0) > 1e-12:
        raise DomainError("table mass must be 1 within 1e-12")
    return probs


def _mean(probs: np.ndarray, i: int) -> float:
    return float(_marginalize(probs, (i,))[1])


def independence_check(probs: np.ndarray, order: int) -> tuple[bool, float]:
    """Does every size-``order`` marginal of ``probs`` factorize into its single marginals?

    Returns (verdict, max absolute atom deviation from the product law).
    """
    k = len(probs).bit_length() - 1
    if not (1 <= order <= k):
        raise DomainError("order must lie in [1, variable count]")
    singles = [_mean(probs, i) for i in range(k)]
    worst = 0.0
    for pos in combinations(range(k), order):
        marg = _marginalize(probs, pos)
        for atom in range(2**order):
            prod = 1.0
            for bit, i in enumerate(pos):
                prod *= singles[i] if (atom >> bit) & 1 else 1.0 - singles[i]
            worst = max(worst, abs(float(marg[atom]) - prod))
    return worst <= 1e-12, worst


def exact_query_stats(
    measure: Measure,
    u_prime: Sequence[int],
    k1: int,
    model: str,
    reject_pool: Sequence[int] = (),
    accept_pool: Sequence[int] = (),
    k: int | None = None,
) -> dict[int, float]:
    """Exact recording probabilities under S ~ Unif[u_prime, k1] plus top-off.

    Returns ``{arm: mu_bar}``: the probability the arm is recorded with value
    1 given it sits in the drawn block, so one play records it as a
    Bernoulli(mu_bar) bit.

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
    check_model(model)

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
    return mu_bar


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
    probs = exact_table(measure, (i,) + others)
    fires = np.arange(len(probs)) & 1 == 1
    if model == "semi":
        return float(probs[fires].sum())
    others_on = np.array([bin(atom >> 1).count("1") for atom in range(len(probs))])
    if model == "bandit":
        return float(probs[fires | (others_on > 0)].sum())
    return float((probs[fires] / (1.0 + others_on[fires])).sum())


# ---------------------------------------------------------------------------
# Validation suite behind the `verify` CLI subcommand.  Each check runs one
# fixed grid through its cell function and returns its violations as
# machine-readable dicts; the cell functions let a test run one cell, and they
# read the calculators through their module at call time.
# ---------------------------------------------------------------------------

def _equal_mean_violations(probs: np.ndarray, family: str, **where) -> list[dict]:
    """Violations of: every marginal of ``probs`` is ``where["mu"]`` within 1e-12,
    and the table is (k-1)-wise independent, k being its variable count."""
    mu, k = where["mu"], len(probs).bit_length() - 1
    out = [{"check": f"{family}_marginal", **where, "arm": pos, "value": _mean(probs, pos)}
           for pos in range(k) if abs(_mean(probs, pos) - mu) > 1e-12]
    ok, dev = independence_check(probs, k - 1)
    if not ok:
        out.append({"check": f"{family}_independence", **where, "deviation": dev})
    return out


def planted_violations(k: int, mu: float, p: float) -> list[dict]:
    """The planted set of ``PlantedMeasure(k + 1, k, mu, p)`` has marginals mu,
    is (k-1)-wise independent and has all-zeros gap p mu^k, each within 1e-12."""
    m = PlantedMeasure(n=k + 1, k=k, mu=mu, p=p)
    table = exact_table(m, m.planted_set)
    out = _equal_mean_violations(table, "planted", k=k, mu=mu, p=p)
    gap = 1.0 - float(table[0]) - (1.0 - (1.0 - mu) ** k)
    if abs(gap - p * mu**k) > 1e-12:
        out.append({"check": "planted_gap", "k": k, "mu": mu, "p": p, "value": gap})
    return out


def check_planted() -> list[dict]:
    """Planted construction on k in 2..6, mu in {0.1, 0.25, 0.4, 0.5},
    p in {0.25, 0.5, 1}."""
    return [v for k in range(2, 7) for mu in (0.1, 0.25, 0.4, 0.5)
            for p in (0.25, 0.5, 1.0) for v in planted_violations(k, mu, p)]


def w0_endpoint_violations(k: int, mu: float) -> list[dict]:
    """The feasible range's endpoints equal Phi(k_even) and Phi(k_odd) within 1e-12."""
    fr = theory.feasible_range(mu, k)
    out = []
    for end, value, p in (("lo", fr.lo, fr.k_even), ("hi", fr.hi, fr.k_odd)):
        phi = theory.phi(p, mu, k)
        if abs(value - phi) > 1e-12:
            out.append({"check": "w0_endpoints", "k": k, "mu": mu, "end": end,
                        "value": value, "phi": phi})
    return out


def w0_table_violations(k: int, mu: float, w0: float) -> list[dict]:
    """The table ``joint_from_w0`` builds has marginals mu within 1e-12 and is
    (k-1)-wise independent."""
    jt = theory.joint_from_w0(mu, k, w0)
    return _equal_mean_violations(exact_table(jt, range(k)), "w0", k=k, mu=mu, w0=w0)


def check_w0() -> list[dict]:
    """The all-zeros mass w0 pins one equal-mean (k-1)-wise independent law.

    For k in 2..6 and mu in {0.1, 0.25, 0.4}: the endpoints of the feasible
    range; the tables on 20 evenly spaced points of the range (plus 7 for
    k <= 5); and 1e-9 outside either endpoint the raw atoms go negative and
    ``joint_from_w0`` raises ``InfeasibleError``.
    """
    out = []
    for k in range(2, 7):
        for mu in (0.1, 0.25, 0.4):
            out += w0_endpoint_violations(k, mu)
            fr = theory.feasible_range(mu, k)
            sizes = (20, 7) if k <= 5 else (20,)
            for w0 in np.concatenate([np.linspace(fr.lo, fr.hi, s) for s in sizes]).tolist():
                out += w0_table_violations(k, mu, w0)
            for w0 in (fr.lo - 1e-9, fr.hi + 1e-9):
                min_atom = float(theory.w0_atoms(mu, k, w0).min())
                try:
                    theory.joint_from_w0(mu, k, w0)
                    raised = False
                except InfeasibleError:
                    raised = True
                if not (min_atom < 0.0 and raised):
                    out.append({"check": "w0_outside", "k": k, "mu": mu, "w0": w0,
                                "min_atom": min_atom, "raised": raised})
    return out


def mu_bar_order_violations(model: str) -> list[dict]:
    """Uniform play preserves the order of the means: on the 8-arm product
    instance 0.9, 0.8, ..., 0.2 with k1 = 3, ``mu_bar`` is strictly decreasing."""
    prod = ProductMeasure(means=(0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2))
    mu_bar = exact_query_stats(prod, range(8), k1=3, model=model)
    if all(mu_bar[i] > mu_bar[i + 1] for i in range(7)):
        return []
    return [{"check": "mu_bar_order", "model": model, "mu_bar": mu_bar}]


def check_mu_bar_order() -> list[dict]:
    """The ``mu_bar`` order under every feedback model of ``game.MODELS``."""
    return [v for model in MODELS for v in mu_bar_order_violations(model)]


def kl_sandwich_violations(seed: int, edge: float, count: int) -> list[dict]:
    """``kl_bounds`` brackets ``bernoulli_kl`` within 1e-12 on ``count`` pairs
    drawn uniformly from [edge, 1 - edge] (all x, then all y) under ``seed``."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(edge, 1 - edge, count)
    ys = rng.uniform(edge, 1 - edge, count)
    out = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        lo, hi = theory.kl_bounds(x, y)
        d = theory.bernoulli_kl(x, y)
        if not (lo - 1e-12 <= d <= hi + 1e-12):
            out.append({"check": "kl_sandwich", "seed": seed, "x": x, "y": y,
                        "d": d, "lo": lo, "hi": hi})
    return out


def check_kl_sandwich() -> list[dict]:
    """The KL sandwich on 13,000 random pairs: seed 0 (2,000 pairs in
    [1e-3, 1 - 1e-3]), seed 11 (1,000 in [1e-4, 1 - 1e-4]) and seed 99
    (10,000 in [1e-6, 1 - 1e-6])."""
    return [v for seed, edge, count in ((0, 1e-3, 2000), (11, 1e-4, 1000), (99, 1e-6, 10_000))
            for v in kl_sandwich_violations(seed, edge, count)]


def calT_violations(tau: float, n: int, kp: int, delta: float) -> list[dict]:
    """calT(k' tau) <= 2 k' calT(tau) + 1e-9."""
    lhs = theory.calT(tau * kp, n, delta)
    rhs = 2 * kp * theory.calT(tau, n, delta)
    if lhs <= rhs + 1e-9:
        return []
    return [{"check": "calT_identity", "tau": tau, "n": n, "k_prime": kp,
             "delta": delta, "lhs": lhs, "rhs": rhs}]


def check_calT() -> list[dict]:
    """The calT identity on three grids, 180 points."""
    points = [(tau, 16, kp, 0.05) for tau in (0.5, 3.0, 40.0, 1e3) for kp in (1, 2, 5, 11)]
    points += [(tau, n, kp, 0.1) for tau in (0.3, 1.0, 4.0, 20.0, 1e3, 1e5)
               for n in (2, 10, 50, 200) for kp in (1, 2, 3, 5, 7, 11) if kp <= n]
    points += [(tau, n, kp, 0.1) for tau in (0.5, 2.0, 17.0, 300.0, 1e4)
               for n in (2, 8, 64) for kp in range(1, n + 1, max(1, n // 4))]
    return [v for point in points for v in calT_violations(*point)]


CHECKS = (check_planted, check_w0, check_mu_bar_order, check_kl_sandwich, check_calT)


def verify_all() -> list[dict]:
    """Run every check in ``CHECKS``; returns their violations in order."""
    return [v for check in CHECKS for v in check()]
